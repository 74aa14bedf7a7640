type t = { buf : Buffer.t }

let create () = { buf = Buffer.create 256 }

let contents t = Buffer.contents t.buf
let reset t = Buffer.clear t.buf

type state = string

let state t = Buffer.contents t.buf

let restore t s =
  Buffer.clear t.buf;
  Buffer.add_string t.buf s

let device t =
  let read32 = function
    | 0x4 -> 1 (* always ready *)
    | 0x8 -> Buffer.length t.buf
    | _ -> 0
  in
  let write32 offset v =
    match offset with
    | 0x0 -> Buffer.add_char t.buf (Char.chr (v land 0xFF))
    | _ -> ()
  in
  { Device.name = "uart"; read32; write32 }
