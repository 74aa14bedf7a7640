let mask = 0xFFFF_FFFF

let of_int x = x land mask

let to_signed x =
  let x = x land mask in
  if x land 0x8000_0000 <> 0 then x - 0x1_0000_0000 else x

let add a b = (a + b) land mask
let sub a b = (a - b) land mask
let mul a b = (a * b) land mask
let logand a b = a land b land mask
let logor a b = (a lor b) land mask
let logxor a b = (a lxor b) land mask
let lognot a = lnot a land mask

let shift_left x n = if n >= 32 then 0 else (x lsl n) land mask

let shift_right_logical x n =
  if n >= 32 then 0 else (x land mask) lsr n

let shift_right_arith x n =
  let n = if n >= 32 then 31 else n in
  (to_signed x asr n) land mask

let add_with_flags a b =
  let wide = of_int a + of_int b in
  let result = wide land mask in
  let carry = wide > mask in
  let overflow = to_signed a + to_signed b <> to_signed result in
  (result, carry, overflow)

let sub_with_flags a b =
  let result = (a - b) land mask in
  let borrow = of_int a < of_int b in
  let overflow = to_signed a - to_signed b <> to_signed result in
  (result, borrow, overflow)

let sign_extend ~bits v =
  let v = v land ((1 lsl bits) - 1) in
  if v land (1 lsl (bits - 1)) <> 0 then (v - (1 lsl bits)) land mask else v

let pp ppf x = Format.fprintf ppf "0x%08x" (of_int x)

let to_hex x = Printf.sprintf "0x%08x" (of_int x)
