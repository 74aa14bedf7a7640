(** Blocking client for the benchmark service.

    Addresses are ["unix:PATH"], ["tcp:HOST:PORT"], ["tcp:PORT"]
    (loopback), or a bare path (treated as a Unix socket).  All calls
    block until the server replies; errors are typed {!error} values,
    never exceptions — raw [EPIPE]/[ECONNRESET]/[ECONNREFUSED] and EOF
    surface as {!Server_gone}/{!Connect_failed} naming the address.

    Connections speak protocol 2: the first frame of every connection is
    the server's [hello] (session id + heartbeat contract), and while a
    call is blocked waiting for the server the client pings every half
    interval and declares the server gone — in bounded time — once it has
    been silent for [heartbeat * miss_limit] seconds.

    This client does not reconnect; {!Resilient} layers retry, backoff
    and resume on top of it. *)

module Json = Sb_util.Json

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result

(** Why a call failed.  [Connect_failed] is returned when no session was
    ever established (refused, unresolvable, no hello); [Server_gone]
    when an established connection died (EOF, [EPIPE], [ECONNRESET],
    missed heartbeats) — the distinction drives the CLI's exit codes and
    the resilient client's retry decisions. *)
type error =
  | Connect_failed of { addr : string; detail : string }
  | Server_gone of { addr : string; detail : string }
  | Protocol_error of string  (** unparsable frame from the server *)
  | Server_error of string  (** the server answered with an error frame *)

val error_message : error -> string
(** Human message, naming the address for transport errors. *)

type t

val connect : string -> (t, error) result
(** Connect and wait (bounded) for the server's hello frame. *)

val close : t -> unit

val session : t -> string option
(** The server-assigned session id from the hello frame. *)

val heartbeat : t -> float
(** The heartbeat interval the server announced ([<= 0] = none). *)

val addr : t -> string
(** The rendered address this client is connected to. *)

val send : t -> Protocol.request -> (unit, error) result

(** How a streamed job ended. *)
type job_end =
  | Completed of { rows : int; failed : int }
  | Was_cancelled of { dropped : int }
  | Server_bye of string  (** the server shut down mid-job *)

val submit :
  ?cancel_after:int ->
  ?resume:bool ->
  ?on_row:(key:string -> cached:bool -> Json.t -> unit) ->
  t ->
  id:string ->
  cells:Protocol.cell_spec list ->
  (job_end, error) result
(** Submit one job and stream its rows through [on_row] (the [key] is the
    cell's content address, what a resuming client checks off) until the
    server reports it done (or cancelled, or shuts down).
    [cancel_after n] sends a cancel frame after the [n]-th row — the
    mid-run cancellation path, exercised by tests and [--cancel].
    [resume] marks the submission as a post-reconnect resume. *)

val cancel : t -> id:string -> (int, error) result
(** Returns the number of dropped (never-run) cells. *)

val status : t -> (Json.t, error) result
(** The server's {!Serve.status_json} payload. *)

val dump : t -> (string * Json.t list, error) result
(** [(source, cells)]: every row the server knows, as bench-JSON cell
    objects — the feed for [compare]/[baseline] against a live server. *)

val shutdown : t -> (unit, error) result
(** Fire-and-forget graceful-shutdown request. *)
