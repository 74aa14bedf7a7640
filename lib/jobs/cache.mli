(** Persistent on-disk result cache for experiment cells.

    Values are stored with [Marshal] under a caller-supplied key; the key is
    expected to be a {!fingerprint} of everything that determines the result
    (engine knobs, guest architecture, workload kind, iteration counts,
    scale), so a change to any knob produces a different key and the stale
    cell is simply never looked up again.

    The load path is type-unsafe in the way [Marshal] always is: a key must
    never be reused for values of a different type.  Deriving keys with
    {!fingerprint} (which folds in a schema version) keeps that property. *)

type t

val create : dir:string -> t
(** Creates [dir] (and parents) if needed, and sweeps stale [*.tmp.<pid>]
    files left by writers that died mid-{!store} (only when the owning
    pid is gone — a live pid is a concurrent writer, not litter), plus any
    structurally corrupt checkpoint files ([sb_ckpt_*.cache] whose marshal
    segments no longer decode or whose stored key disagrees with the
    filename).  Swept files count as {!evictions}. *)

val dir : t -> string

val fingerprint : 'a -> string
(** Hex digest of the marshalled value (plus the cache schema version).
    The value must be marshallable without closures: plain records, tuples,
    variants, strings and numbers. *)

val load : t -> key:string -> 'a option
(** [None] on missing, truncated, corrupt or key-mismatched files.  A
    missing file is a plain (silent) miss; a corrupt or key-mismatched
    file is {e evicted}: a one-line warning naming the offending path goes
    to stderr, the file is removed, and {!evictions} is incremented — a
    poisoned CI cache shows up in the logs instead of silently re-running
    every cell. *)

val evict : t -> key:string -> reason:string -> unit
(** Remove one entry's file, warn on stderr and count an eviction — for
    callers (the checkpoint store) whose payloads carry their own
    integrity checks beyond what {!load} verifies. *)

val evictions : unit -> int
(** Corrupt-entry evictions and stale-temp sweeps since start (or
    {!reset_evictions}). *)

val reset_evictions : unit -> unit

val store : t -> key:string -> 'a -> unit
(** Atomic and crash-consistent: the value is written to a private temp
    file, fsynced, renamed into place, and the directory entry is
    fsynced — a crash at any point leaves either the old entry, the new
    entry, or a reclaimable temp file, never a torn entry under the real
    name.  (fsync is best-effort: filesystems that refuse it are
    tolerated.)  If the write itself fails the temp file is removed
    before the exception propagates. *)

val clear : t -> unit
(** Remove every cache file in the directory. *)

val mkdir_p : string -> unit
(** Exposed for callers that need an output directory with the same
    semantics ([--json] output, tests). *)
