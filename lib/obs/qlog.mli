(** Structured slow-query log: JSON lines, append-only, flushed per
    entry.

    The daemon opens one at [--slow-log PATH] and appends every
    request whose latency clears [--slow-threshold-ms], attaching the
    request digest and its structured plan — so a slow query arrives
    in the log with the route the planner chose and the estimate it
    chose it on, not just a duration. *)

type t

val create : string -> (t, string) result
(** Open (append, create) the log file. *)

val log : t -> Json.t -> unit
(** Append one entry as a single line and flush; bumps
    [qlog.written].  No-op after {!close}. *)

val close : t -> unit
