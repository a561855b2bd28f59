(** Crash recovery: snapshot + WAL tail → the pre-crash state.

    [recover] loads the latest snapshot, scans the WAL, truncates the
    torn trailing record if the crash left one (detected by CRC —
    never replayed), and replays the remaining ops in order.  The
    result is content-equal to the longest fully-written prefix of the
    pre-crash update sequence — the crash-recovery mirror of the §8
    round-trip theorem, asserted per crash point by the
    fault-injection tests.

    When the snapshot carries §9.3 numbering labels, replay maintains
    them (inserted subtrees get fresh labels via the Proposition 1
    discipline, deleted ones are dropped), so a recovered store hands
    the planner a live labelled tree.  An index planner is built over
    the recovered state, once. *)

type error =
  | Corrupt_wal of string
      (** the WAL path: the file is not a WAL (bad magic) — corrupt
          input, mapped by the CLI to exit code 3 *)
  | Failed of string  (** any other recovery failure *)

val error_message : error -> string

type stats = {
  snapshot_nodes : int;  (** nodes restored from the snapshot *)
  wal_records : int;  (** valid WAL records scanned (ops + sync points) *)
  replayed : int;  (** ops applied on top of the snapshot *)
  synced_prefix : int;  (** ops covered by an explicit sync point *)
  torn_bytes : int;  (** bytes of torn trailing record dropped *)
  truncated : bool;  (** the WAL file was cut back to its valid prefix *)
}

val pp_stats : Format.formatter -> stats -> unit

val maintain_labels :
  Xsm_xdm.Store.t -> Xsm_numbering.Labeler.t -> Xsm_xdm.Store.node Xsm_schema.Update.change -> unit
(** Carry the §9.3 labels through one change: an inserted
    subtree is labelled from its nearest labelled neighbours in the
    parent's attributes @ children order
    ({!Xsm_numbering.Labeler.label_new_child}), a deleted one drops
    its labels, and existing labels never move (Proposition 1).
    Replay uses it per record; the daemon uses it per committed
    update. *)

val replay_wal :
  ?labels:Xsm_numbering.Labeler.t ->
  ?truncate:bool ->
  Xsm_xdm.Store.t ->
  root:Xsm_xdm.Store.node ->
  string ->
  (stats, error) result
(** The replay half of {!recover}, for callers that loaded the
    snapshot themselves.  [labels] are carried through every replayed
    op ({!maintain_labels}).  A missing WAL file is an empty log. *)

val recover :
  ?truncate:bool ->
  snapshot:string ->
  ?wal:string ->
  unit ->
  ( Xsm_xdm.Store.t
    * Xsm_xdm.Store.node
    * Xsm_numbering.Labeler.t option
    * stats,
    error )
  result
(** [recover ~snapshot ?wal ()] rebuilds the database state.  A
    missing WAL file is an empty log (first boot after a snapshot);
    [truncate] (default [true]) also repairs the WAL on disk so the
    next writer appends after the valid prefix.  Replay failure of a
    {e valid} record — a snapshot/log mismatch — is an error, not a
    skip: the pair is inconsistent and silently dropping transitions
    would fabricate a state that never existed. *)
