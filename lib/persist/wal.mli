(** The write-ahead log: §6.1 state transitions made durable.

    Every update is captured {e before} it is applied and appended once
    it has applied ({!apply_logged}), as a record that can be replayed against a recovered snapshot {e without} the live
    store: nodes are addressed by their Dewey child-position path from
    the root (positions among [children]; attributes by owner path +
    name), inserted subtrees travel as canonical serialized fragments,
    content changes carry the new value.  Replaying the log over the
    snapshot therefore re-runs the exact transition sequence, and each
    replayed op yields the same {!Xsm_schema.Update.change} the live
    run handed its index planner and labels.

    {b Framing.} The file starts with an 8-byte magic; each record is
    [length (4 bytes LE) ‖ CRC-32 of payload (4 bytes LE) ‖ payload].
    A record is {e torn} when its header or payload is cut short or
    its CRC disagrees; the reader reports the torn tail and the
    recovery engine truncates it — a torn record is never replayed.
    {!Writer.force} and {!Writer.sync} append a sync-point marker
    record and fsync; {!Writer.append} asks for an fsync of every
    record by default ([~sync_every:1]), which runs behind the
    appender.

    {b Fault injection.} A {!crash} point makes the writer stop at a
    chosen record boundary — optionally leaving a prefix of the next
    record's bytes on disk, exactly what an OS crash mid-write leaves —
    and raise {!Crashed}.  The fault-injection tests drive one crash
    point per boundary and assert recovery restores the longest
    fully-written prefix.  With [fsync_fails] the fault is a failed
    fsync instead, and the writer keeps the error: the log is
    read-only from then on. *)

type addr =
  | Node of int list
      (** child-position path from the root: [[]] is the root, [[0; 2]]
          the third child of its first child *)
  | Attribute of int list * Xsm_xml.Name.t
      (** an attribute of the element at the path, by name *)

type op =
  | Insert_element of {
      parent : int list;
      index : int;  (** position among the parent's children *)
      fragment : Xsm_xml.Tree.element;
    }
  | Insert_text of { parent : int list; index : int; text : string }
  | Delete of addr
  | Replace_content of addr * string
  | Set_attribute of { element : int list; name : Xsm_xml.Name.t; value : string }

val pp_op : Format.formatter -> op -> unit

(** {1 Capturing ops from a live store}

    [op_of_update] translates an {!Xsm_schema.Update.op} into its
    store-independent WAL form, over any store whose nodes {!tree}
    describes — the XDM store and the block storage log the same
    records.  Call it {e before} applying the update — the addresses
    describe the pre-state. *)

type 'n tree = {
  parent : 'n -> 'n option;
  children : 'n -> 'n list;  (** element and text children: the Dewey positions *)
  attribute_name : 'n -> Xsm_xml.Name.t option;
      (** the name of an attribute node; [None] for every other kind *)
  equal : 'n -> 'n -> bool;
}
(** The node access a Dewey capture needs. *)

val store_tree : Xsm_xdm.Store.t -> Xsm_xdm.Store.node tree

val op_of_update : 'n tree -> root:'n -> 'n Xsm_schema.Update.op -> (op, string) result

(** {1 Replay} *)

val replay_op :
  Xsm_xdm.Store.t ->
  root:Xsm_xdm.Store.node ->
  op ->
  (Xsm_schema.Update.applied, string) result
(** Resolve the addresses against the current state and apply through
    {!Xsm_schema.Update.apply}; {!Xsm_schema.Update.change} of the
    result is what the replay changed. *)

(** {1 Records} *)

type record = Op of op | Sync_point
(** What one WAL record carries.  [Sync_point] marks an fsync
    boundary: everything before it is durable. *)

val encode_record : record -> string
(** The framed bytes: length, CRC, payload. *)

(** {1 Errors} *)

type error =
  | Not_a_wal of string
      (** the path: the file exists but does not start with the WAL
          magic — corrupt or foreign input, not an I/O failure.  The
          CLI maps this to its corrupt-input exit code (3). *)
  | Io of string  (** an environmental failure (open, stat, fsync …) *)

val error_message : error -> string
(** Render an {!error} for diagnostics. *)

(** {1 Writing} *)

type crash = {
  after_records : int;  (** crash once this many records are fully on disk *)
  partial_bytes : int;
      (** bytes of the next record to leave behind: 0 = clean boundary
          cut, [n > 0] = a torn record of [min n (size-1)] bytes *)
  fsync_fails : bool;
      (** the fault is a disk's, not the process's: every record is
          written whole, and the first fsync asked for once the log
          holds [after_records] records raises
          [Unix.Unix_error (EIO, "fsync", _)] — once, as a kernel
          reports a lost write-back once.  [partial_bytes] is unused. *)
  before_fsync : unit -> unit;
      (** runs on the syncing thread before every fsync of the log, the
          one at {!Writer.create} included — a test holds a sync in
          flight by blocking here.  [ignore] otherwise. *)
}

exception Crashed
(** Raised by {!Writer.append}/{!Writer.sync} at the injected crash
    point, after the partial bytes are flushed. *)

module Writer : sig
  type t

  val create : ?crash:crash -> ?sync_every:int -> string -> (t, error) result
  (** Open (or create) a WAL for appending.  [sync_every] (default 1)
      fsyncs after every n-th record — with a [Sync_point] marker
      ahead of the fsync once {!pager_hook} has been taken; {!force}
      and {!sync} make one anytime.

      {b One sync in flight.}  Every fsync after the open — periodic,
      {!force}, {!sync}, {!close} — goes through one slot, which
      callers get in the order they ask for it: a caller first waits
      out the syncs ahead of it.  The periodic sync runs
      behind the appender: the append that asks for it writes the
      marker, hands the records to the OS and leaves the fsync to one
      syncer thread, started by the first of them.  {!force} and
      {!sync} fsync on the caller's own thread.

      {b A failed sync is kept.}  The ops it covered are never vouched
      for, and every later {!append} (before it writes), {!sync},
      {!close} — and {!force} of an op it did not cover — raises the
      error; the writer never fsyncs again, and a periodic sync due
      after it is skipped.  Appending to an existing non-empty
      file first verifies the magic; a file that is not a WAL is
      [Error (Not_a_wal _)]. *)

  val append : t -> op -> unit
  (** Appends ({!append}, {!append_element}) come from one caller at a
      time; they encode into buffers the writer reuses. *)

  val append_element : t -> parent:int list -> index:int -> Buffer.t -> unit
  (** [append_element t ~parent ~index xml] appends the record
      [append t (Insert_element { parent; index; fragment })] would,
      byte for byte, for a fragment already printed into [xml] as
      {!Xsm_xml.Printer.add_element} prints it — the bulk load's path,
      which prints each record as its events arrive. *)

  val force : t -> int -> int64 * int64
  (** [force t lsn] returns once a fsynced [Sync_point] marker covers
      the first [lsn] ops: group commit.  It waits out the syncs ahead
      of it; if they did not cover [lsn], it appends a marker and
      fsyncs on this thread, covering every op appended so far — so
      the callers that wait meanwhile share the next fsync.  Returns
      the start and stop ({!Xsm_obs.Clock.now_ns}) of the fsync that
      last raised {!synced_lsn}, which covers [lsn].  Thread-safe; it
      may run beside an append. *)

  val sync : t -> unit
  (** Append a [Sync_point] marker and fsync, whatever is covered
      already: everything before it is durable {e and provably so to
      a reader} (the marker is what advances {!read}'s
      [synced_prefix]).  Thread-safe like {!force}. *)

  val records_written : t -> int

  val lsn : t -> int
  (** Ops appended so far — the log-sequence number the pager stamps
      on dirty pages and {!force} takes. *)

  val synced_lsn : t -> int
  (** Ops covered by the last [Sync_point] marker whose fsync has
      returned. *)

  type stats = {
    covering_syncs : int;  (** marker fsyncs that raised {!synced_lsn} *)
    max_covered : int;  (** the most ops one of them made durable *)
  }

  val stats : t -> stats
  (** The daemon reports these as its commit batches. *)

  val pager_hook : t -> Xsm_pager.Pager.wal_hook
  (** The write-back ordering hook for {!Xsm_pager.Pager.create}: a
      dirty page flushes only after a sync covers its LSN; its
      [force] is {!force}.  Taking it puts a marker ahead of the
      writer's periodic fsyncs, so a page whose records they made
      durable forces nothing more. *)

  val close : t -> unit
  (** Wait for the sync in flight, stop the syncer, fsync and close.
      Raises a kept fsync failure after closing the file. *)
end

val apply_logged :
  Writer.t option ->
  'n tree ->
  root:'n ->
  apply:('n Xsm_schema.Update.op -> ('a, string) result) ->
  'n Xsm_schema.Update.op ->
  ('a, string) result
(** The logged state transition, shared by every writer of the log
    and by both stores: capture the op's record against the pre-state,
    [apply] it, and append the record only when the apply succeeded —
    a rejected op leaves the log untouched, so the log stays
    replayable.  A writer that keeps a failed fsync makes the log
    read-only: the op is refused before it is captured or applied, so
    the store never runs ahead of a log that can no longer be made
    durable.  A sync that fails while the op applies does not stop
    its append — the log keeps what the store holds — and the force
    that follows raises the failure.  Without a writer this is a plain
    apply.  {!Crashed}
    propagates from the append at an injected crash point. *)

(** {1 Reading} *)

type torn =
  | Torn_header of int  (** byte offset of a cut-short header *)
  | Torn_payload of int  (** offset of a record whose payload is cut short *)
  | Torn_crc of int  (** offset of a record whose CRC disagrees *)

type read_result = {
  records : record list;  (** the valid prefix, in order *)
  valid_bytes : int;  (** file offset just past the last valid record *)
  torn_at : torn option;  (** why reading stopped early, if it did *)
  synced_prefix : int;
      (** number of [Op] records at or before the last [Sync_point]
          (= all valid ops when the log ends cleanly) *)
}

val read : string -> (read_result, error) result
(** Scan the log; never fails on torn tails — only on unreadable files
    ([Io]) or bad magic ([Not_a_wal]). *)

val truncate_torn : string -> (int, error) result
(** Cut the file back to its valid prefix; returns the bytes dropped
    (0 when the log is clean). *)
