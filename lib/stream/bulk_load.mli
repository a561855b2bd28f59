(** Bulk load: sink a {!Sax} event stream straight into
    {!Xsm_storage.Block_storage} descriptors, never materializing the
    syntactic tree or an {!Xsm_xdm.Store} document.

    Because the events arrive in document order, every placement is the
    O(1) tail-block append ({!Xsm_storage.Block_storage.append_element}
    and friends) and every nid is the counter-encoded
    {!Xsm_numbering.Sedna_label.append_child} label — the same labels
    {!Xsm_numbering.Labeler.append_in_document_order} assigns to a
    finished tree, so lexicographic nid order is document order by
    construction.  Peak memory is the open-element frame stack:
    O(depth) when no WAL is attached.

    Text runs are coalesced exactly as {!Xsm_xdm.Convert} normalizes a
    parsed tree (§8): adjacent runs merge across comments and
    processing instructions, which are dropped — so a bulk-loaded store
    is content-identical to [of_store (Convert.load (parse doc))].

    {b Durability.}  With a [wal], the load is logged as one
    {!Xsm_persist.Wal.op} per {e completed} top-level subtree (a
    depth-1 child of the root), addressed by child position under the
    root.  [on_root] fires once, when the root start tag is complete,
    with the bare root element (attributes, no children) — the caller
    snapshots it as the recovery base.  Crashing after [n] records and
    recovering yields the root plus exactly the first [n] fully-loaded
    top-level subtrees; the accumulation cost is O(largest top-level
    subtree), the price of record-granular recovery: the subtree's
    record text, printed into one reused buffer as its events arrive,
    byte-identical to {!Xsm_persist.Wal.encode_record} of the parsed
    subtree. *)

type stats = {
  events : int;
  elements : int;
  attributes : int;
  texts : int;  (** logical (coalesced) text nodes *)
  max_depth : int;
  wal_records : int;  (** 0 when no WAL is attached *)
}

type t

val create :
  ?block_capacity:int ->
  ?wal:Xsm_persist.Wal.Writer.t ->
  ?on_root:(Xsm_xml.Tree.element -> unit) ->
  unit ->
  t

val feed : t -> Sax.event -> unit
(** Consume one event; a [Cdata] section is text, and an empty one is
    no event at all.  Raises {!Xsm_persist.Wal.Crashed} at an
    injected crash point of the attached WAL writer. *)

val drain_completed : t -> Xsm_storage.Block_storage.desc list
(** Descriptors of top-level (depth-1) children completed since the
    last drain, in document order — the differential feed for index
    maintenance during a load. *)

val storage : t -> Xsm_storage.Block_storage.t

val finish : t -> Xsm_storage.Block_storage.t * stats
(** Syncs the WAL (when attached) and returns the loaded storage. *)

val load :
  ?block_capacity:int ->
  ?wal:Xsm_persist.Wal.Writer.t ->
  ?on_root:(Xsm_xml.Tree.element -> unit) ->
  Sax.t ->
  Xsm_storage.Block_storage.t * stats
(** Pull driver: drain the lexer through {!feed}.  Lexing errors
    ({!Sax.Syntax}) propagate. *)
