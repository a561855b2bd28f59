(** Data blocks and node descriptors (§9.2).

    Every schema node owns a bidirectional list of blocks; blocks hold
    node descriptors (the physical representation of nodes).  The
    ordering discipline is the paper's: descriptors in block [i]
    precede descriptors in block [j > i] in document order, while
    inside one block order is reconstructed through the short
    next-in-block / previous-in-block pointers.

    A descriptor carries the §9.2 fields: parent, left- and
    right-sibling pointers, the in-block chain, the [nid] numbering
    label of §9.3, and — for nodes that can have children — a pointer
    to the {e first child per child schema node} rather than to every
    child (the decision Example 8 illustrates with [library] holding
    two child pointers: first [book], first [paper]).

    "It is easy to show that the data stored in the node descriptor
    together with the data stored in the corresponding schema node are
    sufficient to produce the result of any accessor" — the accessor
    functions here are that demonstration, and test E9 checks them
    against the reference [Xsm_xdm] accessors. *)

type t
type desc

val of_store :
  ?block_capacity:int ->
  ?labels:Xsm_numbering.Labeler.t ->
  Xsm_xdm.Store.t ->
  Xsm_xdm.Store.node ->
  t
(** Build the physical representation of a loaded document tree
    (default block capacity: 64 descriptors).  The nids are the given
    [labels] ([Not_found] if a node has none), else evenly spread
    ({!Xsm_numbering.Sedna_label.assign_children}). *)

val representable : Xsm_xdm.Store.t -> Xsm_xdm.Store.node -> (unit, string) result
(** Descriptors keep kinds, names, lexical values and nids: all an
    untyped load gives a tree ({!Xsm_xdm.Store.untyped}).  [Error]
    names the first node that carries more — a type annotation, a
    typed value, a nil flag or a base URI — which {!to_store} would
    not give back. *)

val create_empty : ?block_capacity:int -> unit -> t
(** An empty storage holding just the document-root descriptor
    (labelled {!Xsm_numbering.Sedna_label.root}) — the starting point
    of a streaming build via the [append_*] functions below. *)

(** {1 Streaming document-order appends}

    The bulk-load fast path: the caller walks the document in order,
    supplies each node's append label
    ({!Xsm_numbering.Sedna_label.append_child}) as [nid] and the
    current last child as [after] ([None] for a first child).  Every
    placement lands in the tail block of its schema node's list — no
    scan, no split, O(1) per node. *)

val append_element :
  t -> parent:desc -> after:desc option -> Xsm_xml.Name.t -> Xsm_numbering.Sedna_label.t -> desc

val append_text :
  t -> parent:desc -> after:desc option -> string -> Xsm_numbering.Sedna_label.t -> desc

val append_attribute :
  t ->
  parent:desc ->
  after:desc option ->
  Xsm_xml.Name.t ->
  string ->
  Xsm_numbering.Sedna_label.t ->
  desc

val schema : t -> Descriptive_schema.t
val root : t -> desc

(** {1 Accessors reconstructed from descriptors} *)

val snode : desc -> Descriptive_schema.snode
val node_kind : desc -> string
val node_name : desc -> Xsm_xml.Name.t option
val parent : desc -> desc option
val children : t -> desc -> desc list
(** Child elements and texts, in document order, reconstructed from
    the first-child-by-schema pointers and the sibling chains. *)

val attributes : t -> desc -> desc list
val string_value : t -> desc -> string

val typed_value : t -> desc -> Xsm_datatypes.Value.t list
(** Descriptors store lexical values only, so the typed value is
    always [xdt:untypedAtomic] of the string value. *)

val nid : desc -> Xsm_numbering.Sedna_label.t

val desc_id : desc -> int
(** The descriptor's allocation-ordered identifier — stable identity
    for hashing, unrelated to document order. *)

val home_block_id : desc -> int option
(** Identifier of the block the descriptor lives in ([None] only for a
    detached descriptor).  Block ids are allocation-ordered and unique
    across the storage; with a pager attached, the id is the block's
    key in the buffer pool. *)

val left_sibling : desc -> desc option
val right_sibling : desc -> desc option

val first_child_by_schema : desc -> Descriptive_schema.snode -> desc option
(** Direct use of the per-schema first-child pointer — the fast path
    bench E8 measures for child-axis steps. *)

val descendants_by_snode : t -> Descriptive_schema.snode -> desc list
(** Every descriptor of one schema node, in document order, by
    scanning its block list — the access path XPath evaluation over
    the descriptive schema uses. *)

val to_element : t -> desc -> Xsm_xml.Tree.element
(** Serialize the subtree under an element descriptor back to
    syntactic XML — [g] of the §8 theorem, but computed from the
    physical representation.  Together with {!of_store} this shows the
    descriptor fields are lossless. *)

val to_document : t -> Xsm_xml.Tree.t
(** Serialize from the root descriptor. *)

val to_store :
  t ->
  Xsm_xdm.Store.t * Xsm_xdm.Store.node * (Xsm_xdm.Store.node * Xsm_numbering.Sedna_label.t) list
(** The inverse of {!of_store}: a fresh untyped XDM store holding one
    node per descriptor (adjacent and empty text nodes kept as they
    are), its root, and every node paired with its descriptor's nid
    — what {!Xsm_numbering.Labeler.restore} takes. *)

(** {1 Updates} *)

val insert_element :
  t -> parent:desc -> after:desc option -> Xsm_xml.Name.t -> desc * int
(** Insert a new empty element under [parent], after sibling [after]
    (or first).  Returns the new descriptor and the number of
    descriptors moved by a block split (0 when the block had room). *)

val insert_text : t -> parent:desc -> after:desc option -> string -> desc * int
val insert_attribute : t -> parent:desc -> Xsm_xml.Name.t -> string -> desc * int
val insert_tree : t -> parent:desc -> after:desc option -> Xsm_xml.Tree.element -> desc
(** Insert a subtree under [parent], after sibling [after] (or first),
    and return its root, with the nids
    {!Xsm_numbering.Labeler.label_inserted_subtree} gives the same
    subtree in a labelled XDM store.  Text children are normalized as
    {!Xsm_xdm.Convert.load_element} does. *)

val delete : t -> desc -> unit
(** Unlink a leaf descriptor.  [Invalid_argument] if it has children. *)

val delete_subtree : t -> desc -> unit
(** Unlink a descriptor with its attributes and descendants.  Every
    descriptor of the subtree leaves its block, but the subtree keeps
    its own links: {!children} and {!attributes} still walk it from
    the removed root, which keeps its nid. *)

val set_content : t -> desc -> string -> unit
(** Replace a text or attribute descriptor's lexical value. *)

(** {1 Disk paging}

    With a pager attached, blocks live in a bounded buffer pool over a
    {!Xsm_pager.Page_file}: descriptor {e values} page in and out
    (the pointer skeleton stays resident).  Only three kinds of call
    count as block accesses: value reads ({!string_value},
    {!typed_value}, {!to_element}) fault the descriptor's home block;
    structural updates fault every block they relink {e before}
    relinking it and mark it dirty for WAL-ordered write-back; and
    {!descendants_by_snode} touches each block of the extent with the
    pool's scan hint.  Navigation ({!root}, {!parent}, {!children},
    {!attributes}, the sibling and first-child accessors, {!nid},
    {!node_name}) reads resident pointers and never reaches the pool.
    Without a pager, everything above behaves exactly as before —
    paging is strictly opt-in. *)

val attach_pager :
  ?wal:Xsm_pager.Pager.wal_hook ->
  t ->
  capacity:int ->
  Xsm_pager.Page_file.t ->
  Xsm_pager.Pager.t
(** Page this storage through a pool of [capacity] blocks over a fresh
    page file.  Existing blocks enter the pool resident and dirty.
    [Invalid_argument] if a pager is already attached. *)

val pager : t -> Xsm_pager.Pager.t option

val set_lsn_source : t -> (unit -> int) -> unit
(** The WAL position stamped on dirty blocks: the record that will
    cover the change, making its blocks unstealable until it lands.
    Bulk load passes [records + 1] (the subtree record to come), and
    so does the paged daemon, whose ops apply before their records
    are appended. *)

val checkpoint : t -> lsn:int -> unit
(** Flush every dirty block and persist the storage metadata (schema,
    block-list orders, counters): after this the page file alone
    reconstructs the store.  [Invalid_argument] without a pager. *)

val of_page_file :
  ?wal:Xsm_pager.Pager.wal_hook -> capacity:int -> Xsm_pager.Page_file.t -> t
(** Reopen a cleanly checkpointed page file: rebuild the descriptor
    skeleton from the block blobs (two passes — chains, then
    cross-block pointers), replay the descriptive schema, and start
    every block cold in a fresh pool.  Raises [Xsm_pager.Codec.Corrupt]
    when the file was not checkpointed or does not decode. *)

(** {1 Statistics and invariants} *)

val block_count : t -> int
val split_count : t -> int
val descriptor_count : t -> int
val blocks_of_snode : t -> Descriptive_schema.snode -> int

val descriptors_of_snode : t -> Descriptive_schema.snode -> int
(** The length of {!descendants_by_snode}, summed from the blocks'
    resident counts: no descriptor is walked and no block is
    touched. *)

val check_integrity : t -> (unit, string) result
(** Verify the §9.2 invariants: per-snode block lists ordered by
    document order between blocks, in-block chains ordered, sibling
    chains consistent with parent pointers, first-child pointers
    pointing at the nid-least child of their schema node. *)
