(** The path index: a DataGuide over the instance (§9.1's descriptive
    schema) where every schema node additionally carries the {e extent}
    of instance nodes it describes, in document order.

    One build traversal walks the document through the backend's §5
    accessors, mirrors the descriptive-schema construction (one index
    node per distinct rooted path), assigns every instance node a
    fresh §9.3 Sedna numbering label, and appends a [(label, node)]
    entry to its path node's extent.  Because the traversal is
    pre-order, extents come out sorted by label — no sort pass.

    Any `/a/b//c`-shaped path then resolves to a set of index nodes by
    walking this little tree, and to its answer by merging their
    extents — no instance-node traversal at all.  The labels double as
    the join key for the structural joins of {!Extent} when predicates
    restrict an extent mid-path.

    {b Maintenance.}  The index also supports differential upkeep:
    {!Make.insert_subtree} labels a freshly linked subtree (Proposition
    1: no existing node is ever relabeled) and splices its entries into
    the extents; {!Make.remove_subtree} sweeps a deleted subtree out by
    one label-range split per affected extent.  Both report exactly the
    entries they touched, so callers can maintain value indexes and
    decide when a rebuild would be cheaper.  Entries are idempotent
    under replay — inserting an already-indexed node or removing an
    unindexed one is a no-op — which makes absorbing a batch of changes
    in order correct even when later operations supersede earlier
    ones.

    The functor is parameterized over the same accessor signature the
    XPath navigators provide, so one implementation serves both the
    XDM store and the Sedna block storage. *)

module type NAV = sig
  type t
  type node

  val kind : t -> node -> [ `Document | `Element | `Attribute | `Text ]
  val name : t -> node -> Xsm_xml.Name.t option
  val parent : t -> node -> node option
  val children : t -> node -> node list
  val attributes : t -> node -> node list
  val string_value : t -> node -> string
  val typed_value : t -> node -> Xsm_datatypes.Value.t list

  val id : t -> node -> int
  (** A stable integer identity — node identifiers, not document
      positions.  Non-negative and dense (a creation counter, or a
      store that reuses released identifiers): the index keeps arrays
      indexed by it. *)
end

exception Maintenance_error of string
(** Raised when differential maintenance meets a state it cannot
    repair (e.g. an insertion under an unindexed parent); the caller
    falls back to a full rebuild. *)

module Make (N : NAV) : sig
  type t

  type pnode
  (** A path-index node: one distinct rooted path of the document. *)

  val build : N.t -> N.node -> t
  (** Index the tree under the given root (one full traversal). *)

  val root : t -> pnode
  val kind : pnode -> [ `Document | `Element | `Attribute | `Text ]
  val name : pnode -> Xsm_xml.Name.t option
  val id : pnode -> int
  val children : t -> pnode -> pnode list
  val pnode : t -> int -> pnode
  (** The path node with the given {!id}. *)

  val extent : pnode -> N.node Extent.t

  val pnode_count : t -> int
  val entry_count : t -> int
  (** Total extent entries = indexed instance nodes. *)

  (** {1 Differential maintenance} *)

  val locate : t -> N.t -> N.node -> (pnode * Xsm_numbering.Sedna_label.t) option
  (** The path node and numbering label of an indexed instance node. *)

  val insert_subtree :
    t -> N.t -> N.node -> (int * Xsm_numbering.Sedna_label.t * N.node) list
  (** Index a newly linked subtree: a fresh label for its root strictly
      between its nearest indexed siblings (never relabeling them),
      fresh path nodes for unseen paths, one sorted extent insertion
      per subtree node.  Returns the [(pnode id, label, node)] entries
      added, root first; [[]] when the node is already indexed or no
      longer reachable.  Raises {!Maintenance_error} when the parent is
      not indexed. *)

  val remove_subtree :
    t -> N.t -> N.node -> (int * Xsm_numbering.Sedna_label.t) list
  (** Un-index a deleted subtree by label-range splits over the pnode
      subtree's extents (the detached instance subtree itself is not
      walked).  Returns the [(pnode id, label)] entries removed, root
      first; [[]] when the node was not indexed. *)

  val pp_stats : Format.formatter -> t -> unit
end
