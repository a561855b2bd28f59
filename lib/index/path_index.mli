(** The path index: a DataGuide over the instance (§9.1's descriptive
    schema) where every schema node additionally carries the {e extent}
    of instance nodes it describes, in document order.

    {!S} is the interface the query planner takes its index through;
    {!Make} implements it for the XDM store.  (Block storage keeps
    these structures itself, and [Xsm_xpath.Storage_guide] reads them.)
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
    [insert_subtree] gives a freshly linked subtree's root a label
    strictly between its nearest indexed siblings (Proposition 1: no
    existing node is ever relabeled) and splices its entries into the
    extents, raising {!Maintenance_error} when the parent is not
    indexed; [remove_subtree] sweeps a deleted subtree out by one
    label-range split per affected extent, never walking the detached
    instance subtree.  Both report exactly the
    entries they touched, so callers can maintain value indexes and
    decide when a rebuild would be cheaper.  Entries are idempotent
    under replay — inserting an already-indexed node or removing an
    unindexed one is a no-op — which makes absorbing a batch of changes
    in order correct even when later operations supersede earlier
    ones. *)

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

(** A path index over one backend, as the planner reads it. *)
module type S = sig
  type backend
  type node

  type t

  type pnode
  (** A path-index node: one distinct rooted path of the document. *)

  val build : backend -> node -> t
  (** The index of the tree under the given root. *)

  val root : t -> pnode
  val kind : pnode -> [ `Document | `Element | `Attribute | `Text ]
  val name : pnode -> Xsm_xml.Name.t option
  val id : pnode -> int
  val children : t -> pnode -> pnode list
  val pnode : t -> int -> pnode
  (** The path node with the given {!id}. *)

  val extent : t -> pnode -> node Extent.t
  (** The path's instance nodes in document order, keyed by label. *)

  val extent_size : t -> pnode -> int
  (** [Extent.length (extent t pn)], read without materializing it. *)

  val pnode_count : t -> int
  val entry_count : t -> int
  (** Total extent entries = indexed instance nodes. *)

  (** {1 Differential maintenance} *)

  val locate : t -> backend -> node -> (pnode * Xsm_numbering.Sedna_label.t) option
  (** The path node and numbering label of an indexed instance node. *)

  val insert_subtree :
    t -> backend -> node -> (int * Xsm_numbering.Sedna_label.t * node) list
  (** Take in a newly linked subtree.  Returns its [(pnode id, label,
      node)] entries, root first; [[]] when the node is already
      indexed or no longer reachable. *)

  val remove_subtree :
    t -> backend -> node -> node option * (int * Xsm_numbering.Sedna_label.t) list
  (** Let go of a removed subtree.  Returns the parent it was removed
      from and its [(pnode id, label)] entries, root first; [(None,
      [])] when the node was not indexed. *)

  val pp_stats : Format.formatter -> t -> unit
end

module Make (N : NAV) : S with type backend = N.t and type node = N.node
