(** Assigning Sedna labels to the nodes of a data-model tree, and
    keeping them assigned across updates (Proposition 1).

    Attribute nodes are labelled like children that precede the
    element children, mirroring the §7 document order. *)

type t

val label_tree : Xsm_xdm.Store.t -> Xsm_xdm.Store.node -> t
(** Label every node of the tree rooted at the given node. *)

val append_in_document_order : Xsm_xdm.Store.t -> Xsm_xdm.Store.node -> t
(** Label the tree in one document-order pass with the
    {!Sedna_label.append_child} counter encoding — the bulk-load fast
    path: no child counts needed up front, logarithmic label growth,
    no rebalancing.  Produces the same label table the streaming
    {!Xsm_stream.Bulk_load} assigns, so a tree-built store and a
    stream-built storage agree on every nid. *)

val label : t -> Xsm_xdm.Store.node -> Sedna_label.t
(** The label of a node; [Not_found] if the node was never labelled. *)

val label_opt : t -> Xsm_xdm.Store.node -> Sedna_label.t option

val label_count : t -> int
val max_label_bytes : t -> int

val label_new_child : t -> Xsm_xdm.Store.t -> Xsm_xdm.Store.node -> Sedna_label.t
(** Label a node just linked into the store, from its nearest labelled
    neighbours among its parent's attributes and children
    ({!Sedna_label.neighbours}, {!Sedna_label.gap}): one walk of the
    parent's nodes, no scan of the label table.  No existing label
    changes — the Proposition 1 guarantee, asserted in tests.
    [Invalid_argument] when the node has no parent; [Not_found] when
    the parent is unlabelled. *)

val label_inserted_subtree : t -> Xsm_xdm.Store.t -> Xsm_xdm.Store.node -> unit
(** Label a freshly inserted subtree: the root via
    {!label_new_child}, its attributes and children recursively via
    {!Sedna_label.assign_children}.  A node already detached again
    (no parent) is skipped.  Existing labels are untouched
    (Proposition 1), so a labelled tree stays labelled across WAL
    replay. *)

val remove : t -> Xsm_xdm.Store.node -> unit

val remove_subtree : t -> Xsm_xdm.Store.t -> Xsm_xdm.Store.node -> unit
(** Drop the labels of a just-unlinked subtree (root, attributes and
    descendants). *)

(** {1 Persistence support}

    A labelled tree survives a snapshot/restore cycle: [bindings]
    exports every (node, label) pair; a decoder fills a table sized
    for the nodes it expects ([create], [set]), [restore] rebuilds one
    from pairs. *)

val bindings : t -> (Xsm_xdm.Store.node * Sedna_label.t) list

val create : int -> t
(** An empty table sized for about [n] labels. *)

val set : t -> Xsm_xdm.Store.node -> Sedna_label.t -> unit
(** Bind (or rebind) a node's label. *)

val restore : (Xsm_xdm.Store.node * Sedna_label.t) list -> t

val check_against_tree : Xsm_xdm.Store.t -> Xsm_xdm.Store.node -> t -> bool
(** Ground-truth check: for every pair of labelled nodes in the
    subtree, {!Sedna_label.relation} agrees with the tree (document
    order via [Xsm_xdm.Order], parent/ancestor via accessors).
    Quadratic; for tests. *)
