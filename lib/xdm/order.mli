(** Document order (§7).

    The relation [<<] is the total order on the nodes of one tree
    defined by: the document node precedes its element child; an
    element precedes its attributes; attributes precede the element's
    children; the subtrees of consecutive children are fully ordered
    ([tree(end_j) << tree(end_{j+1})]). *)

val compare : Store.t -> Store.node -> Store.node -> int
(** [compare store a b] is negative when [a << b].  Both nodes must
    belong to the same tree; [Invalid_argument] otherwise. *)

val precedes : Store.t -> Store.node -> Store.node -> bool
(** [precedes store a b] is [a << b] (strict). *)

val nodes_in_order : Store.t -> Store.node -> Store.node list
(** All nodes of the tree rooted at the given node, sorted by [<<].
    Equal to {!Store.descendants_or_self} — exposed separately so the
    equivalence can be tested. *)

val is_ancestor : Store.t -> Store.node -> Store.node -> bool
(** [is_ancestor store a d] — strict ancestorship via [parent]. *)

val index_in_parent : Store.t -> Store.node -> int option
(** Position of a node among its parent's children (0-based); [None]
    for attributes and roots. *)
