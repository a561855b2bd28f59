(** Node extents: the leaves of the path index.

    An extent is the set of instance nodes materializing one path-index
    node (one DataGuide path), kept sorted by their §9.3 numbering
    label — i.e. in document order.  Because every node of an extent
    lies at the {e same depth} (all have the same rooted path), an
    extent is an antichain of the ancestor relation: no entry is an
    ancestor of another.  The structural joins below exploit this: the
    only possible ancestor of a label [l] inside an antichain is the
    greatest entry [<= l], so each probe is one binary search plus one
    §9.3 label predicate, never a tree traversal. *)

type 'n entry = { label : Xsm_numbering.Sedna_label.t; node : 'n }

type 'n t
(** Entries sorted by label (document order), distinct labels. *)

val empty : 'n t
val of_rev_list : 'n entry list -> 'n t
(** Build from entries listed in {e reverse} document order — the
    order an index-construction traversal naturally accumulates. *)

val of_nodes : ('n -> Xsm_numbering.Sedna_label.t) -> 'n list -> 'n t
(** Build from nodes in document order, each labelled by the
    function — an extent read off a store that labels its own nodes.
    An extent keeps its labels and nodes in two arrays, so this
    allocates no record per node. *)

val length : 'n t -> int
val get : 'n t -> int -> 'n entry
val entries : 'n t -> 'n entry list
val nodes : 'n t -> 'n list
(** The nodes in document order. *)

val select : 'n t -> int list -> 'n t
(** Sub-extent from sorted, duplicate-free positions. *)

val select_by_labels : 'n t -> Xsm_numbering.Sedna_label.t list -> 'n t
(** Sub-extent of the entries carrying the given labels (sorted,
    duplicate-free); labels without an entry are skipped.  One merge
    scan — labels are the stable addressing of extent entries under
    maintenance, where positions shift. *)

(** {1 Point and range maintenance}

    Extents are immutable arrays; each operation returns a fresh
    extent in O(extent) time worst case.  That is still far below a
    full index rebuild, which visits every node of the document. *)

val mem : 'n t -> Xsm_numbering.Sedna_label.t -> bool

val insert : 'n t -> 'n entry -> 'n t
(** Insert at the label's sorted position; an entry already carrying
    the label is replaced. *)

val split_off_descendants :
  ?or_self:bool -> 'n t -> Xsm_numbering.Sedna_label.t -> 'n t * 'n entry list
(** Remove every entry whose label is a descendant of the given label
    (or the label itself, when [or_self]) and return it: the removed
    run is contiguous because the level separator is the smallest
    alphabet symbol, so this is one binary search plus the run scan —
    no tree walk over the (possibly already mutated) instance. *)

val inter : 'n t -> 'n t -> 'n t
(** Intersection by label (merge scan). *)

val merge : 'n t list -> 'n t
(** Document-order union of extents; entries with equal labels are
    kept once. *)

(** {1 Structural joins on numbering labels} *)

val find_ancestor_pos :
  ?or_self:bool -> among:'n t -> Xsm_numbering.Sedna_label.t -> int option
(** Position of the entry of [among] that is an ancestor of the label
    (or the label itself when [or_self]).  [among] must be an
    antichain; the result is then unique. *)

val restrict_by_ancestor : ?or_self:bool -> among:'n t -> 'n t -> 'n t
(** Entries whose label has an ancestor (or themselves, when
    [or_self]) in the antichain [among] — the descendant-axis
    containment join. *)

val restrict_by_parent : among:'n t -> 'n t -> 'n t
(** Entries whose label's parent lies in the antichain [among] — the
    child-axis join. *)

val semijoin_containing : targets:'n t list -> 'n t -> 'n t
(** Entries of the antichain argument that contain at least one entry
    of some target extent in their subtree (the entry itself counts) —
    the existence-predicate semi-join. *)
