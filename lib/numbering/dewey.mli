(** Plain Dewey labels (Tatarinov et al., SIGMOD 2002) — reference
    [19] of the paper and the starting point of the Sedna scheme.

    A label is the vector of 1-based sibling positions on the path
    from the root.  All three structural predicates are as cheap as
    Sedna's, but insertion between adjacent siblings must renumber
    every following sibling (and their subtrees) — the cost the Sedna
    enhancement removes.  {!insert_after} returns how many existing
    labels had to change, the measure bench E6 compares. *)

type t = int list

val root : t
val compare : t -> t -> int
(** Document order. *)

val equal : t -> t -> bool
val is_ancestor : t -> t -> bool
val is_parent : t -> t -> bool
val depth : t -> int
val byte_size : t -> int
(** Storage cost model: 4 bytes per path component. *)

val child : t -> int -> t
(** [child parent i] — the label of the [i]-th (0-based) child. *)

val pp : Format.formatter -> t -> unit

(** {1 A mutable labelled forest for the update benchmark} *)

type forest

val forest_of_tree : Xsm_xdm.Store.t -> Xsm_xdm.Store.node -> forest
val label : forest -> Xsm_xdm.Store.node -> t

val insert_after :
  forest -> parent:Xsm_xdm.Store.node -> after:Xsm_xdm.Store.node option ->
  Xsm_xdm.Store.node -> t * int
(** Insert a new node after the given sibling (or first).  Returns its
    label and the number of existing labels that changed (renumbered
    following siblings and all their descendants). *)
