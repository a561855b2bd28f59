(** The Sedna numbering scheme (§9.3).

    A numbering label is a non-empty sequence of symbols over a finite
    linearly-ordered alphabet Ω.  Our alphabet is the bytes
    [0x01..0xFF]: [0x01] is Ω_min and doubles as the level separator,
    components (one per tree level) are non-empty strings over
    [0x02..0xFF].  With the separator smaller than every component
    symbol, plain lexicographic comparison of labels is document
    order, prefix-plus-separator is ancestorship, and parenthood is
    ancestorship with a separator-free extension — the three
    predicates of §9.3, each decided by one scan of the labels with no
    access to the tree.

    Proposition 1 (update stability): {!between} always finds a
    component strictly between two sibling components, because
    component length is unbounded — no insertion ever forces
    relabeling of existing nodes.  The cost is label growth, which
    bench E6 measures against the Dewey/range/prime baselines. *)

type t = private string

val root : t
(** The label of the tree root (a single mid-alphabet component). *)

val of_raw : string -> (t, string) result
(** Validate an arbitrary byte string as a label: non-empty,
    no leading/trailing/double separators, component bytes in
    [0x02..0xFF]. *)

val to_raw : t -> string
val length : t -> int
(** Byte length — the storage cost measure of bench E6. *)

val depth : t -> int
(** Number of components = 1 + number of separators. *)

(** {1 The §9.3 predicates} *)

val compare : t -> t -> int
(** Document order: [compare x y < 0] iff x occurs before y. *)

val equal : t -> t -> bool
val is_ancestor : t -> t -> bool
(** [is_ancestor x y]: strict ancestorship. *)

val is_parent : t -> t -> bool
(** [is_parent x y]: y is exactly one level below x. *)

type relation = Self | Ancestor | Descendant | Parent | Child | Before | After

val relation : t -> t -> relation
(** Full structural classification of a label pair. *)

(** {1 Label generation} *)

val assign_children : t -> int -> t list
(** [assign_children parent n] — labels for [n] children, evenly
    spread through the component space so later insertions find wide
    gaps (the paper's "enhancement serving to prevent the growing of
    numbering labels after updates"). *)

val child : t -> int -> t
(** [child parent i] is [List.nth (assign_children parent (i+1)) i]
    computed directly. *)

val append_child : t -> int -> t
(** [append_child parent i] — the label of the [i]-th child (0-based)
    under a document-order bulk append: a counter component of
    [1 + ceil(log253 (i+1))] bytes, so a streaming ingest assigns
    labels with logarithmic growth and no rebalancing (Proposition 1
    needs no gaps here — later insertions still find room via
    {!between}, whose output these components interoperate with).
    For a fixed parent, [append_child parent i < append_child parent j]
    iff [i < j]. *)

val between : t -> t -> t
(** [between a b] for two labels of sibling nodes ([a < b]): a new
    sibling label strictly between them.  [Invalid_argument] when the
    labels are not siblings or not in order. *)

val first_child : t -> t
(** A label for a new first child of a node with no children yet. *)

val before_sibling : t -> t
(** A label strictly before the given one, same parent. *)

val after_sibling : t -> t
(** A label strictly after the given one, same parent. *)

val gap : parent:t -> t option -> t option -> t
(** [gap ~parent prev next] — the label of a node inserted under the
    node labelled [parent], right after the sibling labelled [prev]
    and right before the one labelled [next] ([None]: no such
    sibling).  {!between}, {!after_sibling}, {!before_sibling} or
    {!first_child}, so no existing label changes (Proposition 1).
    [Invalid_argument] as {!between}. *)

val neighbours :
  label_of:('n -> 'l option) -> is_self:('n -> bool) -> 'n list -> ('l option * 'l option) option
(** [neighbours ~label_of ~is_self siblings] — one walk of a parent's
    nodes (attributes, then children) to the node [is_self] picks:
    the [label_of] its nearest preceding and following siblings that
    have one.  Unlabelled siblings are skipped: they are not yet
    placed, so they constrain nothing.  [None] when no sibling is the
    node.  Lookups stop at the first hit on each side, so when every
    other sibling is labelled the walk costs one pass to the node and
    two lookups. *)

val pp : Format.formatter -> t -> unit
(** Hex rendering for debugging. *)
