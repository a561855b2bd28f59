(** The state algebra of §6.1: a database state as a many-sorted
    algebra.

    The carriers are disjoint sets of node identifiers — one per node
    kind — plus the value spaces supplied by [Xsm_datatypes].  The
    operations are the ten node accessors of §5.  A {!t} holds one
    state; creating nodes and linking them moves the database to a new
    state, as the paper's "database evolves through different database
    states" prescribes (we mutate in place and regard each mutation as
    a state transition).

    Node identifiers are abstract; equality of identifiers is node
    identity.  Accessors on an identifier of the wrong kind return the
    empty sequence exactly as §6.1 dictates (e.g. [children] of an
    attribute node is []). *)

type t
(** A database state: the algebra's carriers and accessor values. *)

type node
(** A node identifier.  Valid only for the store that created it. *)

module Kind : sig
  type t = Document | Element | Attribute | Text

  val to_string : t -> string
  (** The [node-kind] accessor string: "document", "element",
      "attribute" or "text". *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

val create : unit -> t
(** An empty database state: all carriers empty. *)

val node_count : t -> int
(** Total number of nodes across all carriers: every node created and
    not yet {!release}d, linked or not. *)

val slots : t -> int
(** Identifiers handed out so far, live or released: the store's
    footprint.  A released identifier is reused before a new one is
    handed out, so under balanced inserts and deletes that release
    it stays flat. *)

val count_kind : t -> Kind.t -> int
(** Size of one carrier, [|A_Element|] etc. *)

(** {1 Node construction}

    Constructors set the §6.1 fixed accessor values for each kind;
    the tree-shape accessors ([parent], [children], [attributes]) are
    established by the linking functions below. *)

val new_document : ?base_uri:string -> t -> node
val new_element :
  ?base_uri:string -> ?type_name:Xsm_xml.Name.t -> t -> Xsm_xml.Name.t -> node

val new_attribute :
  ?base_uri:string ->
  ?type_name:Xsm_xml.Name.t ->
  ?typed_value:Xsm_datatypes.Value.t list ->
  t ->
  Xsm_xml.Name.t ->
  string ->
  node

val new_text : ?base_uri:string -> t -> string -> node

(** {1 Linking}

    [append_child store parent child] sets [parent child = parent] and
    appends [child] to [children parent] in O(1): the appended nodes
    are folded into the parent's child list by its next read.  Raises
    [Invalid_argument] when the shape constraints of §6.1 would be
    violated: only document and element nodes have children; a
    document node has at most one element child; attribute nodes are
    attached with [attach_attribute] only. *)

val append_child : t -> node -> node -> unit

val adopt : t -> node -> attributes:node list -> children:node list -> unit
(** [adopt store node ~attributes ~children] links a fresh node's
    attributes and children in one step — the bulk builders' path
    (tree loading, snapshot decoding).  Each node is checked once
    against the §6.1 shape rules above (attributes: only on an element,
    attribute nodes only, distinct names; children as for
    [append_child]; none already linked), and the lists become the
    owner's own, uncopied.  Unlike the one-node links, [adopt] leaves
    base URIs alone: a builder creates each node with its own.
    Raises [Invalid_argument] when [node] already has attributes or
    children, or a rule is broken; the store is then left half-linked,
    for the builder to discard. *)

val insert_child_before : t -> node -> before:node -> node -> unit
val remove_child : t -> node -> node -> unit

val attach_attribute : ?before:node -> t -> node -> node -> unit
(** Attach an attribute node to an element: last, or just before the
    attribute [before]. *)

val detach_attribute : t -> node -> node -> unit
(** Remove an attribute node from its owner element. *)

val release : t -> node -> unit
(** [release store n] gives back the slots of the detached subtree
    rooted at [n] (its attributes and descendants too): the next nodes
    created reuse their identifiers, and the old records become
    garbage.  Any later use of a released identifier that has not been
    reused raises [Invalid_argument]; once it is reused, it names the
    new node.  So a writer releases a removed subtree only after every
    consumer that keeps node identifiers (labels, index planners) has
    had the removal and dropped them, and never undoes a deletion it
    has released.  Raises [Invalid_argument] when [n] still has a
    parent. *)

val set_nilled : t -> node -> bool -> unit

val set_content : t -> node -> string -> unit
(** Replace the own content of a text or attribute node (a state
    transition of the algebra; element/document nodes derive their
    string value and reject this). *)

val set_typed_value : t -> node -> Xsm_datatypes.Value.t list -> unit
val set_type_name : t -> node -> Xsm_xml.Name.t option -> unit

(** {1 Accessors (§5)} *)

val kind : t -> node -> Kind.t
val node_kind : t -> node -> string
val node_name : t -> node -> Xsm_xml.Name.t option
val parent : t -> node -> node option
val children : t -> node -> node list
(** Allocates nothing unless appends are pending since the last
    read. *)

val child_count : t -> node -> int
(** [List.length (children store n)]: O(1) once the node has had a
    child appended or counted, so a run of appends pays nothing per
    append. *)

val previous_sibling : t -> node -> node option
val next_sibling : t -> node -> node option
(** The child just before (after) the node among its parent's
    children — for an attribute, among its owner's attributes.  For
    the last child, the case of an append, as cheap as
    [child_count]; a walk of the siblings otherwise. *)

val attributes : t -> node -> node list
val base_uri : t -> node -> string option
val nilled : t -> node -> bool option

val type_name : t -> node -> Xsm_xml.Name.t option
(** The [type] accessor: the QName of the node's type annotation.
    Untyped elements carry [xs:anyType]; text nodes carry
    [xdt:untypedAtomic]; document nodes have no type. *)

val string_value : t -> node -> string
(** The [string-value] accessor, computed per §6.2 item 1 and the
    XDM rules: text and attribute nodes yield their own content;
    element and document nodes concatenate descendant text. *)

val typed_value : t -> node -> Xsm_datatypes.Value.t list
(** The [typed-value] accessor.  When a typed value was recorded by
    validation it is returned; otherwise the string value wrapped as
    [xdt:untypedAtomic]. *)

val untyped : t -> node -> bool
(** The node carries no more than an untyped load gives it: its
    kind's default type annotation, no recorded typed value, no nil
    flag set and no base URI. *)

(** {1 Node identity and traversal} *)

val equal_node : node -> node -> bool
val compare_node : node -> node -> int
(** An arbitrary total order on identifiers, NOT document order — see
    {!Order} for document order.  Not creation order either: a new
    node may reuse a {!release}d identifier. *)

val node_id : node -> int
(** The raw identifier, for debugging and hashing: non-negative and
    below {!slots}. *)

val root : t -> node -> node
(** Follow [parent] to the top. *)

val descendants_or_self : t -> node -> node list
(** Pre-order: the node, then for elements the attributes, then the
    children subtrees — exactly the order of §7. *)

val subtree_size : t -> node -> int

val pp_node : t -> Format.formatter -> node -> unit
