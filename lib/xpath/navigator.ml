(** The navigation interface the evaluator needs — exactly the §5
    accessors (plus an ordering, which §7 derives from them).  Any
    backend providing these can run queries: the XDM store and the
    Sedna block storage both do. *)

module type S = sig
  type t
  (** The backend (a store, a block storage, ...). *)

  type node

  val kind : t -> node -> [ `Document | `Element | `Attribute | `Text ]
  val name : t -> node -> Xsm_xml.Name.t option
  val parent : t -> node -> node option
  val children : t -> node -> node list
  val attributes : t -> node -> node list
  val string_value : t -> node -> string

  val typed_value : t -> node -> Xsm_datatypes.Value.t list
  (** The §5 typed-value accessor; untyped backends answer with
      [xdt:untypedAtomic] of the string value. *)

  val equal : t -> node -> node -> bool

  val order : t -> node -> node -> int
  (** Document order (§7). *)

  val id : t -> node -> int
  (** A stable integer identity — node identifiers, not positions, so
      it never changes under updates.  Non-negative and dense (a
      creation counter): the path index keeps arrays indexed by it. *)
end

module Xdm : S with type t = Xsm_xdm.Store.t and type node = Xsm_xdm.Store.node = struct
  module Store = Xsm_xdm.Store

  type t = Store.t
  type node = Store.node

  let kind store n =
    match Store.kind store n with
    | Store.Kind.Document -> `Document
    | Store.Kind.Element -> `Element
    | Store.Kind.Attribute -> `Attribute
    | Store.Kind.Text -> `Text

  let name = Store.node_name
  let parent = Store.parent
  let children = Store.children
  let attributes = Store.attributes
  let string_value = Store.string_value
  let typed_value = Store.typed_value
  let equal _ a b = Store.equal_node a b
  let order = Xsm_xdm.Order.compare
  let id _ n = Store.node_id n
end

module Storage :
  S with type t = Xsm_storage.Block_storage.t and type node = Xsm_storage.Block_storage.desc =
struct
  module B = Xsm_storage.Block_storage

  type t = B.t
  type node = B.desc

  let kind _ d = Storage_guide.kind (B.snode d)

  let name _ d = B.node_name d
  let parent _ d = B.parent d
  let children = B.children
  let attributes = B.attributes
  let string_value = B.string_value
  let typed_value = B.typed_value
  let equal _ a b = Xsm_numbering.Sedna_label.equal (B.nid a) (B.nid b)
  let order _ a b = Xsm_numbering.Sedna_label.compare (B.nid a) (B.nid b)
  let id _ d = B.desc_id d
end
