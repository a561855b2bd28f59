(** The compiled schema: §3's type-usage rule and §6.2's attribution,
    worked out once per {!Ast.schema}.

    {!make} walks the schema the way {!Schema_check.check} describes —
    the named complex types in definition order, then the root
    declaration, anonymous types in place — and is the only code that
    resolves type references (named complex types first, then declared
    simple types, then built-ins) and determinizes content models.  Every
    element declaration becomes an {!element}: its item-4 type
    annotation, a ready {!content} case (simple type, empty, a
    determinized table or the non-UPA automaton, or the message to
    report), its attribute declarations with their simple types
    resolved, and the mixed flag.  A content-model step lands on a
    position, and each position holds the child's {!element} directly,
    so validation looks nothing up by name or by syntax.  A named type
    is compiled once and shared by every element that references it,
    which keeps recursive types finite.

    The well-formedness diagnostics are a by-product of the same walk:
    {!errors} is what {!Schema_check.check} reports. *)

module Name = Xsm_xml.Name
module Simple_type = Xsm_datatypes.Simple_type

(** One step of a location path, outermost first. *)
type segment =
  | In_type of Name.t  (** inside the named type definition *)
  | In_element of Name.t  (** inside the element declaration *)
  | In_attribute of Name.t  (** at the attribute declaration *)
  | In_group  (** inside an anonymous nested group *)

type location = segment list
type error = { loc : location; message : string }

(** {1 The compiled schema} *)

type attribute = {
  attr : Ast.attribute_decl;
  attr_simple : (Simple_type.t, string) result;  (** the resolved attribute type *)
}

type element = {
  decl : Ast.element_decl;
  annotation : Name.t;
      (** the type QName item 4 records: the type name, or [xs:anyType]
          for an anonymous type *)
  ty : ty;  (** shared by every element of one named type *)
}

and ty = private {
  mutable content : content;
  mutable attributes : attribute list;  (** declaration order *)
  mutable mixed : bool;
}

and content =
  | Unresolved of string  (** the type reference does not resolve: the message *)
  | Simple of Simple_type.t  (** a simple type, or simple content *)
  | Bad_base of string  (** simple content whose base does not resolve *)
  | Empty of { none : bool }
      (** no element children; [none]: the content is absent, not an
          empty group *)
  | Model of model

and model = { group : group; run : run }

(** A group with its element particles compiled, in syntax order. *)
and group = { def : Ast.group_def; particles : particle list }

and particle = Element of element | Group of group

and run =
  | Table of Content_automaton.table * element array
      (** deterministic: the determinized table, and the element each
          position attributes a child to *)
  | Nfa of Content_automaton.t * element array
      (** Unique Particle Attribution fails: the position automaton for
          the exact position-set fallback *)
  | Bad of string  (** the group does not compile: the message *)

type t

val make : Ast.schema -> t
(** Compile every named complex type and the root declaration.  Each
    content model is determinized once here, counted by the
    [validate.automaton_compiles] metric. *)

val schema : t -> Ast.schema
val root : t -> element

val errors : t -> error list
(** Every well-formedness violation, in {!Schema_check.check}'s
    order. *)

val content_models : t -> (location * model) list
(** Every non-empty content model — of each named type and of each
    anonymous type — with its location, outer models before the ones
    nested in them. *)

val determinized : t -> int
(** The content models that have a determinized table. *)

val elements : group -> element list
(** The element particles of a group and its nested groups, in
    order. *)
