(** The schema-derived DataGuide.

    §9.1 extracts a descriptive schema — a DataGuide — from an
    {e instance}; this module derives the analogous graph from the
    {e prescriptive} schema itself: one node per document root, per
    element-declaration context, per allowed attribute, plus text
    slots.  Every node of every schema-valid document maps to a graph
    node along its root path, so the graph {b over-approximates} valid
    instances and any path that selects nothing in the graph selects
    nothing in any valid document — the soundness fact
    {!Query_static} builds on.

    Over-approximation is taken seriously where the validator is
    lenient: every element node gets a text child (element-only
    content tolerates whitespace-only text nodes, which survive in the
    store), and every element gets a synthetic [xsi:nil] attribute
    child ([xsi:nil="false"] is legal on any element).  Recursive
    named types are tied back into the graph (one node per
    element-name × type-name pair), so the graph is finite even when
    the valid-document set is not. *)

module Ast = Xsm_schema.Ast

type kind =
  | Doc
  | Elem of Ast.Name.t
  | Attr of Ast.Name.t
  | Text

type node = {
  id : int;
  kind : kind;
  mutable simple : Xsm_datatypes.Simple_type.t option;
      (** for [Attr]: the attribute's type; for [Elem]: the type whose
          lexical forms the element's string value ranges over (simple
          types and simple content only) *)
  mutable synthetic : bool;
      (** the whitespace-only text slot of element-only content, and
          the implicit [xsi:nil] attribute *)
  mutable elem_children : (int * Cardinality.interval) list;
  mutable attr_children : int list;
  mutable text_child : int option;
  mutable parents : int list;
}

type t

val build : Xsm_schema.Compiled.t -> t
(** Read off the compiled schema, which should have no
    {!Xsm_schema.Compiled.errors}; unresolvable type references yield
    childless nodes. *)

val root : t -> int
(** The document node; always id [0]. *)

val node : t -> int -> node

val element_paths : t -> (string * Cardinality.interval * bool) list
(** Every root-to-element path, with the occurrence interval of the
    last step {e per instance of its parent}, depth-first.  The flag
    marks paths cut at a recursive type (the subtree repeats). *)
