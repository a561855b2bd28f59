(** The §6.2 judgment: is a tree of nodes an S-tree?

    One engine decides it: a one-pass core ({!create} … {!finish})
    for the §6.1 transition relation, fed start tags, attributes,
    character data and end tags in document order.  It reads the
    {!Compiled} schema and resolves nothing itself: each open element
    holds one frame with its compiled element and one
    {!Content_automaton} state, a child step is one hash probe that
    lands on the child's compiled element, acceptance is checked when
    the element closes, and state is O(depth).  There are two event
    sources: {!validate} walks a tree in an XDM store, and
    {!Xsm_stream.Stream_validator} maps SAX events.

    The store walk adds the checks only a store can fail (the document
    node's children, adjacent text nodes, impossible child kinds), and
    its frames carry their nodes, so the core writes the annotations
    of the state algebra where it makes the matching check (item 4:
    [type(end) = T] for named types, [xs:anyType] for anonymous ones;
    item 5.1.1: text typed [xdt:untypedAtomic]; typed values of
    simple-typed elements and attributes; default attributes).

    Errors come in one-pass order: a child that falls off its parent's
    content model is reported at the parent when it occurs, after the
    errors of earlier children, and its subtree is skipped.  The tree
    entry points reject a content model that violates Unique Particle
    Attribution; {!create} drives it by the position-set fallback
    ({!Content_automaton.nfa_step}: exact verdict).

    [validate_document] is the function [f] of the §8 theorem: it
    takes a syntactic S-document, builds the node tree and validates
    it, returning the document node.

    Deviations from the letter of the paper, recorded in DESIGN.md:
    whitespace-only text nodes are tolerated (and not represented) in
    element-only content, because real documents are indented; the
    [xsi:nil] attribute is how an instance marks a nil element. *)

type error = { path : string; message : string }

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val validate :
  ?automata:Compiled.t ->
  Xsm_xdm.Store.t -> Xsm_xdm.Store.node -> Ast.schema -> (unit, error list) result
(** Validate (and annotate) the tree rooted at a document node.
    The schema must pass {!Schema_check.check} first; content models
    that fail to compile are reported as errors.

    [automata] is the schema compiled by {!Compiled.make} — pass it
    when validating many documents, so none of them compiles the
    schema again; without it the schema is compiled here. *)

val validate_element_node :
  ?automata:Compiled.t ->
  Xsm_xdm.Store.t -> Xsm_xdm.Store.node -> Ast.schema -> (unit, error list) result
(** Validate an element node directly against the schema's root
    declaration (no document node on top). *)

val validate_document :
  ?store:Xsm_xdm.Store.t ->
  ?automata:Compiled.t ->
  Xsm_xml.Tree.t ->
  Ast.schema ->
  (Xsm_xdm.Store.t * Xsm_xdm.Store.node, error list) result
(** [f]: load a syntactic document into a store and validate it. *)

val is_valid : Xsm_xml.Tree.t -> Ast.schema -> bool

val xsi_nil : Xsm_xml.Name.t
(** The [xsi:nil] attribute name. *)

(** {1 The one-pass core} *)

type t

type stats = {
  elements : int;  (** element frames opened *)
  max_depth : int;  (** peak frame-stack depth *)
  fallback_steps : int;  (** child steps through the non-UPA fallback *)
}

val create : ?automata:Compiled.t -> Ast.schema -> t
(** [automata] is the compiled schema, as for {!validate}. *)

val start_element : t -> Xsm_xml.Name.t -> unit

val attribute : t -> Xsm_xml.Name.t -> string -> unit
(** An attribute of the innermost open element, before its content. *)

val text : t -> string -> unit
(** A run of character data; consecutive runs form one text node. *)

val end_element : t -> unit

val take_errors : t -> error list
(** The errors reported since the last call, in order. *)

val stats : t -> stats
val finish : t -> (stats, error list) result
(** After the last input: the errors not yet taken, or the statistics. *)
