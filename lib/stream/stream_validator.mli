(** Streaming validation: the §6.1 transition relation driven over a
    {!Sax} event stream.

    This module is an event source for the one-pass core of
    {!Xsm_schema.Validator}: it maps [Start_element], [Attr], [Text]
    and [End_element] onto the core's inputs (comments and processing
    instructions are dropped, as the §8 conversion drops them) and
    stamps every error with the position of the event that triggered
    it.  The core reads the {!Xsm_schema.Compiled} schema, so a start
    tag resolves no type and compiles no content model.  Peak memory is
    the core's frame stack, O(depth), never O(document).  Verdicts, paths, messages and error order are the
    tree {!Xsm_schema.Validator}'s, with one difference of policy: a
    content model that violates UPA is driven by the position-set
    fallback instead of being rejected, counted in [fallback_steps]. *)

type error = { path : string; position : Sax.position; message : string }

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type stats = {
  elements : int;  (** element frames opened *)
  max_depth : int;  (** peak frame-stack depth *)
  fallback_steps : int;  (** child steps through the non-UPA fallback *)
}

type t

val create : ?automata:Xsm_schema.Compiled.t -> Xsm_schema.Ast.schema -> t
(** A validator for one document.  [automata] is the schema compiled
    once by {!Xsm_schema.Compiled.make} (an {!Xsm_analysis.Analyzer}
    report carries it) — pass it so that validating a document
    compiles nothing; without it the schema is compiled here. *)

val feed : t -> Sax.event -> Sax.position -> unit
(** Consume one event (push interface); a [Cdata] section is text, and
    an empty one is no event at all.  Pass
    {!Sax.event_position} — errors triggered by the event carry it. *)

val finish : t -> (stats, error list) result
(** Call after the last event: errors in document order, or the run
    statistics. *)

val run :
  ?automata:Xsm_schema.Compiled.t ->
  Xsm_schema.Ast.schema ->
  Sax.t ->
  (stats, error list) result
(** Pull driver: drain the lexer through {!feed}.  Lexing errors
    ({!Sax.Syntax}) propagate to the caller. *)
