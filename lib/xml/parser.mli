(** The tree builder: a document or element parsed into {!Tree}, as a
    fold over the {!Sax} event stream — one lexer, one grammar, one
    error record for the tree and the streaming paths.

    Every event maps to its node: elements, attributes in written
    order, character data (entity and character references decoded),
    CDATA sections, comments and processing instructions.  The XML
    declaration fills the document's [version], [encoding] and
    [standalone]; a DOCTYPE, and comments and PIs outside the root
    element, are skipped. *)

type error = Sax.error = {
  line : int;  (** 1-based line of the offending position *)
  column : int;  (** 1-based column (in bytes) *)
  offset : int;  (** 0-based byte offset into the normalized input *)
  message : string;
}

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

exception Syntax of error
(** {!Sax.Syntax}: raised by the lexer, and converted to a [result] by
    {!parse_document} and {!parse_element}. *)

val parse_document : ?base_uri:string -> string -> (Tree.t, error) result
(** Parse a complete document, prolog included. *)

val parse_element : string -> (Tree.element, error) result
(** Parse a string that consists of exactly one element, with only
    whitespace around it: no declaration, DOCTYPE, comment or PI. *)
