(** The XML 1.0 lexer: a pull (SAX-style) event stream.

    Elements, attributes (single- or double-quoted), character data,
    CDATA sections, comments, processing instructions, the XML
    declaration, a skipped DOCTYPE (internal subset included), the five
    predefined entities and decimal/hexadecimal character references,
    delivered as a sequence of events over an [in_channel], a string, or
    arbitrary byte chunks.  {!Parser} builds its trees from these
    events; the streaming validator and the bulk loader consume them
    without ever materializing a tree.  End-of-line normalization (XML
    1.0 §2.11: ["\r\n"] and lone ["\r"] become ["\n"]) is applied to the
    byte stream before lexing — including a ["\r\n"] pair split across
    two refill chunks — so events and positions do not depend on the
    input's line-ending convention.  Peak memory is the read-ahead chunk
    plus a reused scratch buffer plus the open-element stack: O(depth)
    in the document.

    Well-formedness is enforced as the events are produced: matching
    end tags, a single root element, unique attribute names per element,
    no stray markup, at most one DOCTYPE, a [standalone] of [yes] or
    [no], and no processing-instruction target spelled [xml] in any case
    other than the declaration at offset 0.  DTD-defined entities are
    not supported.  Errors are raised as {!Syntax} with exact byte
    offset, line and column (tracked incrementally — no rescan of the
    input).

    Event discipline: a [Start_element] is followed by the element's
    [Attr] events, then its content.  Character data is delivered as one
    [Text] event per contiguous syntactic run, and each CDATA section as
    one [Cdata] event; consecutive runs separated only by comments or
    processing instructions denote a {e single} logical text node —
    consumers accumulate until the next element boundary, mirroring the
    §8 normalization of {!Xsm_xdm.Convert}.  The declaration, a DOCTYPE,
    and comments and PIs outside the root element produce no event.

    The hot path scans spans of the read-ahead buffer and copies each
    token once; names are interned by their bytes, and each name's
    element events are built once and shared, so steady-state lexing
    allocates only text and attribute payloads. *)

type error = {
  line : int;  (** 1-based line of the offending position *)
  column : int;  (** 1-based column (in bytes) *)
  offset : int;  (** 0-based byte offset into the normalized input *)
  message : string;
}

exception Syntax of error

type position = {
  offset : int;  (** 0-based byte offset *)
  line : int;  (** 1-based *)
  column : int;  (** 1-based, in bytes *)
}

val pp_position : Format.formatter -> position -> unit

type event =
  | Start_element of Name.t
  | Attr of Name.t * string  (** attributes of the innermost open element *)
  | Text of string  (** one syntactic run of character data, never empty *)
  | Cdata of string  (** one CDATA section's content, possibly empty *)
  | End_element of Name.t
  | Pi of string * string  (** target, data *)
  | Comment of string

type declaration = { version : string; encoding : string option; standalone : bool option }

type t

val of_string : string -> t
val of_channel : ?chunk_size:int -> in_channel -> t
(** Lex from a channel, reading [chunk_size] bytes at a time
    (default 64 KiB). *)

val of_function : ?chunk_size:int -> (bytes -> int -> int -> int) -> t
(** Lex from an arbitrary chunk source: [refill buf off len] must
    write at most [len] bytes at [off] and return how many, 0 for end
    of input. *)

val next : t -> event option
(** The next event, [None] after the root element closes and the
    epilog is consumed.  Raises {!Syntax} on malformed input; after an
    error or [None] the lexer must not be reused. *)

val declaration : t -> declaration
(** The XML declaration's [version], [encoding] and [standalone], once
    the first event has been returned; [version] is ["1.0"] and the
    others [None] when the document has no declaration. *)

val skipped_markup : t -> position option
(** Where the first markup that produced no event outside the root
    element starts — the declaration, a DOCTYPE, a comment or a PI —
    or [None] if there was none so far. *)

val event_position : t -> position
(** Position of the first byte of the last event returned by {!next}
    (the ["<"] of a tag, the first byte of a text run). *)

val position : t -> position
(** Current cursor position. *)

val depth : t -> int
(** Number of currently open elements. *)
