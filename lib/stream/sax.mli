(** A streaming (SAX-style) XML lexer.

    The pull counterpart of {!Xsm_xml.Parser}: the same grammar —
    elements, attributes, character data, CDATA, comments, processing
    instructions, the XML declaration, a skipped DOCTYPE, the five
    predefined entities and character references (decoded through the
    shared {!Xsm_xml.Parser.decode_entity}) — but delivered as a
    sequence of events over an [in_channel], a string, or arbitrary
    byte chunks, never materializing the tree.  End-of-line
    normalization (XML 1.0 §2.11: ["\r\n"] and lone ["\r"] become
    ["\n"]) is applied to the byte stream before lexing — including a
    ["\r\n"] pair split across two refill chunks — so events and
    positions agree with the tree parser whatever the input's
    line-ending convention.  Peak memory is the
    read-ahead chunk plus a reused scratch buffer plus the open-element
    stack: O(depth) in the document.

    Well-formedness is enforced as the events are produced: matching
    end tags, a single root element, unique attribute names per
    element, no stray markup.  Errors are raised as
    {!Xsm_xml.Parser.Syntax} with exact byte offset, line and column
    (tracked incrementally — no rescan of the input).

    Event discipline: a [Start_element] is followed by the element's
    [Attr] events, then its content.  Character data is delivered as
    one [Text] event per contiguous syntactic run (a CDATA section is
    its own run); consecutive runs separated only by comments or
    processing instructions denote a {e single} logical text node —
    consumers accumulate until the next element boundary, mirroring
    the §8 normalization of {!Xsm_xdm.Convert}.  Comments and PIs
    outside the root element are skipped, as the tree parser does.

    The hot path scans spans of the read-ahead buffer and copies each
    token once; names are interned by their bytes, and each name's
    element events are built once and shared, so steady-state lexing
    allocates only text and attribute payloads. *)

type position = {
  offset : int;  (** 0-based byte offset *)
  line : int;  (** 1-based *)
  column : int;  (** 1-based, in bytes *)
}

val pp_position : Format.formatter -> position -> unit

type event =
  | Start_element of Xsm_xml.Name.t
  | Attr of Xsm_xml.Name.t * string  (** attributes of the innermost open element *)
  | Text of string  (** one syntactic run of character data, never empty *)
  | End_element of Xsm_xml.Name.t
  | Pi of string * string  (** target, data *)
  | Comment of string

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
    epilog is consumed.  Raises {!Xsm_xml.Parser.Syntax} on malformed
    input; after an error or [None] the lexer must not be reused. *)

val event_position : t -> position
(** Position of the first byte of the last event returned by {!next}
    (the ["<"] of a tag, the first byte of a text run). *)

val position : t -> position
(** Current cursor position. *)

val depth : t -> int
(** Number of currently open elements. *)
