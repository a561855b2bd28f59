(** QNames interned by their written bytes.

    A reader that meets the same few names over and over (the SAX
    lexer, the snapshot decoder) looks each one up by the bytes it
    reads: the first occurrence of a name is copied, validated with
    {!Name.of_string} and turned into the reader's value for it, and
    every later occurrence is a probe that allocates nothing. *)

type 'a t

exception Malformed of string * string
(** The written form met for the first time, and why it is no QName
    ({!Name.of_string}'s message). *)

val create : (string -> Name.t -> 'a) -> 'a t
(** [create make]: an empty table whose value for a name written
    [raw] is [make raw name], made the first time [raw] is met. *)

val find : 'a t -> Bytes.t -> int -> int -> 'a
(** [find t b off len]: the value for the name written in [b] at
    [off, off + len).  Raises {!Malformed} when those bytes, met for
    the first time, are no QName. *)
