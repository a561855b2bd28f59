(** XML serialization.

    Two modes: [to_string] produces compact output with no inserted
    whitespace (safe for mixed content — serializing and reparsing is
    the identity on text), and [to_pretty_string] indents element-only
    content for human consumption. *)

val escape_text : string -> string
(** Escape ampersand and angle brackets for character-data context. *)

val escape_attribute : string -> string
(** Escape ampersand, angle brackets, double quote and newlines/tabs
    for a double-quoted attribute value. *)

val add_escaped : Buffer.t -> attribute:bool -> string -> unit
(** The one escape routine: append a string escaped for character
    data ([~attribute:false]) or a double-quoted attribute value.
    Escaping is per character, so escaping the pieces of a text run
    one after another appends the same bytes as escaping the run. *)

val add_attribute : Buffer.t -> Name.t -> string -> unit
(** Append [ name="value"] (leading space, value escaped) as a start
    tag carries it. *)

val add_element : Buffer.t -> Tree.element -> unit
(** Append the compact serialization of an element: [<name], its
    attributes, then [/>] when it has no children, else [>], the
    children and [</name>]. *)

val element_to_string : Tree.element -> string
val to_string : Tree.t -> string
(** Compact serialization with an XML declaration. *)

val element_to_pretty_string : ?indent:int -> Tree.element -> string
val to_pretty_string : ?indent:int -> Tree.t -> string
(** Indented serialization.  Elements whose children include text are
    printed inline to preserve mixed content. *)
