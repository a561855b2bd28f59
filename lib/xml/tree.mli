(** Syntactic XML documents.

    This is the textual-level representation of an XML document: what a
    parser produces and a serializer consumes.  The paper's data-model
    trees (nodes with accessors) live in [Xsm_xdm]; the theorem of §8
    relates the two. *)

type attribute = { name : Name.t; value : string }

type node =
  | Element of element
  | Text of string  (** character data, entity references already resolved *)
  | Cdata of string  (** CDATA section content, kept distinct for printing *)
  | Comment of string
  | Pi of { target : string; data : string }

and element = {
  name : Name.t;
  attributes : attribute list;  (** in written order *)
  children : node list;  (** in document order *)
}

type t = {
  version : string;  (** from the XML declaration; ["1.0"] by default *)
  encoding : string option;
  standalone : bool option;
  base_uri : string option;  (** external property, not part of the text *)
  root : element;
}

(** {1 Construction} *)

val attr : ?prefix:string -> string -> string -> attribute
val elem : ?attrs:attribute list -> ?children:node list -> string -> element
val elem_n : ?attrs:attribute list -> ?children:node list -> Name.t -> element
val text : string -> node
val element : element -> node
val document : ?base_uri:string -> element -> t

(** {1 Observation} *)

val attribute_value : element -> Name.t -> string option
(** First attribute with the given name, if any. *)

val child_elements : element -> element list
(** The element children, in order, skipping text/comments/PIs. *)

val child_elements_named : element -> Name.t -> element list

val first_child_named : element -> Name.t -> element option

val text_content : element -> string
(** Concatenation of all [Text] and [Cdata] descendants, in document
    order — the string-value of the element in XDM terms. *)

val node_count : element -> int
(** Number of element, attribute and text nodes in the subtree rooted
    at the element (the carrier size of the corresponding S-tree). *)

val depth : element -> int
(** Height of the element tree: 1 for a leaf element. *)

val fold_elements : ('a -> element -> 'a) -> 'a -> element -> 'a
(** Pre-order fold over the element and all its element descendants. *)

(** {1 Content equality}

    The relation [=_c] of §8: two documents are content-equal when they
    carry the same information items.  Comments and processing
    instructions are ignored; adjacent text and CDATA nodes are merged;
    attribute order is irrelevant; whitespace-only text nodes between
    elements are ignored when [ignore_whitespace] is set (the default),
    matching the usual treatment of ignorable whitespace in
    element-only content. *)

val equal_content : ?ignore_whitespace:bool -> t -> t -> bool
val equal_element_content : ?ignore_whitespace:bool -> element -> element -> bool

(** {1 Generic equality and printing} *)

val equal_node : node -> node -> bool
val equal_element : element -> element -> bool
val pp : Format.formatter -> t -> unit
