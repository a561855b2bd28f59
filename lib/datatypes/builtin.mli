(** The built-in types of XML Schema Part 2 (§4 of the paper).

    Covers the special ur-types ([xs:anyType], [xs:anySimpleType],
    [xdt:anyAtomicType], [xdt:untypedAtomic]), the nineteen primitive
    types, and the built-in derived types (the string hierarchy, the
    integer hierarchy, and the three built-in list types).

    Each built-in validates a lexical form into a {!Value.t} after
    applying its whiteSpace facet. *)

type primitive =
  | P_string
  | P_boolean
  | P_decimal
  | P_float
  | P_double
  | P_duration
  | P_date_time
  | P_time
  | P_date
  | P_g_year_month
  | P_g_year
  | P_g_month_day
  | P_g_day
  | P_g_month
  | P_hex_binary
  | P_base64_binary
  | P_any_uri
  | P_qname
  | P_notation

type t =
  (* ur-types *)
  | Any_type
  | Any_simple_type
  | Any_atomic_type
  | Untyped_atomic
  (* primitives *)
  | Primitive of primitive
  (* string-derived *)
  | Normalized_string
  | Token
  | Language
  | Nmtoken
  | Name
  | Ncname
  | Id
  | Idref
  | Entity
  (* decimal-derived *)
  | Integer
  | Non_positive_integer
  | Negative_integer
  | Long
  | Int
  | Short
  | Byte
  | Non_negative_integer
  | Unsigned_long
  | Unsigned_int
  | Unsigned_short
  | Unsigned_byte
  | Positive_integer
  (* built-in list types *)
  | Nmtokens
  | Idrefs
  | Entities

type whitespace = Preserve | Replace | Collapse

val all : t list
(** Every built-in type, ur-types first. *)

val name : t -> string
(** The unprefixed W3C name, e.g. ["nonNegativeInteger"]. *)

val of_name : string -> t option
(** Look a type up by its unprefixed name, or with one of the
    conventional prefixes [xs:], [xsd:] or [xdt:]. *)

val base : t -> t option
(** The base type in the derivation hierarchy; [None] for
    [Any_type]. *)

val derives_from : t -> t -> bool
(** Reflexive-transitive closure of {!base}. *)

val whitespace : t -> whitespace
(** The (fixed or default) whiteSpace facet value. *)

val normalize_whitespace : whitespace -> string -> string

val is_simple : t -> bool
(** Everything except [Any_type]. *)

val is_list : t -> bool
(** The three built-in list types. *)

val primitive_base : t -> primitive option
(** The primitive a (non-list, non-ur) built-in derives from. *)

val validate : t -> string -> (Value.t list, string) result
(** Whitespace-normalize, then map the lexical form to its value.
    Atomic types yield one value; list types yield one value per item;
    [Any_simple_type]/[Any_atomic_type]/[Untyped_atomic] yield an
    untypedAtomic wrapping; [Any_type] accepts anything as
    untypedAtomic. *)

val validate_atomic : t -> string -> (Value.t, string) result
(** Like {!validate} but requires exactly one resulting value. *)
