(** User-defined simple types (§4): "a simple type is an atomic type
    or list type or union type or a type derived by restriction from
    another simple type".

    Types form a hierarchy rooted at the built-ins; {!derives_from}
    implements the subtype relation the paper's type hierarchy
    describes. *)

type t =
  | Builtin of Builtin.t
  | Restriction of restriction
  | List of list_type
  | Union of union_type

and restriction = {
  name : string option;  (** None for anonymous types *)
  base : t;
  facets : Facet.t list;
}

and list_type = { list_name : string option; item : t }
and union_type = { union_name : string option; members : t list }

val builtin : Builtin.t -> t
val string_type : t
val boolean : t
val decimal : t
val integer : t
val untyped_atomic : t

val restrict : ?name:string -> t -> Facet.t list -> (t, string) result
(** Derive by restriction.  Fails when the base is [xs:anyType]-like
    (not a simple type) or a facet is inapplicable (length facets on a
    union, digit facets on a non-decimal base). *)

val list_of : ?name:string -> t -> (t, string) result
(** A list type.  The item type must be atomic or a union of atomic
    types (no lists of lists, per the spec). *)

val union_of : ?name:string -> t list -> (t, string) result
(** A union type with at least one member. *)

val type_name : t -> string option
(** The declared name, or the built-in name. *)

val derives_from : t -> t -> bool
(** Reflexive-transitive derivation: restriction steps follow the
    base, list and union types derive from [xs:anySimpleType]. *)

val whitespace : t -> Builtin.whitespace
(** Effective whiteSpace facet: the innermost declared one, or the
    base's. List and union types collapse. *)

val validate : t -> string -> (Value.t list, string) result
(** Validate a lexical form: whitespace-normalize, parse against the
    base primitive, then check every facet on the derivation chain
    (outermost first). Union members are tried in declaration order. *)

val validate_atomic : t -> string -> (Value.t, string) result

val is_valid : t -> string -> bool
