(** Schema well-formedness (§3).

    The §3 requirement on type usage: every type [T] used in the
    schema satisfies [T ∈ dom(ctd)] or [T] is a (built-in or declared)
    simple type name or [T] is an anonymous definition.  Additional
    checks: repetition factors are sane, element names within one
    group are distinct (§2), simple-content bases are simple types,
    and every content model satisfies the Unique Particle Attribution
    constraint (checked via determinism of its Glushkov automaton); a
    nested group is checked as part of the content model it sits in.
    The checks are made by the one walk that compiles the schema
    ({!Compiled.make}).

    Diagnostics carry a {e structured} location — the path of QNames
    from a named type or the root element declaration down to the
    offending construct — so every front end ([xsm check], [xsm
    validate], [xsm analyze]) prints them uniformly. *)

(** One step of a location path, outermost first. *)
type segment = Compiled.segment =
  | In_type of Ast.Name.t  (** inside the named type definition *)
  | In_element of Ast.Name.t  (** inside the element declaration *)
  | In_attribute of Ast.Name.t  (** at the attribute declaration *)
  | In_group  (** inside an anonymous nested group *)

type location = segment list

val pp_location : Format.formatter -> location -> unit
(** Compact rendering: segments joined with [/], attributes prefixed
    with [@], nested groups as [(group)]; the empty path prints as
    [(schema)]. *)

val location_to_string : location -> string

type error = Compiled.error = { loc : location; message : string }

val pp_error : Format.formatter -> error -> unit

val check : Ast.schema -> (unit, error list) result
(** All well-formedness checks; returns every violation found. *)
