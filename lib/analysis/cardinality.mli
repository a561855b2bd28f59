(** Occurrence-interval arithmetic over content models.

    For a group definition [g] and an element name [n], the interval
    computed here bounds how many [n]-children any word of [L(g)] can
    contain: sequences add, choices take the envelope (with [0] for
    the branches that omit the name), interleaves add, and repetition
    factors scale.  The bounds are exact for the paper's §2 grammar —
    every value inside the interval is realised by some word — except
    that for choices the interval is the convex hull of the per-branch
    intervals. *)

module Ast = Xsm_schema.Ast

type interval = { lo : int; hi : int option  (** [None] = unbounded *) }

val exactly : int -> interval
val zero : interval

val pp : Format.formatter -> interval -> unit
(** Renders as [[lo,hi]] with [*] for unbounded. *)

val to_string : interval -> string

val add : interval -> interval -> interval
(** Sequential composition: both sides occur. *)

val scale : interval -> Ast.repetition -> interval
(** The interval for [g{min,max}] given the interval for one run of
    [g]. *)

val of_group : Ast.group_def -> (Ast.Name.t * interval) list
(** Per element name, the occurrence interval over words of the
    group's language, in first-occurrence order. *)
