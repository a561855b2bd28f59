(** Typed value indexes: equality and range probes over the
    typed-values of one indexed path.

    An index entry associates a comparison key (and the exact string
    value) with two §9.3 numbering labels: the {e target} node the
    value was read from, and the {e owner} entry of the indexed path's
    extent the probe answers with.  Probes return sorted owner labels,
    which {!Extent.select_by_labels} turns back into a
    document-ordered sub-extent — labels, unlike extent positions, are
    stable under updates (Proposition 1), so a maintained index keeps
    answering without renumbering anything.

    Keys live in a two-family order — numbers (exact [xs:decimal]
    values) before text — so a range probe only ever matches values of
    the probe's own family, mirroring the evaluator's comparison
    semantics.

    Maintenance is keyed by target: {!set_target} replaces everything
    one target node contributes (its string value may concatenate many
    descendants, so a deep edit re-reads just that target), and
    {!remove_target} drops it.  Both are O(1) on the ground truth.  The
    probe structures are built from memory on the first probe, never
    from the document; after that both calls splice the target's
    entries in and out of them (a binary search and an array shift per
    entry), so a probe right after an update sorts nothing. *)

module Key : sig
  type t = Number of Xsm_datatypes.Decimal.t | Text of string

  val of_string : string -> t
  (** Numeric when the (trimmed) string is in the [xs:decimal] lexical
      space, text otherwise. *)

  val of_value : Xsm_datatypes.Value.t -> t
  (** Decimals keep their exact value; every other atomic goes through
      its canonical string and {!of_string}. *)

  val compare : t -> t -> int
  (** Total order: numbers by value, then texts by code point. *)

  val pp : Format.formatter -> t -> unit
end

type op = Lt | Le | Gt | Ge

val op_matches : op -> Key.t -> Key.t -> bool
(** [op_matches op a b]: does [a op b] hold?  False when the keys
    belong to different families. *)

type t

val create : unit -> t
(** An empty index; populate with {!set_target}. *)

val set_target :
  t ->
  target:Xsm_numbering.Sedna_label.t ->
  owner:Xsm_numbering.Sedna_label.t ->
  (Key.t * string) list ->
  unit
(** Replace every entry contributed by the target node with the given
    (key, exact string) values, attributed to the owner label.  An
    empty list removes the target. *)

val remove_target : t -> Xsm_numbering.Sedna_label.t -> unit
(** Drop everything the target node contributed; no-op when the
    target is not indexed. *)

val size : t -> int
(** Total number of (key, value) entries. *)

val target_count : t -> int

(** {2 Statistics}

    Per-key counts are maintained differentially inside {!set_target}
    and {!remove_target} — the same calls the planner issues as it
    absorbs a batch of changes — so a {!summary} is O(distinct keys) to
    assemble and never re-reads the document.  The assembled summary
    is memoized until the next {!set_target} or {!remove_target}, so
    pricing several predicates between updates sorts the keys once.
    {!rebuilt_summary} recomputes the same statistics from the
    by-target ground truth; the two must agree after any maintenance
    history (a property the test suite checks on random update
    batches). *)

type summary = {
  s_rows : int;  (** total (key, value) entries *)
  s_targets : int;  (** contributing target nodes *)
  s_distinct : int;  (** distinct comparison keys *)
  s_numbers : int;  (** entries in the Number family *)
  s_buckets : (Key.t * int) list;
      (** equi-depth histogram: (inclusive upper-bound key, entries),
          in key order, numbers before texts *)
}

val summary : ?buckets:int -> t -> summary
(** Assemble a summary from the differentially maintained counts, or
    return the memoized one when nothing changed since it was built
    for the same [buckets] (default 8), which caps the histogram
    width. *)

val rebuilt_summary : ?buckets:int -> t -> summary
(** The same summary recomputed from scratch — the reference for the
    maintained statistics. *)

val count_eq : t -> string -> int
(** Maintained count of entries whose comparison key equals
    [Key.of_string lit] — an O(1) cardinality estimate for an equality
    probe (key-level, so lexical variants of one value pool). *)

val est_eq : summary -> string -> float
(** Expected rows for an equality probe under a uniform-keys
    assumption: rows / distinct. *)

val est_range : summary -> op -> Key.t -> float
(** Expected rows for a range probe, from the histogram: full buckets
    on the matching side plus half of the straddling bucket, family
    respected. *)

val eq : t -> string -> Xsm_numbering.Sedna_label.t list
(** Owner labels with a target whose exact string value equals the
    literal; sorted, duplicate-free. *)

val range : t -> op -> Key.t -> Xsm_numbering.Sedna_label.t list
(** Owner labels with a target value [v] such that [v op probe] holds;
    sorted, duplicate-free. *)
