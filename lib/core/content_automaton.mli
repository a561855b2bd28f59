(** Content-model automata.

    A group definition (§2) denotes a regular language over element
    names.  This module compiles a group into a Glushkov position
    automaton: one state per element-declaration occurrence plus an
    initial state, transitions labelled by element names.  XML
    Schema's Unique Particle Attribution constraint is exactly
    determinism of this automaton, which also makes validation a
    single linear pass that attributes each child to the element
    declaration it matched — the attribution the §6.2 requirements
    (items 5.4.2.3) need in order to recurse with the right type. *)

type t

val make : ?max_positions:int -> Ast.group_def -> (t, string) result
(** Compile a group.  Bounded repetitions are expanded; compilation
    fails when the expansion exceeds [max_positions] (default
    [20_000]) or a repetition factor is invalid. *)

val position_count : t -> int
(** Number of positions (states minus the initial one). *)

val is_deterministic : t -> bool
(** Unique Particle Attribution holds. *)

val matches : t -> Ast.Name.t list -> bool
(** NFA simulation: does the children name sequence belong to the
    content model's language?  Linear in [positions * length]. *)

val run : t -> Ast.Name.t list -> Ast.element_decl list option
(** Deterministic run.  Returns the element declaration attributed to
    each name, or [None] when the word is not accepted.  Requires
    {!is_deterministic}; [Invalid_argument] otherwise. *)

val decls : t -> Ast.element_decl array
(** The element declaration of each position — the numbering
    {!step_run} and {!nfa_step} report attributions in. *)

(** {1 Static analysis} *)

(** A Unique-Particle-Attribution violation, concretely: after reading
    [witness] (whose last symbol is [conflict_name]), that last child
    could be attributed to either of two distinct element-declaration
    occurrences. *)
type conflict = {
  conflict_name : Ast.Name.t;
  first_decl : Ast.element_decl;
  second_decl : Ast.element_decl;
  witness : Ast.Name.t list;  (** a shortest such word *)
}

val upa_conflict : t -> conflict option
(** [None] exactly when {!is_deterministic}.  The witness is found by
    breadth-first search over the position automaton, so its length is
    minimal. *)

type table
(** A determinized content model: per-state transition tables keyed by
    element name, so a validation step is one hash probe instead of a
    scan of the follow set. *)

val compile : t -> table option
(** [None] when the automaton is not deterministic (UPA fails). *)

val table_run : table -> Ast.Name.t list -> Ast.element_decl list option
(** Like {!run}, on the compiled table. *)

val table_matches : table -> Ast.Name.t list -> bool

(** {1 Incremental runners}

    One child step at a time — what the {!Validator} core's frame
    stack drives.  The state returned by {!step_run} supersedes the
    argument; interleave ("all" group) states are updated in place, so
    a state must not be shared between frames. *)

type state

val start_run : table -> state
(** The initial state (no children consumed yet). *)

val step_run : table -> state -> Ast.Name.t -> (state * int) option
(** Consume one child name: the successor state and the position the
    child is attributed to (an index into {!decls} of the automaton the
    table was compiled from), or [None] when the name has no transition
    (the content model is violated — the state is dead). *)

val run_accepting : table -> state -> bool
(** Whether the word consumed so far is a complete match. *)

type nfa_state

val nfa_start : t -> nfa_state
val nfa_step : t -> nfa_state -> Ast.Name.t -> (nfa_state * int) option
(** Position-set simulation over the raw automaton — the one-pass
    fallback for content models that violate UPA, where no table
    exists.  The verdict agrees with {!matches} (and hence with the
    backtracking baseline); the attributed position is the leftmost
    matching one, the backtracking matcher's first choice. *)

val nfa_accepting : t -> nfa_state -> bool

val equivalent : t -> t -> bool
(** Language equivalence, by breadth-first product of the on-the-fly
    determinizations.  Used to verify that canonicalization
    ({!Canonical}) preserves the content model's language. *)
