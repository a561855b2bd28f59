(** The index-aware query planner.

    A path like [/library/book[issue/year<1980]//title] is rewritten
    into operations on a path index (a DataGuide whose nodes carry the
    extents of their instance nodes, keyed by §9.3 labels) instead of
    a node-by-node walk:

    - pure location steps (child, attribute, descendant axes, [//])
      become moves over the DataGuide, so the candidate set is a
      handful of {e extents} resolved without touching instance nodes;
    - value predicates ([=], [<], [<=], [>], [>=]) become probes of a
      typed value index built (once, then cached) over the extent of
      the predicate's path;
    - existence predicates become containment semi-joins on the labels;
    - whenever a predicate has restricted an extent, subsequent steps
      re-attach to the full extents of deeper paths through
      parent/ancestor joins on the labels.

    The index is the functor's second argument: [Path_index.Make] over
    the XDM store, {!Storage_guide} (§9's descriptive schema, block
    lists and nids) over block storage.  One evaluation reads each
    extent at most once.  Anything outside this fragment — relative
    paths, reverse or sibling axes, positional predicates — falls back
    to the plain {!Eval.Make} evaluator, so every query still answers
    and the two engines agree wherever both apply (the property the
    test suite checks).

    {b Maintenance}: indexes are kept current {e differentially}.
    Whoever applies an update hands the planner the
    [Xsm_schema.Update.change] it made ({!Make.apply_changes}), over
    either store, right after the op applies.  Changes are
    label-sorted splices into the path extents and keyed add/remove in
    the value indexes, which find owners and ancestors through parent
    links, never by reading an extent.  Proposition 1 makes this
    sound: existing labels never change under updates, so everything
    already indexed stays put.  A size-ratio heuristic bounds the
    worst case: when a batch touches more than a quarter of the
    indexed entries (or maintenance meets a state it cannot repair),
    the planner falls back to one full rebuild.  {!Make.invalidate}
    forces a rebuild for a caller that does not hand its changes on. *)

type maintenance_stats = {
  epochs : int;  (** full index builds so far (1 = the initial build) *)
  applied : int;  (** changes absorbed without a rebuild *)
  vi_drops : int;  (** value indexes dropped for lazy rebuild *)
}

type digest = {
  dg_query : string;  (** the query as given (before static rewrite) *)
  dg_route : string;  (** ["pruned"], ["index"] or ["fallback"] *)
  dg_reason : string;  (** prune/fallback reason; [""] for index *)
  dg_actual : int;  (** result cardinality *)
  dg_estimate : unit -> Plan.estimate option;
      (** lazy interval estimate over the provider; forcing it does
          {e not} re-evaluate the query (unlike [explain_json]), so a
          digest consumer can attach estimate-vs-actual to kept
          digests only.  [None] when the path is outside the
          estimator's fragment. *)
}
(** What one evaluation looked like — pushed to the digest sink as
    {!Make.eval} returns, so a daemon can feed its flight recorder and
    slow-query log without a second evaluation. *)

val digest_json : digest -> Xsm_obs.Json.t
(** Compact plan JSON for a kept digest: query, route, reason, actual
    rows, and (when the estimator supports the path) the estimated
    interval with containment flag and absolute error. *)

type policy =
  | Rule  (** always probe a value index, always semi-join *)
  | Cost
      (** price each candidate route — probe (plus an amortized build
          when the index is not cached), residual per-owner filter,
          semi-join, whole-query navigation — and pick the cheapest;
          the default *)

module Make
    (N : Navigator.S)
    (I : Xsm_index.Path_index.S with type backend = N.t and type node = N.node) : sig
  module PI :
    Xsm_index.Path_index.S
      with type backend = N.t
       and type node = N.node
       and type t = I.t
       and type pnode = I.pnode

  type t

  val create : N.t -> N.node -> t
  (** Build the path index for the tree rooted at the given node
      (value indexes are created lazily per indexed path). *)

  val invalidate : t -> unit
  (** Mark the indexes stale after an update whose change is not
      handed to {!apply_changes}; the next evaluation rebuilds them. *)

  val refresh : t -> unit
  (** Rebuild now. *)

  val stale : t -> bool
  val index : t -> PI.t
  val value_index_count : t -> int

  (** {1 Differential maintenance} *)

  val apply_changes : t -> N.node Xsm_schema.Update.change list -> unit
  (** Absorb a batch of changes, in order, into the path index and the
      cached value indexes.  Falls back to a full rebuild when the
      batch touches too large a fraction of the index or cannot be
      repaired differentially, or when the indexes are stale.  Each
      call records one [planner.drain_ns] sample and opens no span: a
      daemon calls it from its commit's apply stage, where no span
      is recorded. *)

  val maintenance_stats : t -> maintenance_stats

  (** {1 Schema-aware pruning} *)

  val set_pruner : t -> (Path_ast.path -> string option) -> unit
  (** Install a static emptiness oracle — typically
      [Xsm_analysis.Query_static.pruner graph] (kept abstract here as
      a closure so the analysis library can depend on this one).  When
      the oracle answers [Some reason], {!eval} returns [[]]
      immediately, without touching any extent, and {!explain} reports ["pruned(reason)"].  The oracle
      is only consulted for evaluations anchored at the indexed root
      (absolute paths, or no [?context] given); soundness is the
      oracle's contract — for the static analyzer, that the instance
      is valid against the analyzed schema. *)

  val pruned_count : t -> int
  (** Evaluations answered by the pruning oracle so far. *)

  val set_rewriter : t -> (Path_ast.path -> Path_ast.path) -> unit
  (** Install a static simplifier — typically
      [Xsm_analysis.Query_static.fold graph] — applied before pruning
      and planning, under the same root-anchoring guard as the pruner.
      Soundness is the simplifier's contract: the rewritten path must
      select the same nodes on every instance the oracle's schema
      validates. *)

  (** {1 Cost-based planning} *)

  val set_policy : t -> policy -> unit
  val policy : t -> policy

  val provider : t -> Plan.pview
  (** The instance-backed cardinality view: exact extent sizes from
      the path index, value statistics from the cached value indexes.
      Row intervals propagated over it contain the actual result
      cardinality of any query the estimator supports. *)

  val estimate : t -> Path_ast.path -> Plan.estimate
  (** [Plan.estimate] over {!provider}. *)

  val set_digest_sink : t -> (digest -> unit) option -> unit
  (** Install (or clear) the per-evaluation digest consumer.  The sink
      runs synchronously at the end of every {!eval} — pruned,
      indexed, or fallback — on the evaluating thread; it must be
      cheap and must not call back into the planner (force
      [dg_estimate] instead). *)

  val explain_json : t -> Path_ast.path -> Xsm_obs.Json.t
  (** Structured explain: route ([index] / [fallback] / [pruned]),
      estimated and actual rows with the interval-containment flag and
      absolute error, per-step annotations, the plan's strategy
      decisions with both prices, and maintenance statistics. *)

  val eval : t -> ?context:N.node -> Path_ast.path -> N.node list
  (** Evaluate through the indexes when the path is in the supported
      fragment, through {!Eval.Make} otherwise.  [context] (default:
      the indexed root) only matters for fallback evaluation of
      relative paths. *)

  val eval_string :
    t -> ?context:N.node -> string -> (N.node list, string) result

  val eval_explained : t -> ?context:N.node -> Path_ast.path -> N.node list * string
  (** {!eval}, with the line {!explain} would print for the route this
      evaluation took — the one evaluation, where {!explain} after
      {!eval} would run an indexed route a second time. *)

  val explain : t -> Path_ast.path -> string
  (** ["index(...)"] with plan statistics, or ["fallback(reason)"]. *)

  val uses_index : t -> Path_ast.path -> bool
end

module Over_store : module type of Make (Navigator.Xdm) (Xsm_index.Path_index.Make (Navigator.Xdm))
module Over_storage : module type of Make (Navigator.Storage) (Storage_guide)
