(** Static analysis of XPath queries against a schema.

    A query plan is evaluated symbolically over the
    {!Schema_graph} — sets of graph nodes instead of sets of instance
    nodes.  Because the graph over-approximates every schema-valid
    document, an empty symbolic result proves the query returns
    nothing on any valid instance; that verdict is what the planner's
    pruning hook consumes.  Everything outside the analysable fragment
    (sibling-order axes, positional predicates beyond [[0]], paths the
    graph cannot follow) degrades to [Maybe] — the analysis never
    claims emptiness it cannot prove.

    Value predicates are checked against the §4 value spaces: an
    equality whose literal is not in the lexical space of any
    possible target type can never hold on a valid document (the
    validator accepted the raw string value, so the two strings cannot
    be equal), and an order comparison whose literal sits in the
    opposite {!Xsm_index.Value_index.Key} family (number vs. text) from
    every possible target can never hold either.  The family
    classification is conservative enough to be sound for both typed
    stores (canonical forms) and untyped backends (raw lexical
    forms). *)

module Path_ast = Xsm_xpath.Path_ast

type verdict =
  | Empty of string  (** provably empty on every schema-valid document *)
  | Maybe

type result = { verdict : verdict; warnings : string list }
(** [warnings] flags never-satisfiable value comparisons found along
    the way, whether or not they empty the whole query. *)

val analyze : Schema_graph.t -> Path_ast.path -> result

val pruner : Schema_graph.t -> Path_ast.path -> string option
(** The planner's pruning hook: [Some reason] exactly when the verdict
    is {!Empty}.  Build the graph once and hand it to both hooks,
    {!pruner} and {!fold}.  Soundness assumes the schema passed
    [Schema_check] and the queried instance is valid against it. *)

val fold : Schema_graph.t -> Path_ast.path -> Path_ast.path
(** Drop predicates provably true on every schema-valid document, so
    the planner never prices or executes them: order comparisons
    forced by the operand type's numeric interval (built-in integer
    bounds tightened by min/max facets, or an enumeration whose values
    all satisfy the comparison) on a target a chain of
    minOccurs ≥ 1 child steps guarantees to exist, existence
    predicates over such chains, and trivially-true positional tests
    ([position()>=1]).  Relative paths (context unknown) and paths
    using axes outside the analysable fragment are returned
    unchanged.  This is the planner's rewriting hook; its soundness
    assumes what {!pruner}'s does. *)
