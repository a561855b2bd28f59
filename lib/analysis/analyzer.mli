(** The static-analysis driver behind [xsm analyze].

    Runs, in order: the structural well-formedness check
    ([Schema_check]), Unique-Particle-Attribution analysis with
    shortest witness words ({!Xsm_schema.Content_automaton.upa_conflict}),
    reachability of named type definitions, satisfiability of content
    models ({!Hygiene}), per-path cardinality intervals
    ({!Cardinality} over the {!Schema_graph}), and — when a query is
    supplied — static query analysis ({!Query_static}).

    Every pass reads one {!Xsm_schema.Compiled} schema, built once
    here: its diagnostics are the well-formedness findings, its
    non-deterministic content models carry the automata the witnesses
    are searched in, and the {!Schema_graph} is built from it.  It is
    handed back in {!report.tables}; feeding it to
    [Validator.validate ~automata] — or to the streaming
    [Xsm_stream.Stream_validator.run ~automata], which drives the same
    core one event at a time — validates instances of an analyzed
    schema without compiling anything again. *)

module Ast = Xsm_schema.Ast
module Schema_check = Xsm_schema.Schema_check
module Compiled = Xsm_schema.Compiled

type severity = Error | Warning | Info

type finding = {
  severity : severity;
  pass : string;  (** [schema-check], [upa], [reachability], [satisfiability], [query] *)
  loc : Schema_check.location;
  message : string;
}

val pp_finding : Format.formatter -> finding -> unit
(** [severity [pass] location: message] — the uniform diagnostic line
    shared by [xsm analyze] and [xsm validate]. *)

type report = {
  findings : finding list;
  tables : Compiled.t;
      (** the compiled schema, for [Validator.validate ?automata] *)
  cardinalities : (string * Cardinality.interval * bool) list;
      (** element path, occurrences per parent instance, recursion cut *)
  graph : Schema_graph.t option;  (** absent when [Schema_check] failed *)
}

val analyze : ?query:Xsm_xpath.Path_ast.path -> Ast.schema -> report

val significant : report -> finding list
(** Errors and warnings — the findings that make [xsm analyze] exit
    non-zero. *)
