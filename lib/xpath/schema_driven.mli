(** Descriptive-schema-driven query evaluation — the Sedna access
    path of §9.1/§9.2.

    For a structural path (child and descendant steps, name or
    [text()] tests, no predicates), the query is first evaluated over
    the {e descriptive schema} — a tree usually orders of magnitude
    smaller than the document — selecting the matching schema nodes.
    Because every document path has exactly one schema path and vice
    versa, every descriptor stored under a matching schema node is a
    result: the answer is read off the schema nodes' block lists with
    no document-tree traversal at all.  Bench E8 compares this against
    the navigational evaluator. *)

val supported : Path_ast.path -> bool
(** Absolute, predicate-free, child/descendant steps with
    name/wildcard/text tests. *)

val eval :
  Xsm_storage.Block_storage.t ->
  Path_ast.path ->
  (Xsm_storage.Block_storage.desc list, string) result
(** Result descriptors in document order.  [Error] when the path shape
    is not {!supported}. *)

val eval_string :
  Xsm_storage.Block_storage.t ->
  string ->
  (Xsm_storage.Block_storage.desc list, string) result

