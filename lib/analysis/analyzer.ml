module Ast = Xsm_schema.Ast
module Schema_check = Xsm_schema.Schema_check
module Content_automaton = Xsm_schema.Content_automaton
module Compiled = Xsm_schema.Compiled
module Name = Xsm_xml.Name

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type finding = {
  severity : severity;
  pass : string;
  loc : Schema_check.location;
  message : string;
}

let pp_finding ppf f =
  Format.fprintf ppf "%s [%s] %a: %s" (severity_to_string f.severity) f.pass
    Schema_check.pp_location f.loc f.message

type report = {
  findings : finding list;
  tables : Compiled.t;
  cardinalities : (string * Cardinality.interval * bool) list;
  graph : Schema_graph.t option;
}

let significant r =
  List.filter (fun f -> f.severity = Error || f.severity = Warning) r.findings

(* ------------------------------------------------------------------ *)
(* UPA with witnesses, and determinization                             *)

let type_of_decl (d : Ast.element_decl) =
  match d.elem_type with
  | Ast.Type_name n -> Name.to_string n
  | Ast.Anonymous _ -> "(anonymous complex type)"
  | Ast.Anonymous_simple _ -> "(anonymous simple type)"

let upa_finding loc (c : Content_automaton.conflict) =
  let witness = String.concat " " (List.map Name.to_string c.witness) in
  {
    severity = Error;
    pass = "upa";
    loc;
    message =
      Printf.sprintf
        "Unique Particle Attribution violated: after the children \"%s\" the last \
         <%s> matches two particles (declared with type %s and with type %s)"
        witness
        (Name.to_string c.conflict_name)
        (type_of_decl c.first_decl) (type_of_decl c.second_decl);
  }

(* a witness for every content model that is not deterministic; the
   finding's location leaves out the nested groups on the way *)
let upa_pass compiled =
  List.filter_map
    (fun (loc, (m : Compiled.model)) ->
      match m.run with
      | Compiled.Nfa (a, _) ->
        Option.map
          (upa_finding (List.filter (fun seg -> seg <> Schema_check.In_group) loc))
          (Content_automaton.upa_conflict a)
      | Compiled.Table _ | Compiled.Bad _ -> None)
    (Compiled.content_models compiled)

(* ------------------------------------------------------------------ *)

let hygiene_pass s =
  let unreachable =
    List.map
      (fun n ->
        {
          severity = Warning;
          pass = "reachability";
          loc = [ Schema_check.In_type n ];
          message =
            "type definition is unreachable from the root element declaration";
        })
      (Hygiene.unreachable_types s)
  in
  let unsat =
    List.map
      (fun (loc, (e : Ast.element_decl)) ->
        let is_root = e == s.Ast.root in
        {
          severity = (if is_root then Error else Warning);
          pass = "satisfiability";
          loc;
          message =
            (if is_root then
               "the schema is unsatisfiable: every document would need infinitely \
                many nodes (required content recurses)"
             else
               "element declaration is unsatisfiable: no finite subtree validates \
                against it (required content recurses)");
        })
      (Hygiene.unsatisfiable_elements s)
  in
  unreachable @ unsat

let query_pass graph q =
  match graph with
  | None -> []
  | Some g ->
    let r = Query_static.analyze g q in
    let warnings =
      List.map
        (fun m -> { severity = Warning; pass = "query"; loc = []; message = m })
        r.Query_static.warnings
    in
    let verdict =
      match r.Query_static.verdict with
      | Query_static.Empty reason ->
        [
          {
            severity = Warning;
            pass = "query";
            loc = [];
            message = Printf.sprintf "statically empty: %s" reason;
          };
        ]
      | Query_static.Maybe -> []
    in
    verdict @ warnings

let analyze ?query (s : Ast.schema) =
  let compiled = Compiled.make s in
  let errors = Compiled.errors compiled in
  (* drop the bare UPA lines: the upa pass re-reports them with a
     concrete witness *)
  let check_findings =
    List.filter_map
      (fun (e : Schema_check.error) ->
        if e.message = "content model violates Unique Particle Attribution" then None
        else Some { severity = Error; pass = "schema-check"; loc = e.loc; message = e.message })
      errors
  in
  let upa_findings = upa_pass compiled in
  let hygiene = hygiene_pass s in
  let graph = if errors = [] then Some (Schema_graph.build compiled) else None in
  let cardinalities =
    match graph with Some g -> Schema_graph.element_paths g | None -> []
  in
  let query_findings =
    match query with Some q -> query_pass graph q | None -> []
  in
  {
    findings = check_findings @ upa_findings @ hygiene @ query_findings;
    tables = compiled;
    cardinalities;
    graph;
  }
