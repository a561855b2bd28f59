(* The static analyzer (lib/analysis): UPA witnesses, determinized
   tables, reachability, satisfiability, cardinality intervals, static
   query analysis and planner pruning. *)

module Ast = Xsm_schema.Ast
module CA = Xsm_schema.Content_automaton
module Name = Xsm_xml.Name
module Tree = Xsm_xml.Tree
module A = Xsm_analysis.Analyzer
module Cardinality = Xsm_analysis.Cardinality
module Hygiene = Xsm_analysis.Hygiene
module QS = Xsm_analysis.Query_static
module Compiled = Xsm_schema.Compiled

let check = Alcotest.check
let parse = Xsm_xpath.Path_parser.parse_exn
let graph s = Xsm_analysis.Schema_graph.build (Compiled.make s)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let contains sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---------------- fixtures ---------------- *)

(* the library schema of samples/library.xsd, built directly *)
let library_schema =
  let open Ast in
  let issue =
    complex
      (Some
         (sequence
            [
              elem_p (element "publisher" (named_type "xs:string"));
              elem_p (element "year" (named_type "xs:gYear"));
            ]))
  in
  let book =
    complex
      (Some
         (sequence
            [
              elem_p (element "title" (named_type "xs:string"));
              elem_p
                (element "author" ~repetition:(repeat 1 None) (named_type "xs:string"));
              elem_p (element "issue" ~repetition:optional (named_type "Issue"));
            ]))
  in
  schema
    ~complex_types:[ ("Issue", issue); ("Book", book) ]
    (element "library"
       (Anonymous
          (complex
             (Some (sequence [ elem_p (element "book" ~repetition:many (named_type "Book")) ])))))

let library_doc =
  let e name children = Tree.Element (Tree.elem name ~children) in
  let t s = Tree.Text s in
  Tree.document
    (Tree.elem "library"
       ~children:
         [
           e "book"
             [
               e "title" [ t "Foundations" ];
               e "author" [ t "Abiteboul" ];
               e "issue" [ e "publisher" [ t "AW" ]; e "year" [ t "1995" ] ];
             ];
           e "book" [ e "title" [ t "Sedna" ]; e "author" [ t "Novak" ] ];
         ])

(* sequence (header, (note?), (note)) — UPA-ambiguous after "header" *)
let ambiguous_schema =
  let open Ast in
  schema
    (element "memo"
       (Anonymous
          (complex
             (Some
                (sequence
                   [
                     elem_p (element "header" (named_type "xs:string"));
                     group_p
                       (sequence
                          [ elem_p (element "note" ~repetition:optional (named_type "xs:string")) ]);
                     group_p (sequence [ elem_p (element "note" (named_type "xs:token")) ]);
                   ])))))

(* ---------------- UPA ---------------- *)

let upa_witness () =
  let report = A.analyze ambiguous_schema in
  match List.filter (fun (f : A.finding) -> f.pass = "upa") report.A.findings with
  | [ f ] ->
    check Alcotest.bool "severity" true (f.A.severity = A.Error);
    check Alcotest.bool "mentions witness" true (contains "\"header note\"" f.A.message)
  | fs -> Alcotest.failf "expected one upa finding, got %d" (List.length fs)

let upa_conflict_shape () =
  let g =
    match ambiguous_schema.Ast.root.Ast.elem_type with
    | Ast.Anonymous (Ast.Complex_content { content = Some g; _ }) -> g
    | _ -> assert false
  in
  match CA.make g with
  | Error e -> Alcotest.fail e
  | Ok a -> (
    match CA.upa_conflict a with
    | None -> Alcotest.fail "expected a conflict"
    | Some c ->
      check Alcotest.string "conflicting name" "note" (Name.to_string c.CA.conflict_name);
      check
        Alcotest.(list string)
        "shortest witness" [ "header"; "note" ]
        (List.map Name.to_string c.CA.witness))

let upa_clean_library () =
  let report = A.analyze library_schema in
  check Alcotest.(list string) "no findings" []
    (List.map (fun (f : A.finding) -> f.A.message) (A.significant report));
  check Alcotest.int "content models determinized" 3 (Compiled.determinized report.A.tables)

(* ---------------- reachability / satisfiability ---------------- *)

let orphan_schema =
  let open Ast in
  schema
    ~complex_types:
      [
        ( "Orphan",
          complex (Some (sequence [ elem_p (element "x" (named_type "xs:string")) ])) );
      ]
    (element "root" (named_type "xs:string"))

let reachability () =
  check
    Alcotest.(list string)
    "unreachable" [ "Orphan" ]
    (List.map Name.to_string (Hygiene.unreachable_types orphan_schema));
  let report = A.analyze orphan_schema in
  check Alcotest.bool "warning emitted" true
    (List.exists (fun (f : A.finding) -> f.A.pass = "reachability") report.A.findings)

let unsat_schema =
  (* T requires an x of type T: no finite instance *)
  let open Ast in
  schema
    ~complex_types:
      [ ("T", complex (Some (sequence [ elem_p (element "x" (named_type "T")) ]))) ]
    (element "x" (named_type "T"))

let sat_schema =
  (* the recursion is optional: satisfiable *)
  let open Ast in
  schema
    ~complex_types:
      [
        ( "T",
          complex
            (Some (sequence [ elem_p (element "x" ~repetition:optional (named_type "T")) ]))
        );
      ]
    (element "x" (named_type "T"))

let satisfiability () =
  check Alcotest.(option int) "unsat min" None (Hygiene.min_content unsat_schema unsat_schema.Ast.root);
  check Alcotest.(option int) "sat min" (Some 1) (Hygiene.min_content sat_schema sat_schema.Ast.root);
  let report = A.analyze unsat_schema in
  check Alcotest.bool "root unsat is an error" true
    (List.exists
       (fun (f : A.finding) -> f.A.pass = "satisfiability" && f.A.severity = A.Error)
       report.A.findings);
  check Alcotest.(list string) "sat schema is clean" []
    (List.map
       (fun (f : A.finding) -> f.A.message)
       (A.significant (A.analyze sat_schema)))

(* ---------------- cardinalities ---------------- *)

let cardinalities () =
  let report = A.analyze library_schema in
  let ivs =
    List.map
      (fun (p, iv, r) -> (p, Cardinality.to_string iv ^ if r then "R" else ""))
      report.A.cardinalities
  in
  check
    Alcotest.(list (pair string string))
    "paths"
    [
      ("/library", "[1,1]");
      ("/library/book", "[0,*]");
      ("/library/book/title", "[1,1]");
      ("/library/book/author", "[1,*]");
      ("/library/book/issue", "[0,1]");
      ("/library/book/issue/publisher", "[1,1]");
      ("/library/book/issue/year", "[1,1]");
    ]
    ivs

let choice_intervals () =
  (* (a | (b, b)){0,2}: a in [0,2], b in [0,4] *)
  let open Ast in
  let g =
    choice
      ~repetition:(repeat 0 (Some 2))
      [
        elem_p (element "a" (named_type "xs:string"));
        group_p
          (sequence
             [
               elem_p (element "b" (named_type "xs:string"));
               elem_p (element "b2" (named_type "xs:string"));
             ]);
      ]
  in
  (* avoid duplicate names within a group: use b and b2 *)
  let ivs =
    List.map (fun (n, iv) -> (Name.to_string n, Cardinality.to_string iv)) (Cardinality.of_group g)
  in
  check
    Alcotest.(list (pair string string))
    "choice scaling"
    [ ("a", "[0,2]"); ("b", "[0,2]"); ("b2", "[0,2]") ]
    ivs

(* ---------------- static query analysis ---------------- *)

let qs_verdict q =
  match (QS.analyze (graph library_schema) (parse q)).QS.verdict with
  | QS.Empty _ -> "empty"
  | QS.Maybe -> "maybe"

let query_static () =
  check Alcotest.string "live path" "maybe" (qs_verdict "/library/book/title");
  check Alcotest.string "missing element" "empty" (qs_verdict "/library/magazine");
  check Alcotest.string "missing nested" "empty" (qs_verdict "/library/magazine/title");
  check Alcotest.string "descendant live" "maybe" (qs_verdict "//year");
  check Alcotest.string "descendant dead" "empty" (qs_verdict "//isbn");
  check Alcotest.string "attribute dead" "empty" (qs_verdict "/library/@id");
  check Alcotest.string "wildcard live" "maybe" (qs_verdict "/library/*");
  check Alcotest.string "pred emptied" "empty" (qs_verdict "/library/book[frontmatter]")

let never_equal () =
  let r = QS.analyze (graph library_schema) (parse "//book[issue/year='not-a-year']") in
  check Alcotest.bool "verdict empty" true (match r.QS.verdict with QS.Empty _ -> true | _ -> false);
  check Alcotest.int "one warning" 1 (List.length r.QS.warnings);
  (* a literal in the lexical space stays possible *)
  let ok = QS.analyze (graph library_schema) (parse "//book[issue/year='1995']") in
  check Alcotest.bool "valid literal keeps Maybe" true (ok.QS.verdict = QS.Maybe)

let date_schema =
  let open Ast in
  schema
    (element "log"
       (Anonymous
          (complex
             (Some
                (sequence
                   [ elem_p (element "when" ~repetition:many (named_type "xs:date")) ])))))

let never_comparable () =
  (* a date's key family is text; the literal 5 is a number: the
     comparison can never hold *)
  let r = QS.analyze (graph date_schema) (parse "/log[when < 5]") in
  check Alcotest.bool "verdict empty" true (match r.QS.verdict with QS.Empty _ -> true | _ -> false);
  check Alcotest.int "one warning" 1 (List.length r.QS.warnings);
  (* date vs text literal: same family, could hold *)
  let ok = QS.analyze (graph date_schema) (parse "/log[when < '2002-01-01']") in
  check Alcotest.bool "text literal keeps Maybe" true (ok.QS.verdict = QS.Maybe)

(* ---------------- always-true folding ---------------- *)

module G = Xsm_analysis.Schema_graph
module E = Xsm_analysis.Estimator
module Plan = Xsm_xpath.Plan

let shop_schema =
  let open Ast in
  let dt = Xsm_datatypes.Decimal.of_int in
  let price_ty =
    match
      Xsm_datatypes.Simple_type.restrict Xsm_datatypes.Simple_type.integer
        [
          Xsm_datatypes.Facet.Min_inclusive (Xsm_datatypes.Value.Decimal (dt 1));
          Xsm_datatypes.Facet.Max_inclusive (Xsm_datatypes.Value.Decimal (dt 100));
        ]
    with
    | Ok t -> t
    | Error e -> failwith e
  in
  let item =
    complex
      (Some
         (sequence
            [
              elem_p (element "price" (Anonymous_simple price_ty));
              elem_p (element "stock" (named_type "xs:nonNegativeInteger"));
            ]))
  in
  schema
    (element "shop"
       (Anonymous
          (complex
             (Some
                (sequence
                   [ elem_p (element "item" ~repetition:many (Anonymous item)) ])))))

let folding () =
  let lib = graph library_schema in
  let shop = graph shop_schema in
  let f g q = Xsm_xpath.Path_ast.to_string (QS.fold g (parse q)) in
  let same g q = check Alcotest.string q (Xsm_xpath.Path_ast.to_string (parse q)) (f g q) in
  (* mandatory existence folds; optional stays *)
  check Alcotest.string "exists folds" "/library/book/title" (f lib "/library/book[author]/title");
  check Alcotest.string "exists folds under //" "//book/title" (f lib "//book[title]/title");
  same lib "/library/book[issue]/title";
  same lib "/library/book[issue/publisher]/title";
  check Alcotest.string "only the provable predicate folds"
    "/library/book[issue/publisher]"
    (f lib "/library/book[issue/publisher][author]");
  (* value predicates: equality never folds, forced comparisons do *)
  same lib "/library/book[author='Novak']";
  check Alcotest.string "forced by facets" "/shop/item" (f shop "/shop/item[price>=1]");
  check Alcotest.string "forced upper bound" "/shop/item" (f shop "/shop/item[price<=100]");
  check Alcotest.string "forced by builtin range" "/shop/item" (f shop "/shop/item[stock>=0]");
  same shop "/shop/item[price>=2]";
  same shop "/shop/item[price>1]";
  same shop "/shop/item[stock>0]";
  (* trivial positional tests *)
  check Alcotest.string "position()>=1" "/library/book" (f lib "/library/book[position()>=1]");
  same lib "/library/book[position()<=2]";
  (* relative paths pass through untouched *)
  same lib "book[author]/title"

let fold_agrees () =
  let store, dnode =
    match Xsm_schema.Validator.validate_document library_doc library_schema with
    | Ok sd -> sd
    | Error _ -> Alcotest.fail "fixture invalid"
  in
  let g = graph library_schema in
  List.iter
    (fun q ->
      let p = parse q in
      let fp = QS.fold g p in
      let before = Xsm_xpath.Eval.Over_store.eval store dnode p in
      let after = Xsm_xpath.Eval.Over_store.eval store dnode fp in
      check Alcotest.int (q ^ ": same cardinality") (List.length before)
        (List.length after);
      List.iter2
        (fun a b ->
          check Alcotest.bool (q ^ ": same nodes") true (Xsm_xdm.Store.equal_node a b))
        before after)
    [
      "/library/book[author]/title";
      "/library/book[title][author='Novak']/title";
      "//book[author][1]/title";
      "/library/book[position()>=1]/author";
    ]

(* ---------------- schema-side estimator ---------------- *)

let estimator_basics () =
  let g = graph library_schema in
  let store, dnode =
    match Xsm_schema.Validator.validate_document library_doc library_schema with
    | Ok sd -> sd
    | Error _ -> Alcotest.fail "fixture invalid"
  in
  let est q = (E.estimate g (parse q)).Plan.e_rows in
  let interval q = Plan.to_string { (est q) with Plan.expect = 0. } in
  check Alcotest.string "root element" "[1,1]~0.0" (interval "/library");
  check Alcotest.string "unbounded" "[0,*]~0.0" (interval "/library/book");
  check Alcotest.string "optional chain" "[0,*]~0.0" (interval "/library/book/issue/year");
  (* the interval contains the actual count on a valid instance *)
  List.iter
    (fun q ->
      let actual =
        List.length (Xsm_xpath.Eval.Over_store.eval store dnode (parse q))
      in
      check Alcotest.bool
        (Printf.sprintf "%s: %s contains %d" q (Plan.to_string (est q)) actual)
        true
        (Plan.contains (est q) actual))
    [
      "/library";
      "/library/book";
      "/library/book/title";
      "//author";
      "//book[issue]/title";
      "//book[author='Novak']/title";
      "/library/book[1]/author[position()<=2]";
      "//book[issue/year<'2000']";
    ];
  (* out-of-fragment shapes degrade to unknown but stay sound *)
  let up = E.estimate g (parse "/library/book/..") in
  check Alcotest.bool "unsupported flagged" false up.Plan.e_supported;
  (* report carries the analyze --cost fields *)
  let module J = Xsm_obs.Json in
  let r = E.report g (parse "//book/title") in
  List.iter
    (fun k -> check Alcotest.bool k true (J.member k r <> None))
    [ "query"; "supported"; "rows"; "eval_cost"; "estimate" ];
  match J.member "eval_cost" r with
  | Some (J.Num c) -> check Alcotest.bool "positive cost" true (c > 0.)
  | _ -> Alcotest.fail "eval_cost not a number"

(* ---------------- planner pruning ---------------- *)

let pruning_agrees () =
  let store, dnode =
    match Xsm_schema.Validator.validate_document library_doc library_schema with
    | Ok sd -> sd
    | Error es ->
      Alcotest.failf "fixture invalid: %s"
        (String.concat "; " (List.map Xsm_schema.Validator.error_to_string es))
  in
  let module Pl = Xsm_xpath.Planner.Over_store in
  let planner = Pl.create store dnode in
  Pl.set_pruner planner (QS.pruner (graph library_schema));
  let queries =
    [
      "/library/book/title";
      "/library/magazine";
      "/library/magazine/title";
      "//year";
      "//isbn";
      "/library/book[issue/year='1995']/title";
      "/library/book[issue/year='not-a-year']/title";
      "//book[author='Novak']/title";
      "/library/book[frontmatter]";
    ]
  in
  List.iter
    (fun q ->
      let p = parse q in
      let via_planner = Pl.eval planner p in
      let via_eval = Xsm_xpath.Eval.Over_store.eval store dnode p in
      check Alcotest.int (q ^ ": same cardinality") (List.length via_eval)
        (List.length via_planner);
      List.iter2
        (fun a b ->
          check Alcotest.bool (q ^ ": same nodes") true (Xsm_xdm.Store.equal_node a b))
        via_eval via_planner)
    queries;
  check Alcotest.bool "pruned at least the three empty queries" true
    (Pl.pruned_count planner >= 3);
  check Alcotest.bool "explain reports pruning" true
    (has_prefix "pruned(" (Pl.explain planner (parse "//isbn")))

(* ---------------- validator handoff ---------------- *)

let validator_handoff () =
  let report = A.analyze library_schema in
  let direct = Xsm_schema.Validator.validate_document library_doc library_schema in
  let seeded =
    Xsm_schema.Validator.validate_document ~automata:report.A.tables library_doc
      library_schema
  in
  check Alcotest.bool "both valid" true (Result.is_ok direct && Result.is_ok seeded)

(* ---------------- structured locations ---------------- *)

let locations () =
  let open Ast in
  let bad =
    schema
      ~complex_types:
        [
          ( "Book",
            complex
              ~attributes:[ attribute "isbn" "xs:noSuchType" ]
              (Some (sequence [ elem_p (element "title" (named_type "xs:string")) ])) );
        ]
      (element "library"
         (Anonymous
            (complex (Some (sequence [ elem_p (element "book" (named_type "Book")) ])))))
  in
  match Xsm_schema.Schema_check.check bad with
  | Ok () -> Alcotest.fail "expected an error"
  | Error (e :: _) ->
    check Alcotest.string "location path" "Book/@isbn"
      (Xsm_schema.Schema_check.location_to_string e.Xsm_schema.Schema_check.loc)
  | Error [] -> Alcotest.fail "empty error list"

(* ---------------- qcheck: table = backtracking validator ---------------- *)

module Q = QCheck

let seed_gen = Q.make ~print:string_of_int Q.Gen.(int_bound 1_000_000)

let to_alco ?(count = 200) name law =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name seed_gen law)

let gen_group r =
  let int = Xsm_schema.Generator.int in
  let letters = [ "a"; "b"; "c" ] in
  let rec group depth =
    let n = 1 + int r 3 in
    let particles =
      List.init n (fun _ ->
          if depth > 0 && int r 3 = 0 then Ast.group_p (group (depth - 1))
          else
            Ast.elem_p
              (Ast.element ~repetition:(rep ())
                 (List.nth letters (int r 3))
                 (Ast.named_type "xs:string")))
    in
    if int r 2 = 0 then Ast.sequence ~repetition:(rep ()) particles
    else Ast.choice ~repetition:(rep ()) particles
  and rep () =
    match int r 4 with
    | 0 -> Ast.once
    | 1 -> Ast.optional
    | 2 -> Ast.many
    | _ -> Ast.repeat (int r 2) (Some (1 + int r 2))
  in
  group 2

(* On deterministic generated content models, the compiled transition
   table accepts exactly the language of the backtracking validator —
   and attributes each child to an element declaration of its name. *)
let table_backtrack_law seed =
  let rng = Xsm_schema.Generator.rng seed in
  let g = gen_group rng in
  match Xsm_schema.Content_automaton.make g with
  | Error _ -> true
  | Ok a -> (
    match CA.compile a with
    | None -> CA.upa_conflict a <> None (* not deterministic: must have a witness *)
    | Some table ->
      CA.upa_conflict a = None
      &&
      let word =
        List.init
          (Xsm_schema.Generator.int rng 7)
          (fun _ ->
            Name.local (List.nth [ "a"; "b"; "c" ] (Xsm_schema.Generator.int rng 3)))
      in
      let bt = Xsm_schema.Backtrack.matches g word in
      (match CA.table_run table word with
      | None -> not bt
      | Some decls ->
        bt
        && List.length decls = List.length word
        && List.for_all2 (fun (d : Ast.element_decl) n -> Name.equal d.Ast.elem_name n) decls word))

(* Estimator soundness: on a random schema and a random valid
   instance, the row interval of every derived query — from both the
   schema provider and the planner's instance provider — contains the
   evaluator's actual cardinality. *)
let containment_law seed =
  let rng = Xsm_schema.Generator.rng seed in
  let s = Xsm_schema.Generator.random_schema rng in
  match Xsm_schema.Schema_check.check s with
  | Error _ -> true
  | Ok () -> (
    let doc = Xsm_schema.Generator.instance rng s in
    match Xsm_schema.Validator.validate_document doc s with
    | Error _ -> true
    | Ok (store, dnode) ->
      let g = graph s in
      let module Pl = Xsm_xpath.Planner.Over_store in
      let planner = Pl.create store dnode in
      let queries =
        List.concat_map
          (fun (p, _, _) ->
            let leaf =
              match String.rindex_opt p '/' with
              | Some i -> String.sub p (i + 1) (String.length p - i - 1)
              | None -> p
            in
            [ p; p ^ "[1]"; "//" ^ leaf; "//" ^ leaf ^ "[position()<=2]" ])
          (G.element_paths g)
      in
      List.for_all
        (fun q ->
          match Xsm_xpath.Path_parser.parse q with
          | Error _ -> true
          | Ok p ->
            let actual =
              List.length (Xsm_xpath.Eval.Over_store.eval store dnode p)
            in
            let schema_est = (E.estimate g p).Plan.e_rows in
            let planner_est = (Pl.estimate planner p).Plan.e_rows in
            Plan.contains schema_est actual && Plan.contains planner_est actual)
        queries)

(* a UPA witness is a real ambiguity certificate: the witness word's
   proper prefix is a viable prefix of the language *)
let witness_viable_law seed =
  let rng = Xsm_schema.Generator.rng seed in
  let g = gen_group rng in
  match Xsm_schema.Content_automaton.make g with
  | Error _ -> true
  | Ok a -> (
    match CA.upa_conflict a with
    | None -> true
    | Some c ->
      Name.equal c.CA.conflict_name (List.nth c.CA.witness (List.length c.CA.witness - 1))
      && Name.equal c.CA.first_decl.Ast.elem_name c.CA.conflict_name
      && Name.equal c.CA.second_decl.Ast.elem_name c.CA.conflict_name)

let suite =
  [
    ( "analysis",
      [
        Alcotest.test_case "upa witness" `Quick upa_witness;
        Alcotest.test_case "upa conflict shape" `Quick upa_conflict_shape;
        Alcotest.test_case "upa clean library" `Quick upa_clean_library;
        Alcotest.test_case "reachability" `Quick reachability;
        Alcotest.test_case "satisfiability" `Quick satisfiability;
        Alcotest.test_case "cardinalities" `Quick cardinalities;
        Alcotest.test_case "choice intervals" `Quick choice_intervals;
        Alcotest.test_case "query static verdicts" `Quick query_static;
        Alcotest.test_case "never-equal literal" `Quick never_equal;
        Alcotest.test_case "never-comparable families" `Quick never_comparable;
        Alcotest.test_case "always-true folding" `Quick folding;
        Alcotest.test_case "folding agrees with Eval" `Quick fold_agrees;
        Alcotest.test_case "estimator basics" `Quick estimator_basics;
        Alcotest.test_case "planner pruning agrees with Eval" `Quick pruning_agrees;
        Alcotest.test_case "validator handoff" `Quick validator_handoff;
        Alcotest.test_case "structured locations" `Quick locations;
        to_alco "determinized table = backtracking validator" table_backtrack_law;
        to_alco ~count:60 "estimate interval contains actual count" containment_law;
        to_alco "upa witness certificate shape" witness_viable_law;
      ] );
  ]
