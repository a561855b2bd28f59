(* E19: cost-based vs rule-based planning on an adversarial query mix.

   The rule-based policy always routes a value predicate to its value
   index.  That is the right call for a stable document, but a
   predicate whose relative path carries an inner predicate (like
   [key[@lang="en"]]) builds a {e non-structural} index — one the
   differential maintenance cannot repair, so every structural update
   drops it and the next probe rebuilds it from scratch over the whole
   extent.  The cost policy prices that rebuild (with the drop-history
   surcharge) against the residual per-owner filter and walks away.

   Four query classes over a [doc/rec*] corpus, each run once per
   policy on its own freshly-built fixture:

   - {b A churn+filter}: [//rec[@shard="s7"][key[@lang="en"]="v3"]/payload]
     with one insert+delete round between queries.  The [@shard] index
     is structural and maintained; the [key[@lang]] index is dropped
     every round.  Rule rebuilds it every round, cost keeps the probe
     on [@shard] and filters the few surviving owners residually —
     this is the class the cost model must win.
   - {b B repeated point}: [//rec[@shard="s7"]/payload] with no
     updates.  Both policies probe the same cached structural index;
     parity expected.
   - {b C positional}: [/doc/rec[last()-1]/payload].  Positional
     predicates route to the fallback evaluator under either policy;
     parity expected.
   - {b D low selectivity}: [//rec[n>=0]/payload] matches every
     record.  The probe returns the whole extent, yet it is still
     cheaper than navigating from every owner, so the cost policy must
     {e not} flee to the residual route; parity expected.

   With [--smoke] the corpus is small and the run asserts the policy
   bounds (used by CI): cost beats rule >=2x on class A, stays within
   noise of rule on B/C/D, and the churn is absorbed differentially
   (epochs stay at 1) with zero drops under cost. *)

module Store = Xsm_xdm.Store
module Convert = Xsm_xdm.Convert
module Tree = Xsm_xml.Tree
module Update = Xsm_schema.Update
module P = Xsm_xpath.Planner
module Pl = P.Over_store

let shards = 10
let keys = 7 (* coprime with [shards]: class A selects via both moduli *)

let build_doc ~records =
  let recs =
    List.init records (fun i ->
        Tree.element
          (Tree.elem "rec"
             ~attrs:[ Tree.attr "shard" (Printf.sprintf "s%d" (i mod shards)) ]
             ~children:
               [
                 Tree.element
                   (Tree.elem "key"
                      ~attrs:[ Tree.attr "lang" "en" ]
                      ~children:[ Tree.text (Printf.sprintf "v%d" (i mod keys)) ]);
                 Tree.element
                   (Tree.elem "key"
                      ~attrs:[ Tree.attr "lang" "de" ]
                      ~children:[ Tree.text (Printf.sprintf "w%d" (i mod keys)) ]);
                 Tree.element (Tree.elem "n" ~children:[ Tree.text (string_of_int (i mod 10)) ]);
                 Tree.element
                   (Tree.elem "payload" ~children:[ Tree.text (Printf.sprintf "p%d" i) ]);
               ]))
  in
  Tree.document (Tree.elem "doc" ~children:recs)

type fixture = {
  store : Store.t;
  planner : Pl.t;
  root : Store.node; (* the [doc] element, parent of every [rec] *)
}

let fixture ~records policy =
  let store = Store.create () in
  let dnode = Convert.load store (build_doc ~records) in
  let planner = Pl.create store dnode in
  Pl.set_policy planner policy;
  { store; planner; root = List.hd (Store.children store dnode) }

(* One structural churn round: link a subtree, query, then unlink it
   again.  The document returns to its start state, but both edits
   reach the planner as changes and hit every cached value index. *)
let churn_rec =
  Tree.elem "rec"
    ~attrs:[ Tree.attr "shard" "zz" ]
    ~children:
      [
        Tree.element
          (Tree.elem "key" ~attrs:[ Tree.attr "lang" "en" ] ~children:[ Tree.text "zz" ]);
        Tree.element (Tree.elem "payload" ~children:[ Tree.text "zz" ]);
      ]

let churn fx between =
  let apply op =
    match Update.apply fx.store op with
    | Ok a -> Pl.apply_changes fx.planner [ Update.change a ]
    | Error e -> failwith e
  in
  apply (Update.Insert_element { parent = fx.root; before = None; tree = churn_rec });
  between ();
  let last = List.rev (Store.children fx.store fx.root) |> List.hd in
  apply (Update.Delete last)

let query fx q ~expect =
  match Pl.eval_string fx.planner q with
  | Ok ns ->
    let n = List.length ns in
    if n <> expect then
      failwith (Printf.sprintf "E19: %s returned %d rows, expected %d" q n expect)
  | Error e -> failwith ("E19: " ^ e)

type sample = { cls : string; policy : string; ms : float; stats : P.maintenance_stats }

let policy_name = function P.Rule -> "rule" | P.Cost -> "cost"

(* Run [rounds] iterations of [step] against a fresh fixture, after one
   unmeasured warm-up query that builds whatever indexes the policy
   wants cached. *)
let measure ~records ~rounds ~cls policy warm step =
  let fx = fixture ~records policy in
  warm fx;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rounds do
    step fx
  done;
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  { cls; policy = policy_name policy; ms; stats = Pl.maintenance_stats fx.planner }

let run_classes ~records ~rounds =
  let count p = List.length (List.filter p (List.init records Fun.id)) in
  let q_a = {|//rec[@shard="s7"][key[@lang="en"]="v3"]/payload|} in
  let e_a = count (fun i -> i mod shards = 7 && i mod keys = 3) in
  let q_b = {|//rec[@shard="s7"]/payload|} in
  let e_b = count (fun i -> i mod shards = 7) in
  let q_c = "/doc/rec[last()-1]/payload" in
  let q_d = "//rec[n>=0]/payload" in
  let both cls warm step =
    List.map (fun policy -> measure ~records ~rounds ~cls policy warm step) [ P.Rule; P.Cost ]
  in
  [
    both "A churn+filter"
      (fun fx -> query fx q_a ~expect:e_a)
      (fun fx ->
        churn fx (fun () -> query fx q_a ~expect:e_a);
        query fx q_a ~expect:e_a);
    both "B point probe" (fun fx -> query fx q_b ~expect:e_b) (fun fx -> query fx q_b ~expect:e_b);
    both "C positional" (fun fx -> query fx q_c ~expect:1) (fun fx -> query fx q_c ~expect:1);
    both "D low select"
      (fun fx -> query fx q_d ~expect:records)
      (fun fx -> query fx q_d ~expect:records);
  ]

let print_pair pair =
  List.iter
    (fun s ->
      Printf.printf "%-16s %-6s %10.2f %8d %8d %9d\n" s.cls s.policy s.ms s.stats.P.epochs
        s.stats.P.applied s.stats.P.vi_drops)
    pair;
  match pair with
  | [ rule; cost ] ->
    Printf.printf "%-16s %-6s %9.2fx\n" "" "ratio" (rule.ms /. Float.max 1e-6 cost.ms)
  | _ -> ()

let run ~smoke () =
  let records = if smoke then 210 else 2100 in
  let rounds = if smoke then 60 else 200 in
  Printf.printf "E19: cost-based vs rule-based planning (%d records, %d rounds per class)\n\n"
    records rounds;
  Printf.printf "%-16s %-6s %10s %8s %8s %9s\n" "class" "policy" "ms" "epochs" "applied"
    "vi_drops";
  Printf.printf "%s\n" (String.make 62 '-');
  let pairs = run_classes ~records ~rounds in
  List.iter print_pair pairs;
  if smoke then begin
    let find cls policy =
      List.concat pairs |> List.find (fun s -> s.cls = cls && s.policy = policy)
    in
    let a_rule = find "A churn+filter" "rule" and a_cost = find "A churn+filter" "cost" in
    (* the headline: on the adversarial class, pricing the rebuild
       against the residual filter must pay off at least 2x *)
    if a_rule.ms < 2. *. a_cost.ms then
      failwith
        (Printf.sprintf "E19 smoke: cost %.2f ms not 2x under rule %.2f ms on the churn class"
           a_cost.ms a_rule.ms);
    (* rule keeps rebuilding the dropped index; cost never builds it *)
    if a_rule.stats.P.vi_drops < rounds / 2 then
      failwith
        (Printf.sprintf "E19 smoke: rule saw only %d drops over %d churn rounds"
           a_rule.stats.P.vi_drops rounds);
    if a_cost.stats.P.vi_drops <> 0 then
      failwith
        (Printf.sprintf "E19 smoke: cost policy dropped %d value indexes, expected 0"
           a_cost.stats.P.vi_drops);
    (* all that churn must be absorbed differentially, never by rebuild *)
    List.iter
      (fun s ->
        if s.stats.P.epochs <> 1 then
          failwith
            (Printf.sprintf "E19 smoke: %s/%s took %d index epochs, expected 1" s.cls s.policy
               s.stats.P.epochs))
      (List.concat pairs);
    (* on the parity classes the cost policy must stay within noise *)
    List.iter
      (fun cls ->
        let rule = find cls "rule" and cost = find cls "cost" in
        if cost.ms > (3. *. rule.ms) +. 2. then
          failwith
            (Printf.sprintf "E19 smoke: cost %.2f ms regressed rule %.2f ms on class %s" cost.ms
               rule.ms cls))
      [ "B point probe"; "C positional"; "D low select" ];
    print_endline "\nE19 smoke: cost policy bounds hold"
  end
