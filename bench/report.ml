(* The experiment harness: regenerates the E1-E14 tables recorded in
   EXPERIMENTS.md.  The paper itself is a formal-model paper with
   worked examples rather than numbered evaluation figures; these
   experiments measure the system claims it (and the Sedna reports it
   cites) make.  See DESIGN.md §5 for the index. *)

module Store = Xsm_xdm.Store
module Convert = Xsm_xdm.Convert
module Order = Xsm_xdm.Order
module Name = Xsm_xml.Name
module Label = Xsm_numbering.Sedna_label
module B = Xsm_storage.Block_storage
module DS = Xsm_storage.Descriptive_schema

(* Wall-clock timing (Obs.Clock) with repetition.  [Sys.time] is CPU
   time: on fsync-bound work (E13's per-record WAL sync) it reports
   the microseconds spent submitting the write and misses the
   milliseconds the disk spent syncing it.  CPU time stays available
   via {!Xsm_obs.Clock.cpu_ns} where pure-compute attribution is
   wanted. *)
let time_once f = Xsm_obs.Clock.seconds f

let now_s () = Int64.to_float (Xsm_obs.Clock.now_ns ()) /. 1e9

let time ?(min_time = 0.05) f =
  (* repeat until the total exceeds min_time, report seconds/call *)
  let rec go reps =
    let t = time_once (fun () -> for _ = 1 to reps do f () done) in
    if t >= min_time then t /. float_of_int reps else go (reps * 4)
  in
  go 1

let ns t = t *. 1e9
let header title = Printf.printf "\n=== %s ===\n" title
let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)

let e1_validation_scaling () =
  header "E1  Validation cost is linear in document size (§6.2)";
  row "%-10s %-10s %-14s %-12s\n" "books" "nodes" "validate(ms)" "ns/node";
  List.iter
    (fun books ->
      let doc = Xsm_schema.Samples.bookstore_document ~books () in
      let nodes = Xsm_xml.Tree.node_count doc.Xsm_xml.Tree.root + 1 in
      let t =
        time (fun () ->
            match Xsm_schema.Validator.validate_document doc Xsm_schema.Samples.example7_schema with
            | Ok _ -> ()
            | Error _ -> failwith "E1: unexpected invalid document")
      in
      row "%-10d %-10d %-14.3f %-12.1f\n" books nodes (t *. 1e3) (ns t /. float_of_int nodes))
    [ 10; 100; 1000; 5000 ]

let e2_automaton_vs_backtracking () =
  header "E2  Glushkov automaton vs naive backtracking (content models)";
  (* adversarial model: (a?){n} a{n} against the word a^n *)
  row "%-6s %-16s %-16s %-12s %-14s\n" "n" "automaton(us)" "backtrack(us)" "speedup" "bt steps";
  List.iter
    (fun n ->
      let optional_a =
        List.init n (fun _ ->
            Xsm_schema.Ast.elem_p
              (Xsm_schema.Ast.element ~repetition:Xsm_schema.Ast.optional "a"
                 (Xsm_schema.Ast.named_type "xs:string")))
      in
      let mandatory_a =
        List.init n (fun _ ->
            Xsm_schema.Ast.elem_p (Xsm_schema.Ast.element "a" (Xsm_schema.Ast.named_type "xs:string")))
      in
      let g = Xsm_schema.Ast.sequence (optional_a @ mandatory_a) in
      let word = List.init n (fun _ -> Name.local "a") in
      let a =
        match Xsm_schema.Content_automaton.make g with
        | Ok a -> a
        | Error e -> failwith e
      in
      assert (Xsm_schema.Content_automaton.matches a word);
      let t_auto = time (fun () -> ignore (Xsm_schema.Content_automaton.matches a word)) in
      let t_bt = time (fun () -> ignore (Xsm_schema.Backtrack.matches g word)) in
      let _, steps = Xsm_schema.Backtrack.matches_counting g word in
      row "%-6d %-16.2f %-16.2f %-12.1f %-14d\n" n (t_auto *. 1e6) (t_bt *. 1e6)
        (t_bt /. t_auto) steps)
    [ 4; 8; 12; 16; 18 ]

let e3_roundtrip_theorem () =
  header "E3  Theorem §8: g(f(X)) =_c X over random schemas";
  row "%-8s %-10s %-10s %-12s %-12s %-10s\n" "schemas" "docs" "holds" "f(ms/doc)" "g(ms/doc)" "eq(ms)";
  let rng = Xsm_schema.Generator.rng 4242 in
  let n_schemas = 20 and docs_per = 10 in
  let holds = ref 0 and total = ref 0 in
  let tf = ref 0.0 and tg = ref 0.0 and te = ref 0.0 in
  for _ = 1 to n_schemas do
    let schema = Xsm_schema.Generator.random_schema rng in
    for _ = 1 to docs_per do
      incr total;
      let doc = Xsm_schema.Generator.instance rng schema in
      let t0 = now_s () in
      match Xsm_schema.Roundtrip.f doc schema with
      | Error _ -> ()
      | Ok (store, dnode) ->
        let t1 = now_s () in
        let back = Xsm_schema.Roundtrip.g store dnode in
        let t2 = now_s () in
        let eq = Xsm_xml.Tree.equal_content back doc in
        let t3 = now_s () in
        tf := !tf +. (t1 -. t0);
        tg := !tg +. (t2 -. t1);
        te := !te +. (t3 -. t2);
        if eq then incr holds
    done
  done;
  let per x = x /. float_of_int !total *. 1e3 in
  row "%-8d %-10d %-12s %-12.3f %-12.3f %-10.3f\n" n_schemas !total
    (Printf.sprintf "%d/%d" !holds !total)
    (per !tf) (per !tg) (per !te)

let load_library books =
  let store = Store.create () in
  let doc = Xsm_schema.Samples.library_document ~books ~papers:(books / 2) () in
  let dnode = Convert.load store doc in
  (store, dnode)

let e4_document_order () =
  header "E4  Document order: accessor paths (§7) vs numbering labels (§9.3)";
  row "%-10s %-18s %-18s %-10s\n" "nodes" "accessors(ns/cmp)" "labels(ns/cmp)" "speedup";
  List.iter
    (fun books ->
      let store, dnode = load_library books in
      let nodes = Array.of_list (Store.descendants_or_self store dnode) in
      let t = Xsm_numbering.Labeler.label_tree store dnode in
      let n = Array.length nodes in
      let rng = Xsm_schema.Generator.rng 7 in
      let pairs =
        Array.init 1024 (fun _ ->
            (nodes.(Xsm_schema.Generator.int rng n), nodes.(Xsm_schema.Generator.int rng n)))
      in
      let t_acc =
        time (fun () ->
            Array.iter (fun (a, b) -> ignore (Order.compare store a b)) pairs)
      in
      let labels = Array.map (fun (a, b) -> (Xsm_numbering.Labeler.label t a, Xsm_numbering.Labeler.label t b)) pairs in
      let t_lbl =
        time (fun () -> Array.iter (fun (la, lb) -> ignore (Label.compare la lb)) labels)
      in
      let per x = ns x /. 1024.0 in
      row "%-10d %-18.1f %-18.1f %-10.1f\n" n (per t_acc) (per t_lbl) (t_acc /. t_lbl))
    [ 50; 500; 2500 ]

let e5_predicates_vs_depth () =
  header "E5  §9.3 predicates cost only label length (depth sweep)";
  row "%-8s %-14s %-16s %-16s %-16s\n" "depth" "label bytes" "order(ns)" "ancestor(ns)" "parent(ns)";
  List.iter
    (fun depth ->
      (* a chain tree of the given depth *)
      let store = Store.create () in
      let dnode = Store.new_document store in
      let rec chain parent k =
        if k > 0 then begin
          let e = Store.new_element store (Name.local (Printf.sprintf "d%d" k)) in
          Store.append_child store parent e;
          chain e (k - 1)
        end
      in
      let root = Store.new_element store (Name.local "root") in
      Store.append_child store dnode root;
      chain root (depth - 1);
      let t = Xsm_numbering.Labeler.label_tree store dnode in
      let deepest =
        List.fold_left
          (fun acc n -> if Store.children store n = [] then n else acc)
          root
          (Store.descendants_or_self store dnode)
      in
      let la = Xsm_numbering.Labeler.label t root in
      let lb = Xsm_numbering.Labeler.label t deepest in
      let t_ord = time (fun () -> ignore (Label.compare la lb)) in
      let t_anc = time (fun () -> ignore (Label.is_ancestor la lb)) in
      let t_par = time (fun () -> ignore (Label.is_parent la lb)) in
      row "%-8d %-14d %-16.1f %-16.1f %-16.1f\n" depth (Label.length lb) (ns t_ord)
        (ns t_anc) (ns t_par))
    [ 4; 16; 64; 256 ]

let e6_update_stability () =
  header "E6  Proposition 1: repeated middle insertion, Sedna vs baselines";
  row "%-8s | %-22s | %-14s | %-16s | %-14s\n" "inserts" "sedna(relbl,maxbytes)" "dewey(relbl)"
    "range(globals)" "prime(SCshift)";
  List.iter
    (fun inserts ->
      let doc = Xsm_schema.Samples.library_document ~books:20 ~papers:10 () in
      (* Sedna *)
      let store1 = Store.create () in
      let d1 = Convert.load store1 doc in
      let t = Xsm_numbering.Labeler.label_tree store1 d1 in
      let lib1 = List.hd (Store.children store1 d1) in
      (* each insert lands right after the first child, so every
         label comes from the same, narrowing gap *)
      let next1 = ref (List.nth (Store.children store1 lib1) 1) in
      for i = 1 to inserts do
        let e = Store.new_element store1 (Name.local (Printf.sprintf "s%d" i)) in
        Store.insert_child_before store1 lib1 ~before:!next1 e;
        ignore (Xsm_numbering.Labeler.label_new_child t store1 e);
        next1 := e
      done;
      let sedna_max = Xsm_numbering.Labeler.max_label_bytes t in
      (* Dewey *)
      let store2 = Store.create () in
      let d2 = Convert.load store2 doc in
      let fd = Xsm_numbering.Dewey.forest_of_tree store2 d2 in
      let lib2 = List.hd (Store.children store2 d2) in
      let anchor2 = List.hd (Store.children store2 lib2) in
      let dewey_relabels = ref 0 in
      for i = 1 to inserts do
        let e = Store.new_element store2 (Name.local (Printf.sprintf "w%d" i)) in
        let _, changed = Xsm_numbering.Dewey.insert_after fd ~parent:lib2 ~after:(Some anchor2) e in
        dewey_relabels := !dewey_relabels + changed
      done;
      (* Range *)
      let store3 = Store.create () in
      let d3 = Convert.load store3 doc in
      let fr = Xsm_numbering.Range_label.forest_of_tree ~gap:16 store3 d3 in
      let lib3 = List.hd (Store.children store3 d3) in
      let anchor3 = List.hd (Store.children store3 lib3) in
      for i = 1 to inserts do
        let e = Store.new_element store3 (Name.local (Printf.sprintf "r%d" i)) in
        ignore (Xsm_numbering.Range_label.insert_after fr ~parent:lib3 ~after:(Some anchor3) e)
      done;
      (* Prime *)
      let store4 = Store.create () in
      let d4 = Convert.load store4 doc in
      let fp = Xsm_numbering.Prime_label.forest_of_tree store4 d4 in
      let lib4 = List.hd (Store.children store4 d4) in
      let anchor4 = List.hd (Store.children store4 lib4) in
      let prime_shifts = ref 0 in
      for i = 1 to inserts do
        let e = Store.new_element store4 (Name.local (Printf.sprintf "p%d" i)) in
        let _, shifted = Xsm_numbering.Prime_label.insert_after fp ~parent:lib4 ~after:(Some anchor4) e in
        prime_shifts := !prime_shifts + shifted
      done;
      row "%-8d | 0 relabels, %3d B     | %-14d | %-16d | %-14d\n" inserts sedna_max
        !dewey_relabels
        (Xsm_numbering.Range_label.relabel_count fr)
        !prime_shifts)
    [ 10; 50; 200 ]

let e7_descriptive_schema () =
  header "E7  §9.1 descriptive schema is a concise structure summary";
  row "%-10s %-12s %-14s %-12s %-10s\n" "books" "doc nodes" "schema nodes" "ratio" "blocks";
  List.iter
    (fun books ->
      let store, dnode = load_library books in
      let bs = B.of_store ~block_capacity:64 store dnode in
      let ds = B.schema bs in
      let doc_nodes = Store.node_count store in
      let schema_nodes = DS.node_count ds in
      row "%-10d %-12d %-14d %-12.1f %-10d\n" books doc_nodes schema_nodes
        (float_of_int doc_nodes /. float_of_int schema_nodes)
        (B.block_count bs))
    [ 10; 100; 1000; 5000 ]

let e8_storage_planner_queries () =
  header "E8  Navigational evaluation vs the planner over the block lists (§9.2)";
  row "%-10s %-28s %-16s %-16s %-10s\n" "books" "query" "navig(us)" "planner(us)" "speedup";
  List.iter
    (fun books ->
      let store, dnode = load_library books in
      let bs = B.of_store ~block_capacity:64 store dnode in
      let rootd = B.root bs in
      let planner = Xsm_xpath.Planner.Over_storage.create bs rootd in
      List.iter
        (fun q ->
          let t_nav =
            time (fun () ->
                match Xsm_xpath.Eval.Over_storage.eval_string bs rootd q with
                | Ok _ -> ()
                | Error e -> failwith e)
          in
          let t_pl =
            time (fun () ->
                match Xsm_xpath.Planner.Over_storage.eval_string planner q with
                | Ok _ -> ()
                | Error e -> failwith e)
          in
          row "%-10d %-28s %-16.1f %-16.1f %-10.1f\n" books q (t_nav *. 1e6) (t_pl *. 1e6)
            (t_nav /. t_pl))
        [ "/library/book/title"; "//author"; "//year" ])
    [ 100; 1000 ]

(* Store nodes paired with the descriptors [B.of_store] made of them,
   by walking both trees in parallel, in [Store.descendants_or_self]
   order.  A node the storage has no counterpart for stays unpaired. *)
let descriptor_pairs store n bs d =
  let rec zip xs ys = match xs, ys with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> [] in
  let rec go acc (n, d) =
    let acc = List.rev_append (zip (Store.attributes store n) (B.attributes bs d)) ((n, d) :: acc) in
    List.fold_left go acc (zip (Store.children store n) (B.children bs d))
  in
  List.rev (go [] (n, d))

let e9_accessor_reconstruction () =
  header "E9  Accessor reconstruction from node descriptors is exact (§9.2)";
  let store, dnode = load_library 500 in
  let bs = B.of_store store dnode in
  let pairs = descriptor_pairs store dnode bs (B.root bs) in
  let mismatches = ref (Store.subtree_size store dnode - List.length pairs) in
  let checked = ref 0 in
  List.iter
    (fun (n, d) ->
      incr checked;
      if
        B.node_kind d <> Store.node_kind store n
        || B.string_value bs d <> Store.string_value store n
        || List.length (B.children bs d) <> List.length (Store.children store n)
        || List.length (B.attributes bs d) <> List.length (Store.attributes store n)
      then incr mismatches)
    pairs;
  row "nodes checked: %d, accessor mismatches: %d\n" !checked !mismatches;
  let sample, d = List.nth pairs (List.length pairs / 2) in
  let t_store = time (fun () -> ignore (Store.string_value store sample)) in
  let t_desc = time (fun () -> ignore (B.string_value bs d)) in
  row "string-value: store %.1f ns, descriptors %.1f ns\n" (ns t_store) (ns t_desc)

let e10_datatype_throughput () =
  header "E10 Simple-type validation throughput (§4)";
  row "%-22s %-14s %-14s\n" "type" "values/batch" "Mvalues/s";
  let module ST = Xsm_datatypes.Simple_type in
  let module BT = Xsm_datatypes.Builtin in
  let cases =
    [
      ("xs:string", ST.string_type, "some ordinary text");
      ("xs:boolean", ST.boolean, "true");
      ("xs:integer", ST.integer, "123456789");
      ("xs:decimal", ST.decimal, "-1234.5678");
      ("xs:dateTime", ST.builtin (BT.Primitive BT.P_date_time), "2004-10-28T09:00:00Z");
      ("xs:duration", ST.builtin (BT.Primitive BT.P_duration), "P1Y2M3DT4H5M6S");
      ("xs:base64Binary", ST.builtin (BT.Primitive BT.P_base64_binary), "aGVsbG8gd29ybGQ=");
      ("xs:NMTOKENS", ST.builtin BT.Nmtokens, "alpha beta gamma");
    ]
  in
  let pattern_type =
    match
      Result.bind (Xsm_datatypes.Facet.pattern "\\d{3}-[A-Z]{2}") (fun p ->
          ST.restrict ST.string_type [ p ])
    with
    | Ok t -> t
    | Error e -> failwith e
  in
  let cases = cases @ [ ("pattern \\d{3}-[A-Z]{2}", pattern_type, "123-AB") ] in
  let batch = 1000 in
  List.iter
    (fun (label, ty, value) ->
      let t =
        time (fun () ->
            for _ = 1 to batch do
              match ST.validate ty value with
              | Ok _ -> ()
              | Error e -> failwith e
            done)
      in
      row "%-22s %-14d %-14.2f\n" label batch (float_of_int batch /. t /. 1e6))
    cases

let e11_index_vs_naive () =
  header "E11 Index subsystem: extent lookups + label joins vs navigation";
  row "%-10s %-30s %-14s %-14s %-10s\n" "books" "query" "naive(us)" "indexed(us)" "speedup";
  let queries =
    [ "//author"; "/library/book/title"; "//book[issue/year<1990]/title"; "//book[issue]/author" ]
  in
  List.iter
    (fun books ->
      let store, dnode = load_library books in
      let module Pl = Xsm_xpath.Planner.Over_store in
      let planner = Pl.create store dnode in
      List.iter
        (fun q ->
          (* warm: the first evaluation builds any value index it needs *)
          (match Pl.eval_string planner q with Ok _ -> () | Error e -> failwith e);
          let t_naive =
            time (fun () ->
                match Xsm_xpath.Eval.Over_store.eval_string store dnode q with
                | Ok _ -> ()
                | Error e -> failwith e)
          in
          let t_idx =
            time (fun () ->
                match Pl.eval_string planner q with
                | Ok _ -> ()
                | Error e -> failwith e)
          in
          row "%-10d %-30s %-14.1f %-14.1f %-10.1f\n" books q (t_naive *. 1e6)
            (t_idx *. 1e6) (t_naive /. t_idx))
        queries;
      let t_build = time (fun () -> ignore (Pl.create store dnode)) in
      let t_vi =
        time ~min_time:0.02 (fun () ->
            let p = Pl.create store dnode in
            match Pl.eval_string p "//book[issue/year<1990]/title" with
            | Ok _ -> ()
            | Error e -> failwith e)
      in
      row "%-10d %-30s build %.2f ms, +value index %.2f ms\n" books "(index construction)"
        (t_build *. 1e3)
        (Float.max 0. (t_vi -. t_build) *. 1e3))
    [ 100; 300; 1000 ]

let e12_incremental_maintenance () =
  header "E12 Differential index maintenance vs rebuild (mixed update/query workload)";
  row "%-8s %-8s %-12s %-14s %-14s %-10s %-16s\n" "books" "rounds" "naive(ms)" "rebuild(ms)"
    "incr(ms)" "speedup" "epochs/applied";
  let module Pl = Xsm_xpath.Planner.Over_store in
  let module U = Xsm_schema.Update in
  let queries =
    [ "//author"; "/library/book/title"; "//book[issue/year<1990]/title" ]
  in
  let new_book i =
    Xsm_xml.Tree.elem "book"
      ~children:
        [
          Xsm_xml.Tree.element
            (Xsm_xml.Tree.elem "title"
               ~children:[ Xsm_xml.Tree.text (Printf.sprintf "T%d" i) ]);
          Xsm_xml.Tree.element
            (Xsm_xml.Tree.elem "author" ~children:[ Xsm_xml.Tree.text "New" ]);
          Xsm_xml.Tree.element
            (Xsm_xml.Tree.elem "issue"
               ~children:
                 [
                   Xsm_xml.Tree.element
                     (Xsm_xml.Tree.elem "year"
                        ~children:[ Xsm_xml.Tree.text (string_of_int (1950 + (i mod 70))) ]);
                 ]);
        ]
  in
  (* the three strategies run the byte-identical op/query sequence: all
     choices are driven by a same-seeded rng over identically evolving
     stores *)
  let run_workload books rounds strategy =
    let store = Store.create () in
    let doc = Xsm_schema.Samples.library_document ~books ~papers:(books / 2) () in
    let dnode = Convert.load store doc in
    let planner =
      match strategy with
      | `Naive -> None
      | `Rebuild | `Incremental -> Some (Pl.create store dnode)
    in
    let rng = Xsm_schema.Generator.rng 99 in
    let t0 = now_s () in
    for round = 1 to rounds do
      let libr = List.hd (Store.children store dnode) in
      for u = 1 to 4 do
        let kids = Store.children store libr in
        let op =
          match Xsm_schema.Generator.int rng 3 with
          | 0 ->
            U.Insert_element
              { parent = libr; before = None; tree = new_book ((round * 10) + u) }
          | 1 -> U.Delete (List.nth kids (Xsm_schema.Generator.int rng (List.length kids)))
          | _ -> (
            let texts =
              List.filter
                (fun n -> Store.kind store n = Store.Kind.Text)
                (Store.descendants_or_self store libr)
            in
            match texts with
            | [] -> U.Insert_text { parent = libr; before = None; text = "t" }
            | ts ->
              U.Replace_content
                {
                  node = List.nth ts (Xsm_schema.Generator.int rng (List.length ts));
                  value = string_of_int (1900 + round);
                })
        in
        match (U.apply store op, strategy, planner) with
        | Error e, _, _ -> failwith e
        | Ok a, `Incremental, Some p -> Pl.apply_changes p [ U.change a ]
        | Ok _, `Rebuild, Some p -> Pl.invalidate p
        | Ok _, _, _ -> ()
      done;
      List.iter
        (fun q ->
          match planner with
          | Some p -> (
            match Pl.eval_string p q with Ok _ -> () | Error e -> failwith e)
          | None -> (
            match Xsm_xpath.Eval.Over_store.eval_string store dnode q with
            | Ok _ -> ()
            | Error e -> failwith e))
        queries
    done;
    let t = now_s () -. t0 in
    (t, Option.map Pl.maintenance_stats planner)
  in
  List.iter
    (fun (books, rounds) ->
      let t_naive, _ = run_workload books rounds `Naive in
      let t_rebuild, _ = run_workload books rounds `Rebuild in
      let t_incr, stats = run_workload books rounds `Incremental in
      let stats_str =
        match stats with
        | Some s ->
          Printf.sprintf "%d/%d" s.Xsm_xpath.Planner.epochs s.Xsm_xpath.Planner.applied
        | None -> "-"
      in
      row "%-8d %-8d %-12.1f %-14.1f %-14.1f %-10.1f %-16s\n" books rounds (t_naive *. 1e3)
        (t_rebuild *. 1e3) (t_incr *. 1e3) (t_rebuild /. t_incr) stats_str)
    [ (100, 25); (300, 25); (1000, 15) ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let a1_block_capacity () =
  header "A1  Ablation: block capacity (build, splits, scan)";
  row "%-10s %-10s %-12s %-14s %-14s\n" "capacity" "blocks" "build(ms)" "scan //author(us)" "splits@200ins";
  let doc = Xsm_schema.Samples.library_document ~books:500 ~papers:250 () in
  List.iter
    (fun cap ->
      let store = Store.create () in
      let dnode = Convert.load store doc in
      let t_build = time (fun () -> ignore (B.of_store ~block_capacity:cap store dnode)) in
      let bs = B.of_store ~block_capacity:cap store dnode in
      let planner = Xsm_xpath.Planner.Over_storage.create bs (B.root bs) in
      let t_scan =
        time (fun () ->
            match Xsm_xpath.Planner.Over_storage.eval_string planner "//author" with
            | Ok _ -> ()
            | Error e -> failwith e)
      in
      let library = List.hd (B.children bs (B.root bs)) in
      let anchor = List.hd (B.children bs library) in
      for i = 1 to 200 do
        ignore (B.insert_element bs ~parent:library ~after:(Some anchor)
                  (Name.local (Printf.sprintf "x%d" (i mod 3))))
      done;
      row "%-10d %-10d %-12.2f %-14.1f %-14d\n" cap (B.block_count bs) (t_build *. 1e3)
        (t_scan *. 1e6) (B.split_count bs))
    [ 8; 32; 128; 512 ]

let a2_expansion_cost () =
  header "A2  Ablation: bounded-repetition expansion (positions vs maxOccurs)";
  row "%-10s %-12s %-14s %-14s\n" "maxOccurs" "positions" "compile(ms)" "match(us)";
  List.iter
    (fun m ->
      let g =
        Xsm_schema.Ast.sequence
          [
            Xsm_schema.Ast.elem_p
              (Xsm_schema.Ast.element
                 ~repetition:(Xsm_schema.Ast.repeat 0 (Some m))
                 "Book" (Xsm_schema.Ast.named_type "xs:string"));
          ]
      in
      let t_compile =
        time (fun () ->
            match Xsm_schema.Content_automaton.make g with
            | Ok _ -> ()
            | Error e -> failwith e)
      in
      let a =
        match Xsm_schema.Content_automaton.make g with Ok a -> a | Error e -> failwith e
      in
      let word = List.init (m / 2) (fun _ -> Name.local "Book") in
      let t_match = time (fun () -> ignore (Xsm_schema.Content_automaton.matches a word)) in
      row "%-10d %-12d %-14.2f %-14.1f\n" m
        (Xsm_schema.Content_automaton.position_count a)
        (t_compile *. 1e3) (t_match *. 1e6))
    [ 10; 100; 1000; 4000 ]

let a3_label_assignment_policy () =
  header "A3  Ablation: initial label spreading vs sequential allocation";
  row "%-12s %-22s %-22s\n" "siblings" "spread (tot/max B)" "sequential (tot/max B)";
  List.iter
    (fun n ->
      let spread = Label.assign_children Label.root n in
      let tot l = List.fold_left (fun acc x -> acc + Label.length x) 0 l in
      let mx l = List.fold_left (fun acc x -> max acc (Label.length x)) 0 l in
      (* sequential: first_child then repeated after_sibling *)
      let rec seq acc last k =
        if k = 0 then List.rev acc
        else
          let next = Label.after_sibling last in
          seq (next :: acc) next (k - 1)
      in
      let first = Label.first_child Label.root in
      let sequential = first :: seq [] first (n - 1) in
      row "%-12d %6d / %-11d %6d / %-11d\n" n (tot spread) (mx spread) (tot sequential)
        (mx sequential))
    [ 100; 1000; 10000 ]

let e13_durability () =
  header "E13 Durability: snapshot cost, WAL append overhead, recovery time vs size";
  row "%-8s %-8s %-10s %-10s %-13s %-13s %-12s %-16s\n" "books" "nodes" "snap(ms)" "snap(KB)" "wal us/op" "wal us/op" "recover(ms)" "recovered scan";
  row "%-8s %-8s %-10s %-10s %-13s %-13s %-12s %-16s\n" "" "" "" "" "(fsync/rec)" "(fsync/64)" "(200 ops)" "(faults, hit%)";
  let module Snapshot = Xsm_persist.Snapshot in
  let module Wal = Xsm_persist.Wal in
  let module Pager = Xsm_pager.Pager in
  let book =
    Xsm_xml.Tree.elem "book"
      ~children:
        [ Xsm_xml.Tree.element (Xsm_xml.Tree.elem "author" ~children:[ Xsm_xml.Tree.text "Crash" ]) ]
  in
  List.iter
    (fun books ->
      let doc = Xsm_schema.Samples.library_document ~books ~papers:(books / 2) () in
      let store = Store.create () in
      let dnode = Convert.load store doc in
      let libr = List.hd (Store.children store dnode) in
      let snap = Filename.temp_file "xsm_report" ".snap" in
      let wal = Filename.temp_file "xsm_report" ".wal" in
      let pages = Filename.temp_file "xsm_report" ".pages" in
      let save () =
        match Snapshot.save ~path:snap store dnode with Ok _ -> () | Error e -> failwith e
      in
      let t_snap = time save in
      let snap_kb = float_of_int (Unix.stat snap).Unix.st_size /. 1024.0 in
      (* steady-state insert+delete round through the logged apply *)
      let round w =
        let apply op =
          match Wal.apply_logged (Some w) (Wal.store_tree store) ~root:dnode ~apply:(Xsm_schema.Update.apply store) op with
          | Ok _ -> ()
          | Error e -> failwith e
        in
        apply (Xsm_schema.Update.Insert_element { parent = libr; before = None; tree = book });
        apply (Xsm_schema.Update.Delete (List.hd (List.rev (Store.children store libr))))
      in
      let logged sync_every =
        Sys.remove wal;
        let w =
          match Wal.Writer.create ~sync_every wal with
          | Ok w -> w
          | Error e -> failwith (Wal.error_message e)
        in
        let t = time (fun () -> round w) in
        Wal.Writer.close w;
        t /. 2.0
      in
      let t_rec1 = logged 1 in
      let t_rec64 = logged 64 in
      (* a 200-op log to recover through *)
      save ();
      Sys.remove wal;
      let w =
        match Wal.Writer.create ~sync_every:64 wal with
        | Ok w -> w
        | Error e -> failwith (Wal.error_message e)
      in
      for _ = 1 to 100 do round w done;
      Wal.Writer.close w;
      let t_recover =
        time (fun () ->
            match Xsm_persist.Recovery.recover ~snapshot:snap ~wal () with
            | Ok _ -> ()
            | Error e -> failwith (Xsm_persist.Recovery.error_message e))
      in
      (* the recovered store paged through a cold 32-block pool: one
         extent scan per schema node, reading every value *)
      let rstore, rroot, _, _ =
        match Xsm_persist.Recovery.recover ~snapshot:snap ~wal () with
        | Ok r -> r
        | Error e -> failwith (Xsm_persist.Recovery.error_message e)
      in
      let bs = B.of_store ~block_capacity:16 rstore rroot in
      let pf = Xsm_pager.Page_file.create pages in
      let pager = B.attach_pager bs ~capacity:32 pf in
      Pager.clear pager;
      Pager.reset_stats pager;
      let rec all_snodes sn = sn :: List.concat_map all_snodes (DS.children (B.schema bs) sn) in
      List.iter
        (fun sn -> List.iter (fun d -> ignore (B.string_value bs d)) (B.descendants_by_snode bs sn))
        (all_snodes (DS.root (B.schema bs)));
      let pstats = Pager.stats pager in
      Xsm_pager.Page_file.close pf;
      row "%-8d %-8d %-10.2f %-10.1f %-13.1f %-13.1f %-12.2f %5d, %5.1f%%\n" books
        (Store.subtree_size store dnode) (t_snap *. 1e3) snap_kb (t_rec1 *. 1e6)
        (t_rec64 *. 1e6) (t_recover *. 1e3) pstats.Pager.reads
        (match Pager.hit_ratio pstats with Some r -> 100.0 *. r | None -> Float.nan);
      List.iter Sys.remove [ snap; wal; pages ])
    [ 50; 200; 800 ]

let e14_static_analysis () =
  header "E14 Static analysis: determinized tables and schema-aware pruning";
  (* (a) wide deterministic choice: per-child follow-list scan is O(k)
     in the alternative count, the compiled table probe is O(1) *)
  row "%-10s %-16s %-14s %-10s\n" "choices" "follow list(us)" "table(us)" "speedup";
  List.iter
    (fun k ->
      let branches =
        List.init k (fun i ->
            Xsm_schema.Ast.elem_p
              (Xsm_schema.Ast.element (Printf.sprintf "n%d" i)
                 (Xsm_schema.Ast.named_type "xs:string")))
      in
      let model = Xsm_schema.Ast.choice ~repetition:Xsm_schema.Ast.many branches in
      let word = List.init 200 (fun i -> Name.local (Printf.sprintf "n%d" (i * 37 mod k))) in
      let a =
        match Xsm_schema.Content_automaton.make model with
        | Ok a -> a
        | Error e -> failwith e
      in
      let table = Option.get (Xsm_schema.Content_automaton.compile a) in
      let t_follow =
        time (fun () -> ignore (Xsm_schema.Content_automaton.matches a word))
      in
      let t_table =
        time (fun () -> ignore (Xsm_schema.Content_automaton.table_matches table word))
      in
      row "%-10d %-16.2f %-14.2f %-10.1f\n" k (t_follow *. 1e6) (t_table *. 1e6)
        (t_follow /. t_table))
    [ 5; 20; 100 ];
  (* (b) compiling the schema with every validation vs. validating
     with the schema compiled once.  The per-document win is the
     avoided compile, so it shows on small documents and amortises
     away on large ones. *)
  row "\n%-10s %-22s %-18s %-10s\n" "books" "compile+validate(us)" "compiled(us)" "speedup";
  let compiled = Xsm_schema.Compiled.make Xsm_schema.Samples.example7_schema in
  List.iter
    (fun books ->
      let doc = Xsm_schema.Samples.bookstore_document ~books () in
      let validate automata =
        match
          Xsm_schema.Validator.validate_document ?automata doc
            Xsm_schema.Samples.example7_schema
        with
        | Ok _ -> ()
        | Error _ -> failwith "E14: unexpected invalid document"
      in
      let t_plain = time (fun () -> validate None) in
      let t_seeded = time (fun () -> validate (Some compiled)) in
      row "%-10d %-22.2f %-18.2f %-10.2f\n" books (t_plain *. 1e6) (t_seeded *. 1e6)
        (t_plain /. t_seeded))
    [ 2; 100; 1000 ];
  (* (c) statically-empty query: the pruning planner answers [] without
     consulting indexes or extents; plain planner and naive eval walk *)
  row "\n%-28s %-14s %-14s %-14s %-8s\n" "query (lib 300, dead)" "pruned(us)" "planner(us)"
    "naive(us)" "pruned?";
  let store = Store.create () in
  let doc = Xsm_schema.Samples.library_document ~books:300 ~papers:150 () in
  let dnode = Convert.load store doc in
  let module Pl = Xsm_xpath.Planner.Over_store in
  let plain = Pl.create store dnode in
  let pruned = Pl.create store dnode in
  Pl.set_pruner pruned (Xsm_analysis.Query_static.pruner
       (Xsm_analysis.Schema_graph.build (Xsm_schema.Compiled.make Xsm_schema.Samples.library_schema)));
  List.iter
    (fun q ->
      let eval planner () =
        match Pl.eval_string planner q with Ok _ -> () | Error e -> failwith e
      in
      let before = Pl.pruned_count pruned in
      let t_pruned = time (eval pruned) in
      let t_plain = time (eval plain) in
      let t_naive =
        time (fun () ->
            match Xsm_xpath.Eval.Over_store.eval_string store dnode q with
            | Ok _ -> ()
            | Error e -> failwith e)
      in
      row "%-28s %-14.2f %-14.2f %-14.2f %-8s\n" q (t_pruned *. 1e6) (t_plain *. 1e6)
        (t_naive *. 1e6)
        (if Pl.pruned_count pruned > before then "yes" else "no")
    )
    [ "/library/magazine/title"; "//isbn"; "/library/book/title" ]

let e15_telemetry_overhead () =
  header "E15 Telemetry overhead: spans enabled (no detail, no export) vs disabled";
  (* counters are unconditional, so both columns pay them; the delta
     is the span machinery behind the Obs.enabled ref.  Detail spans
     (one per validated element) are --trace-only and excluded — this
     measures the configuration a deployment would leave on. *)
  row "%-30s %-14s %-14s %-10s\n" "workload" "off(us)" "on(us)" "overhead";
  let doc = Xsm_schema.Samples.bookstore_document ~books:1000 () in
  let e1 () =
    match Xsm_schema.Validator.validate_document doc Xsm_schema.Samples.example7_schema with
    | Ok _ -> ()
    | Error _ -> failwith "E15: unexpected invalid document"
  in
  let store, dnode = load_library 300 in
  let module Pl = Xsm_xpath.Planner.Over_store in
  let planner = Pl.create store dnode in
  let e11 () =
    match Pl.eval_string planner "//author" with Ok _ -> () | Error e -> failwith e
  in
  (* The span cost is nanoseconds per call while scheduler/GC/clock
     drift on the host is percents over seconds, so the two
     configurations are sampled in small strictly-alternating batches
     (~25ms each): both columns see the same drift and it cancels in
     the ratio of the accumulated sums. *)
  let measure f =
    (* warm up in both configurations: the first enabled span
       allocates the retention ring, which must not land in a timed
       batch *)
    Xsm_obs.Obs.enable ();
    f ();
    Xsm_obs.Obs.disable ();
    f ();
    let t1 = time_once f in
    let reps = max 1 (int_of_float (0.025 /. Float.max t1 1e-9)) in
    let batch () = time_once (fun () -> for _ = 1 to reps do f () done) in
    let t_off = ref 0.0 and t_on = ref 0.0 in
    Gc.full_major ();
    for _ = 1 to 40 do
      Xsm_obs.Obs.disable ();
      t_off := !t_off +. batch ();
      Xsm_obs.Obs.enable ();
      t_on := !t_on +. batch ()
    done;
    Xsm_obs.Obs.disable ();
    Xsm_obs.Trace.reset ();
    let per_call total = total /. float_of_int (40 * reps) in
    (per_call !t_off, per_call !t_on)
  in
  List.iter
    (fun (label, f) ->
      let t_off, t_on = measure f in
      row "%-30s %-14.1f %-14.1f %+.2f%%\n" label (t_off *. 1e6) (t_on *. 1e6)
        (100.0 *. (t_on -. t_off) /. t_off))
    [ ("E1 validate (1000 books)", e1); ("E11 indexed query //author", e11) ]

let run () =
  print_endline "xsm experiment report — paper: A Formal Model of XML Schema (ICDE 2005)";
  print_endline "(shape reproduction; absolute numbers depend on this machine)";
  e1_validation_scaling ();
  e2_automaton_vs_backtracking ();
  e3_roundtrip_theorem ();
  e4_document_order ();
  e5_predicates_vs_depth ();
  e6_update_stability ();
  e7_descriptive_schema ();
  e8_storage_planner_queries ();
  e9_accessor_reconstruction ();
  e10_datatype_throughput ();
  e11_index_vs_naive ();
  e12_incremental_maintenance ();
  e13_durability ();
  e14_static_analysis ();
  e15_telemetry_overhead ();
  a1_block_capacity ();
  a2_expansion_cost ();
  a3_label_assignment_policy ();
  print_endline "\nreport complete."
