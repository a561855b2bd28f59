(* The durability subsystem:

   - snapshot encode/decode round-trips to §8 content-equality, on the
     library sample and (as a qcheck law) over generated corpora,
     labels included,
   - WAL write/read round-trips; torn tails (cut headers, cut
     payloads, CRC flips) are detected, truncated and never replayed,
   - replaying every prefix of a random update sequence equals direct
     application of that prefix,
   - fault injection: for every crash point (clean boundary cut and
     torn record alike), recovery restores exactly the state of the
     longest fully-written prefix, and recovered labels pass the
     ground-truth check,
   - journal cursors: independent consumers each see every entry. *)

module Store = Xsm_xdm.Store
module Convert = Xsm_xdm.Convert
module Update = Xsm_schema.Update
module Journal = Xsm_schema.Update.Journal
module Gen = Xsm_schema.Generator
module Snapshot = Xsm_persist.Snapshot
module Wal = Xsm_persist.Wal
module Recovery = Xsm_persist.Recovery
module Labeler = Xsm_numbering.Labeler
module Tree = Xsm_xml.Tree
module Name = Xsm_xml.Name
module Q = QCheck

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* the WAL and recovery APIs carry structured errors *)
let ok_wal = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Wal.error_message e)

let ok_rec = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Recovery.error_message e)

let tmp suffix =
  let path = Filename.temp_file "xsm_persist" suffix in
  Sys.remove path;
  (* the WAL writer distinguishes fresh from existing files *)
  path

let cleanup paths = List.iter (fun p -> if Sys.file_exists p then Sys.remove p) paths

let library () =
  let doc = Xsm_schema.Samples.library_document () in
  let store = Store.create () in
  let root = Convert.load store doc in
  (store, root)

let rec fold_nodes store f acc n =
  let acc = f acc n in
  let acc = List.fold_left (fold_nodes store f) acc (Store.attributes store n) in
  List.fold_left (fold_nodes store f) acc (Store.children store n)

let nodes_of_kind store root k =
  fold_nodes store
    (fun acc n -> if Store.Kind.equal (Store.kind store n) k then n :: acc else acc)
    [] root
  |> List.rev

let state store root = Convert.to_document store root
let same_state a b = Tree.equal_content a b

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)

let test_snapshot_roundtrip () =
  let store, root = library () in
  let bytes = ok (Snapshot.encode store root) in
  let store', root', labels', meta = ok (Snapshot.decode bytes) in
  Alcotest.(check int) "node count" (Store.subtree_size store root) meta.Snapshot.node_count;
  Alcotest.(check bool) "no labels" true (labels' = None);
  Alcotest.(check bool) "content-equal after decode (encode X) — §8 on disk" true
    (same_state (state store root) (state store' root'))

let test_snapshot_roundtrip_labels () =
  let store, root = library () in
  let labels = Labeler.label_tree store root in
  let bytes = ok (Snapshot.encode ~schema_ref:"samples/library.xsd" ~labels store root) in
  let store', root', labels', meta = ok (Snapshot.decode bytes) in
  Alcotest.(check bool) "labelled" true meta.Snapshot.labelled;
  Alcotest.(check (option string)) "schema ref" (Some "samples/library.xsd")
    meta.Snapshot.schema_ref;
  let labels' = match labels' with Some l -> l | None -> Alcotest.fail "labels lost" in
  Alcotest.(check int) "label count" (Labeler.label_count labels) (Labeler.label_count labels');
  let raw t =
    List.map (fun (_, l) -> Xsm_numbering.Sedna_label.to_raw l) (Labeler.bindings t)
  in
  Alcotest.(check (list string)) "labels byte-identical in document order" (raw labels)
    (raw labels');
  Alcotest.(check bool) "restored labels pass the ground-truth check" true
    (Labeler.check_against_tree store' root' labels')

let test_snapshot_rejects_corruption () =
  let store, root = library () in
  let bytes = ok (Snapshot.encode store root) in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
    Bytes.to_string b
  in
  (match Snapshot.decode (flip bytes (String.length bytes / 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bit flip in the body must be rejected");
  (match Snapshot.decode (flip bytes 0) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic must be rejected");
  match Snapshot.decode (String.sub bytes 0 (String.length bytes - 3)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated snapshot must be rejected"

let test_snapshot_save_load () =
  let store, root = library () in
  let labels = Labeler.label_tree store root in
  let path = tmp ".snap" in
  let meta = ok (Snapshot.save ~labels ~path store root) in
  Alcotest.(check bool) "labelled meta" true meta.Snapshot.labelled;
  let store', root', labels', _ = ok (Snapshot.load ~path) in
  Alcotest.(check bool) "disk round-trip content-equal" true
    (same_state (state store root) (state store' root'));
  Alcotest.(check bool) "labels survive the disk" true (labels' <> None);
  cleanup [ path ]

let snapshot_roundtrip_law seed =
  let rng = Gen.rng seed in
  let schema = Gen.random_schema ~max_depth:3 rng in
  let doc = Gen.instance rng schema in
  let store = Store.create () in
  let root = Convert.load store doc in
  let labels = Labeler.label_tree store root in
  let store', root', labels', meta = ok (Snapshot.decode (ok (Snapshot.encode ~labels store root))) in
  meta.Snapshot.node_count = Store.subtree_size store root
  && same_state (state store root) (state store' root')
  && match labels' with
     | None -> false
     | Some l -> Labeler.label_count l = Labeler.label_count labels

(* ------------------------------------------------------------------ *)
(* A deterministic op fixture over the library sample.  Each op is a
   thunk computed against the *current* state, so the same list drives
   both the direct run and the logged run. *)

let doc_elem store root = List.hd (Store.children store root)

let ops_fixture store root =
  [
    (fun () ->
      Update.Insert_element
        {
          parent = doc_elem store root;
          before = None;
          tree =
            Tree.elem "book"
              ~attrs:[ Tree.attr "id" "b9" ]
              ~children:
                [ Tree.element (Tree.elem "title" ~children:[ Tree.text "Durability" ]) ];
        });
    (fun () ->
      let lib = doc_elem store root in
      Update.Set_attribute
        { element = List.hd (Store.children store lib); name = Name.local "category";
          value = "classic" });
    (fun () ->
      Update.Replace_content
        { node = List.hd (nodes_of_kind store root Store.Kind.Text); value = "Retitled" });
    (fun () ->
      Update.Insert_text { parent = doc_elem store root; before = None; text = "coda" });
    (fun () ->
      let lib = doc_elem store root in
      Update.Delete (List.nth (Store.children store lib) 1));
    (fun () ->
      Update.Replace_content
        { node = List.hd (nodes_of_kind store root Store.Kind.Attribute); value = "flipped" });
  ]

let n_fixture = 6

(* expected.(k) = the document tree after the first k fixture ops *)
let expected_prefixes () =
  let store, root = library () in
  let trees = Array.make (n_fixture + 1) (state store root) in
  List.iteri
    (fun i mk ->
      ignore (ok (Update.apply store (mk ())));
      trees.(i + 1) <- state store root)
    (ops_fixture store root);
  trees

(* ------------------------------------------------------------------ *)
(* WAL                                                                 *)

let write_fixture_wal ?crash ?(labels = false) wal_path =
  let store, root = library () in
  let labeler = if labels then Some (Labeler.label_tree store root) else None in
  let w = ok_wal (Wal.Writer.create ?crash wal_path) in
  let applied = ref 0 in
  (try
     List.iter
       (fun mk ->
         let op = mk () in
         Wal.Writer.append w (ok (Wal.op_of_update store ~root op));
         ignore (ok (Update.apply store op));
         incr applied)
       (ops_fixture store root);
     Wal.Writer.close w
   with Wal.Crashed -> ());
  (store, root, labeler, !applied)

let test_wal_roundtrip () =
  let wal = tmp ".wal" in
  let _, _, _, applied = write_fixture_wal wal in
  Alcotest.(check int) "all ops applied" n_fixture applied;
  let r = ok_wal (Wal.read wal) in
  Alcotest.(check int) "all records back" n_fixture (List.length r.Wal.records);
  Alcotest.(check bool) "clean log" true (r.Wal.torn_at = None);
  Alcotest.(check int) "clean log: everything synced" n_fixture r.Wal.synced_prefix;
  Alcotest.(check int) "nothing to truncate" 0 (ok_wal (Wal.truncate_torn wal));
  cleanup [ wal ]

let append_bytes path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let test_wal_torn_tail () =
  let wal = tmp ".wal" in
  let _ = write_fixture_wal wal in
  let clean_size = (Unix.stat wal).Unix.st_size in
  (* a cut-short header *)
  append_bytes wal "XYZ";
  let r = ok_wal (Wal.read wal) in
  Alcotest.(check int) "records unaffected" n_fixture (List.length r.Wal.records);
  (match r.Wal.torn_at with
  | Some (Wal.Torn_header _) -> ()
  | _ -> Alcotest.fail "expected a torn header");
  Alcotest.(check int) "torn log: only sync-points vouch" 0 r.Wal.synced_prefix;
  Alcotest.(check int) "3 bytes dropped" 3 (ok_wal (Wal.truncate_torn wal));
  Alcotest.(check int) "file repaired" clean_size (Unix.stat wal).Unix.st_size;
  (* a CRC flip inside the last record's payload *)
  let contents =
    let ic = open_in_bin wal in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let b = Bytes.of_string contents in
  Bytes.set b (Bytes.length b - 1) '\xff';
  let ocf = open_out_bin wal in
  output_bytes ocf b;
  close_out ocf;
  let r = ok_wal (Wal.read wal) in
  Alcotest.(check int) "last record rejected" (n_fixture - 1) (List.length r.Wal.records);
  (match r.Wal.torn_at with
  | Some (Wal.Torn_crc _) -> ()
  | _ -> Alcotest.fail "expected a CRC mismatch");
  Alcotest.(check bool) "dropped something" true (ok_wal (Wal.truncate_torn wal) > 0);
  cleanup [ wal ]

let test_wal_sync_points () =
  let wal = tmp ".wal" in
  let store, root = library () in
  let w = ok_wal (Wal.Writer.create wal) in
  let log mk =
    let op = mk () in
    Wal.Writer.append w (ok (Wal.op_of_update store ~root op));
    ignore (ok (Update.apply store op))
  in
  (match ops_fixture store root with
  | o1 :: o2 :: o3 :: _ ->
    log o1;
    Wal.Writer.sync w;
    log o2;
    log o3
  | _ -> assert false);
  Wal.Writer.close w;
  append_bytes wal "torn!";
  let r = ok_wal (Wal.read wal) in
  Alcotest.(check int) "3 ops + 1 marker" 4 (List.length r.Wal.records);
  Alcotest.(check int) "only the op before the marker is vouched for" 1 r.Wal.synced_prefix;
  cleanup [ wal ]

(* the server's two sync paths: the group-commit leader syncs after
   releasing the epoch latch, while a reader that evicts a dirty page
   forces the log through the pager hook, which ends in the same
   [sync] — a [sync] runs beside an [append] or another [sync], and
   every record must stay whole *)
let test_wal_concurrent_syncs () =
  let wal = tmp ".wal" in
  let w = ok_wal (Wal.Writer.create wal) in
  let rounds = 3000 in
  let leading = Atomic.make true in
  let leader () =
    for i = 1 to rounds do
      Wal.Writer.append w
        (Wal.Insert_text { parent = [ i mod 3 ]; index = i; text = String.make (i mod 50) 't' });
      Wal.Writer.sync w
    done;
    Atomic.set leading false
  in
  let reader () =
    while Atomic.get leading do
      Wal.Writer.sync w
    done
  in
  let d = Domain.spawn reader in
  leader ();
  Domain.join d;
  Wal.Writer.close w;
  let r = ok_wal (Wal.read wal) in
  Alcotest.(check bool) "no torn record" true (r.Wal.torn_at = None);
  let ops =
    List.length (List.filter (function Wal.Op _ -> true | Wal.Sync_point -> false) r.Wal.records)
  in
  Alcotest.(check int) "every op read back" rounds ops;
  Alcotest.(check int) "every op vouched for" rounds r.Wal.synced_prefix;
  cleanup [ wal ]

let test_wal_replay_matches_direct () =
  let wal = tmp ".wal" in
  let direct_store, direct_root, _, _ = write_fixture_wal wal in
  let store, root = library () in
  let r = ok_wal (Wal.read wal) in
  List.iter
    (function
      | Wal.Sync_point -> ()
      | Wal.Op op -> ignore (ok (Wal.replay_op store ~root op)))
    r.Wal.records;
  Alcotest.(check bool) "replayed state = directly updated state" true
    (same_state (state direct_store direct_root) (state store root));
  cleanup [ wal ]

(* ------------------------------------------------------------------ *)
(* Fault injection: every crash point, clean cut and torn record       *)

let test_crash_recovery_all_points () =
  let expected = expected_prefixes () in
  List.iter
    (fun partial_bytes ->
      for after_records = 0 to n_fixture - 1 do
        let snap = tmp ".snap" and wal = tmp ".wal" in
        let ctx = Printf.sprintf "crash@%d partial=%d" after_records partial_bytes in
        (* snapshot the initial state, then run into the crash *)
        (let store, root = library () in
         let labels = Labeler.label_tree store root in
         ignore (ok (Snapshot.save ~labels ~path:snap store root)));
        let _, _, _, applied =
          write_fixture_wal ~crash:{ Wal.after_records; partial_bytes } wal
        in
        Alcotest.(check int) (ctx ^ ": writer died at the crash point") after_records applied;
        let rstore, rroot, rlabels, stats = ok_rec (Recovery.recover ~snapshot:snap ~wal ()) in
        Alcotest.(check int) (ctx ^ ": replayed = fully-written prefix") after_records
          stats.Recovery.replayed;
        Alcotest.(check bool) (ctx ^ ": recovered ≡_c longest fully-written prefix") true
          (same_state expected.(after_records) (state rstore rroot));
        if partial_bytes > 0 then
          Alcotest.(check bool) (ctx ^ ": torn tail truncated, never replayed") true
            (stats.Recovery.torn_bytes > 0 && stats.Recovery.truncated);
        (match rlabels with
        | None -> Alcotest.fail (ctx ^ ": labels lost in recovery")
        | Some l ->
          Alcotest.(check int)
            (ctx ^ ": every recovered node labelled")
            (Store.subtree_size rstore rroot) (Labeler.label_count l);
          Alcotest.(check bool)
            (ctx ^ ": recovered labels pass the ground-truth check")
            true
            (Labeler.check_against_tree rstore rroot l));
        (* recovery truncated the WAL: appending resumes cleanly *)
        let w = ok_wal (Wal.Writer.create wal) in
        Wal.Writer.close w;
        let r = ok_wal (Wal.read wal) in
        Alcotest.(check bool) (ctx ^ ": repaired log is clean") true (r.Wal.torn_at = None);
        cleanup [ snap; wal ]
      done)
    [ 0; 9 ]

(* ------------------------------------------------------------------ *)
(* Random update sequences: WAL replay after every prefix equals
   direct application (qcheck law).                                    *)

let random_op rng store root =
  let elements = nodes_of_kind store root Store.Kind.Element in
  let texts = nodes_of_kind store root Store.Kind.Text in
  let attrs = nodes_of_kind store root Store.Kind.Attribute in
  let pick xs = List.nth xs (Gen.int rng (List.length xs)) in
  let fresh_element () =
    Tree.elem
      (Printf.sprintf "n%d" (Gen.int rng 5))
      ~attrs:[ Tree.attr "a" (Printf.sprintf "v%d" (Gen.int rng 10)) ]
      ~children:[ Tree.text (Printf.sprintf "t%d" (Gen.int rng 10)) ]
  in
  let insert () =
    Update.Insert_element { parent = pick elements; before = None; tree = fresh_element () }
  in
  (* deletable: element or text whose parent is an element (keep the
     document's root element in place) *)
  let deletable =
    List.filter
      (fun n ->
        match Store.parent store n with
        | Some p -> Store.Kind.equal (Store.kind store p) Store.Kind.Element
        | None -> false)
      (elements @ texts)
  in
  match Gen.int rng 5 with
  | 0 -> insert ()
  | 1 ->
    Update.Insert_text
      { parent = pick elements; before = None; text = Printf.sprintf "x%d" (Gen.int rng 10) }
  | 2 when deletable <> [] -> Update.Delete (pick deletable)
  | 3 when texts @ attrs <> [] ->
    Update.Replace_content
      { node = pick (texts @ attrs); value = Printf.sprintf "r%d" (Gen.int rng 10) }
  | 4 ->
    Update.Set_attribute
      {
        element = pick elements;
        name = Name.local (Printf.sprintf "a%d" (Gen.int rng 3));
        value = Printf.sprintf "w%d" (Gen.int rng 10);
      }
  | _ -> insert ()

let wal_prefix_law seed =
  let rng = Gen.rng seed in
  let schema = Gen.random_schema ~max_depth:3 rng in
  let doc = Gen.instance rng schema in
  let wal = tmp ".wal" in
  (* the logged direct run, recording the state after every op *)
  let store = Store.create () in
  let root = Convert.load store doc in
  let w = ok_wal (Wal.Writer.create wal) in
  let n_ops = 2 + Gen.int rng 7 in
  let expected =
    Array.init n_ops (fun _ ->
        let op = random_op rng store root in
        Wal.Writer.append w (ok (Wal.op_of_update store ~root op));
        ignore (ok (Update.apply store op));
        state store root)
  in
  Wal.Writer.close w;
  (* one replay pass over a fresh load checks every prefix *)
  let store' = Store.create () in
  let root' = Convert.load store' doc in
  let r = ok_wal (Wal.read wal) in
  let ops = List.filter_map (function Wal.Op o -> Some o | Wal.Sync_point -> None) r.Wal.records in
  let all_prefixes_match =
    List.length ops = n_ops
    && List.for_all2
         (fun op want ->
           ignore (ok (Wal.replay_op store' ~root:root' op));
           same_state want (state store' root'))
         ops (Array.to_list expected)
  in
  cleanup [ wal ];
  all_prefixes_match

(* ------------------------------------------------------------------ *)
(* Journal cursors                                                     *)

let test_journal_cursors () =
  let store, root = library () in
  let j = Journal.create () in
  let c1 = Journal.subscribe j in
  let apply mk = ignore (ok (Update.apply ~journal:j store (mk ()))) in
  let ops = ops_fixture store root in
  apply (List.nth ops 0);
  apply (List.nth ops 1);
  let c2 = Journal.subscribe j in
  Alcotest.(check int) "c1 sees both entries" 2 (Journal.pending j c1);
  Alcotest.(check int) "c2 starts at the oldest retained entry" 2 (Journal.pending j c2);
  Alcotest.(check int) "c1 reads what it saw" 2 (List.length (Journal.read j c1));
  Alcotest.(check int) "c1 drained" 0 (Journal.pending j c1);
  Alcotest.(check int) "c2 unaffected by c1's read" 2 (Journal.pending j c2);
  Alcotest.(check int) "peek does not advance" 2 (List.length (Journal.peek j c2));
  Alcotest.(check int) "still pending after peek" 2 (Journal.pending j c2);
  ignore (Journal.read j c2);
  apply (List.nth ops 2);
  Alcotest.(check int) "both see the new entry" 1 (Journal.pending j c1);
  Alcotest.(check int) "both see the new entry (c2)" 1 (Journal.pending j c2);
  Journal.unsubscribe j c2;
  Alcotest.(check int) "an unsubscribed cursor reads nothing" 0 (Journal.pending j c2);
  Alcotest.(check int) "survivors keep their view" 1 (List.length (Journal.read j c1));
  Alcotest.(check int) "lifetime total" 3 (Journal.total j)

let test_journal_legacy_drain () =
  let store, root = library () in
  let j = Journal.create () in
  let apply mk = ignore (ok (Update.apply ~journal:j store (mk ()))) in
  let ops = ops_fixture store root in
  apply (List.nth ops 0);
  apply (List.nth ops 1);
  Alcotest.(check int) "legacy length" 2 (Journal.length j);
  Alcotest.(check int) "legacy drain" 2 (List.length (Journal.drain j));
  Alcotest.(check int) "drain empties" 0 (Journal.length j);
  apply (List.nth ops 2);
  Alcotest.(check int) "new entries show up" 1 (Journal.length j)

(* ------------------------------------------------------------------ *)

let to_alco ?(count = 60) name law =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count ~name (Q.make ~print:string_of_int Q.Gen.(int_bound 1_000_000)) law)

let test_wal_rejects_foreign_file () =
  (* a file that is not a WAL is corrupt input with its own error
     constructor — it once surfaced as a bare [Failure] that crashed
     the CLI instead of mapping to the corrupt-input exit code *)
  let path = tmp ".wal" in
  let oc = open_out_bin path in
  output_string oc "not a wal at all";
  close_out oc;
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (match Wal.read path with
  | Error (Wal.Not_a_wal p) ->
    Alcotest.(check string) "error names the file" path p;
    Alcotest.(check bool) "message says so" true
      (contains ~needle:"not a WAL file" (Wal.error_message (Wal.Not_a_wal p)))
  | Error e -> Alcotest.failf "wrong error: %s" (Wal.error_message e)
  | Ok _ -> Alcotest.fail "foreign file read as a WAL");
  (match Wal.Writer.create path with
  | Error (Wal.Not_a_wal _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wal.error_message e)
  | Ok w ->
    Wal.Writer.close w;
    Alcotest.fail "foreign file opened for append");
  (* recovery maps it to its corrupt-input constructor, not [Failed] *)
  let snap = tmp ".snap" in
  let store, root = library () in
  ignore (ok (Snapshot.save ~path:snap store root));
  (match Recovery.recover ~snapshot:snap ~wal:path () with
  | Error (Recovery.Corrupt_wal _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Recovery.error_message e)
  | Ok _ -> Alcotest.fail "recovered through a corrupt WAL");
  cleanup [ path; snap ]

let test_directory_fsync () =
  (* the rename-into-place and WAL-creation paths must harden the
     parent directory entry, in a directory created this test run (a
     cold entry is exactly what a crash would lose); [fsync_parent]
     itself must swallow environment refusals rather than fail a save *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xsm-fsdir-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let store, root = library () in
  let snap = Filename.concat dir "state.snap" in
  ignore (ok (Snapshot.save ~path:snap store root));
  let _, root2, _, _ = ok (Snapshot.load ~path:snap) in
  Alcotest.(check bool) "snapshot readable after hardened rename" true (Store.node_id root2 >= 0);
  let wal_path = Filename.concat dir "state.wal" in
  (match Wal.Writer.create wal_path with
  | Ok w ->
    Wal.Writer.sync w;
    Wal.Writer.close w
  | Error e -> Alcotest.failf "fresh wal: %s" (Wal.error_message e));
  Alcotest.(check bool) "fresh wal durable" true (Sys.file_exists wal_path);
  Xsm_persist.Fsutil.fsync_parent (Filename.concat dir "nonexistent");
  Xsm_persist.Fsutil.fsync_dir "/no/such/directory" (* must not raise *);
  cleanup [ snap; wal_path ];
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let test_wal_apply_logged () =
  (* a rejected op leaves no record: the log stays replayable and
     replays to exactly the applied prefix *)
  let store, root = library () in
  let snap = tmp ".snap" and wal = tmp ".wal" in
  ignore (ok (Snapshot.save ~path:snap store root));
  let w = ok_wal (Wal.Writer.create wal) in
  let libr = List.hd (Store.children store root) in
  let book = Tree.elem "book" ~children:[ Tree.text "logged" ] in
  ignore
    (ok (Wal.apply_logged (Some w) store ~root
           (Update.Insert_element { parent = libr; before = None; tree = book })));
  let text =
    fold_nodes store
      (fun acc n -> if acc = None && Store.kind store n = Store.Kind.Text then Some n else acc)
      None root
    |> Option.get
  in
  Alcotest.(check bool) "attr on a text node is rejected" true
    (Result.is_error
       (Wal.apply_logged (Some w) store ~root
          (Update.Set_attribute { element = text; name = Name.local "lang"; value = "en" })));
  Wal.Writer.close w;
  Alcotest.(check int) "only the applied op was logged" 1
    (List.length (ok_wal (Wal.read wal)).Wal.records);
  let rstore, rroot, _, _ = ok_rec (Recovery.recover ~snapshot:snap ~wal ()) in
  Alcotest.(check string) "recovery replays the applied prefix"
    (Xsm_xml.Printer.to_string (Convert.to_document store root))
    (Xsm_xml.Printer.to_string (Convert.to_document rstore rroot));
  cleanup [ snap; wal ]

let suite =
  [
    ( "persist",
      [
        Alcotest.test_case "directory entries fsynced" `Quick test_directory_fsync;
        Alcotest.test_case "snapshot round-trip =_c (in memory)" `Quick test_snapshot_roundtrip;
        Alcotest.test_case "snapshot round-trip with labels" `Quick test_snapshot_roundtrip_labels;
        Alcotest.test_case "snapshot rejects corruption" `Quick test_snapshot_rejects_corruption;
        Alcotest.test_case "snapshot save/load on disk" `Quick test_snapshot_save_load;
        Alcotest.test_case "wal write/read round-trip" `Quick test_wal_roundtrip;
        Alcotest.test_case "wal torn tails detected and truncated" `Quick test_wal_torn_tail;
        Alcotest.test_case "wal rejects a foreign file" `Quick test_wal_rejects_foreign_file;
        Alcotest.test_case "wal sync points bound the vouched prefix" `Quick test_wal_sync_points;
        Alcotest.test_case "wal replay = direct application" `Quick test_wal_replay_matches_direct;
        Alcotest.test_case "wal logged apply skips rejected ops" `Quick test_wal_apply_logged;
        Alcotest.test_case "wal concurrent syncs keep records whole" `Quick
          test_wal_concurrent_syncs;
        Alcotest.test_case "crash recovery at every crash point" `Quick
          test_crash_recovery_all_points;
        Alcotest.test_case "journal: independent cursors" `Quick test_journal_cursors;
        Alcotest.test_case "journal: legacy drain view" `Quick test_journal_legacy_drain;
        to_alco "snapshot round-trip law (generated corpora)" snapshot_roundtrip_law;
        to_alco ~count:40 "wal prefix-replay law (random update sequences)" wal_prefix_law;
      ] );
  ]
