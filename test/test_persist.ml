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
     ground-truth check. *)

module Store = Xsm_xdm.Store
module Convert = Xsm_xdm.Convert
module Update = Xsm_schema.Update
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

(* The decoder is the encoder's inverse on its own output, byte for
   byte, over generated corpora: labelled or not, typed by validation
   (the annotations of [xsm snapshot --schema], non-default type
   names) or not, with nil flags and with a base URI. *)
let snapshot_bytes_law seed =
  let rng = Gen.rng seed in
  let schema = Gen.random_schema ~max_depth:3 rng in
  let doc = Gen.instance rng schema in
  let doc = if seed land 4 = 0 then doc else { doc with Tree.base_uri = Some "file:///corpus.xml" } in
  let store = Store.create () in
  let root =
    if seed land 2 = 0 then Convert.load store doc
    else
      match Xsm_schema.Validator.validate_document ~store doc schema with
      | Ok (_, root) -> root
      | Error _ -> Alcotest.failf "seed %d: a generated instance did not validate" seed
  in
  List.iteri
    (fun i n -> if i mod 3 = seed mod 3 then Store.set_nilled store n true)
    (nodes_of_kind store root Store.Kind.Element);
  let labels = if seed land 1 = 0 then None else Some (Labeler.label_tree store root) in
  let bytes = ok (Snapshot.encode ~schema_ref:"corpus.xsd" ?labels store root) in
  let store', root', labels', _ = ok (Snapshot.decode bytes) in
  ok (Snapshot.encode ~schema_ref:"corpus.xsd" ?labels:labels' store' root') = bytes

(* Hand-written snapshot bodies, sealed with the magic and a CRC, for
   the corrupt inputs a CRC cannot catch.  A node record: kind, name,
   base URI, type name, nil flag, content, label when labelled, then
   the attributes and the children. *)
let sealed ~labelled root =
  let body = Xsm_persist.Wire.W.create () in
  Xsm_persist.Wire.W.varint body 1;
  Xsm_persist.Wire.W.opt_string body None;
  Xsm_persist.Wire.W.bool body labelled;
  Xsm_persist.Wire.W.varint body 2;
  root body;
  let body = Xsm_persist.Wire.W.contents body in
  let crc = Xsm_persist.Wire.W.create () in
  Xsm_persist.Wire.W.fixed32 crc (Xsm_persist.Wire.crc32 body);
  "XSMSNAP\x01" ^ body ^ Xsm_persist.Wire.W.contents crc

let raw_node ?(kind = 1) ?name ?label ?(attributes = []) ?(children = []) w =
  let module W = Xsm_persist.Wire.W in
  W.byte w kind;
  (match name with
  | None -> W.byte w 0
  | Some n ->
    W.byte w 1;
    W.string w n);
  W.opt_string w None;
  W.opt_string w None;
  W.byte w 1;
  W.string w (if kind = 2 || kind = 3 then "v" else "");
  Option.iter (W.string w) label;
  W.varint w (List.length attributes);
  List.iter (fun f -> f w) attributes;
  W.varint w (List.length children);
  List.iter (fun f -> f w) children

(* The corrupt-input messages are the decoder's contract, pinned
   here; a shape error (an attribute in a child position) is an
   [Error] too, never an exception. *)
let test_snapshot_corrupt_messages () =
  let store, root = library () in
  let good = ok (Snapshot.encode store root) in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
    Bytes.to_string b
  in
  let with_garbage =
    (* a whole root record, then one byte more, under a valid CRC *)
    sealed ~labelled:false (fun w ->
        raw_node ~name:"a" w;
        Xsm_persist.Wire.W.byte w 7)
  in
  List.iter
    (fun (what, bytes, expected) ->
      match Snapshot.decode bytes with
      | Ok _ -> Alcotest.failf "%s: decoded" what
      | Error e -> Alcotest.(check string) what expected e)
    [
      ("bad QName", sealed ~labelled:false (raw_node ~name:"a:b:c"), "snapshot: bad QName \"a:b:c\": name \"a:b:c\" has two colons");
      ( "bad label",
        sealed ~labelled:true (raw_node ~name:"a" ~label:"\x80\x01\x01\x80"),
        "snapshot: bad numbering label: malformed label" );
      ("element without a name", sealed ~labelled:false (raw_node ~kind:1), "snapshot: element without a name");
      ("CRC mismatch", flip good (String.length good / 2), "snapshot: CRC mismatch (torn or corrupted file)");
      ("trailing garbage", with_garbage, "snapshot: trailing garbage in body");
      ( "attribute in a child position",
        sealed ~labelled:false
          (raw_node ~name:"a" ~children:[ raw_node ~kind:2 ~name:"x" ]),
        "snapshot: adopt: an attribute node cannot be a child" );
    ]

(* What a decode allocates per node of a labelled 400-book library:
   the node, its child-list cell, its content and its label — each
   distinct QName is validated and boxed once per decode, and the
   labels go straight into a table sized from the header.  40 words
   is the ceiling. *)
let test_snapshot_decode_words_per_node () =
  let store = Store.create () in
  let root =
    Convert.load store (Xsm_schema.Samples.library_document ~books:400 ~papers:100 ())
  in
  let labels = Labeler.label_tree store root in
  let bytes = ok (Snapshot.encode ~labels store root) in
  let nodes = float_of_int (Store.subtree_size store root) in
  ignore (Snapshot.decode bytes);
  let w0 = Gc.minor_words () in
  let decoded = Snapshot.decode bytes in
  let per_node = (Gc.minor_words () -. w0) /. nodes in
  ignore (Sys.opaque_identity decoded);
  if per_node > 40. then Alcotest.failf "%.1f minor words per node, ceiling 40" per_node

(* Replay cost per appended record does not grow with the records
   before it: an append under one parent neither copies nor walks the
   sibling list.  The words per record of 16 000 appends under the
   root stay within 10% of those of 2 000. *)
let test_replay_words_flat () =
  let words_per_record n =
    let snapshot = tmp ".snap" and wal = tmp ".wal" in
    Fun.protect
      ~finally:(fun () -> cleanup [ snapshot; wal ])
      (fun () ->
        let store = Store.create () in
        let root = Convert.load store (Tree.document (Tree.elem "doc")) in
        ignore (ok (Snapshot.save ~path:snapshot store root));
        let w = ok_wal (Wal.Writer.create ~sync_every:max_int wal) in
        for i = 0 to n - 1 do
          Wal.Writer.append w
            (Wal.Insert_element
               {
                 parent = [ 0 ];
                 index = i;
                 fragment =
                   Tree.elem "rec"
                     ~attrs:[ Tree.attr "id" (Printf.sprintf "r%d" i) ]
                     ~children:[ Tree.element (Tree.elem "k" ~children:[ Tree.text "v" ]) ];
               })
        done;
        Wal.Writer.close w;
        let store, root, _, _ = ok (Snapshot.load ~path:snapshot) in
        let w0 = Gc.minor_words () in
        let stats = ok_rec (Recovery.replay_wal store ~root wal) in
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check int) "every record replayed" n stats.Recovery.replayed;
        Alcotest.(check int) "every record under the root" n
          (List.length (Store.children store (List.hd (Store.children store root))));
        words /. float_of_int n)
  in
  let small = words_per_record 2_000 and large = words_per_record 16_000 in
  if large > 1.1 *. small then
    Alcotest.failf "%.0f words per record at 16 000 appends, %.0f at 2 000" large small

(* Replayed deletions give their slots back: a log of n
   insert-then-delete pairs of a five-node record under the root
   leaves the store the slots of its live nodes plus one record's
   worth, at 2 000 pairs as at 16 000 (without release, five more per
   pair). *)
let test_replay_slots_flat () =
  let slots_after n =
    let snapshot = tmp ".snap" and wal = tmp ".wal" in
    Fun.protect
      ~finally:(fun () -> cleanup [ snapshot; wal ])
      (fun () ->
        let store = Store.create () in
        let root = Convert.load store (Tree.document (Tree.elem "doc")) in
        ignore (ok (Snapshot.save ~path:snapshot store root));
        let w = ok_wal (Wal.Writer.create ~sync_every:max_int wal) in
        for i = 0 to n - 1 do
          Wal.Writer.append w
            (Wal.Insert_element
               {
                 parent = [ 0 ];
                 index = 0;
                 fragment =
                   Tree.elem "paper"
                     ~attrs:[ Tree.attr "id" (Printf.sprintf "p%d" i) ]
                     ~children:
                       [
                         Tree.element (Tree.elem "title" ~children:[ Tree.text "T" ]);
                         Tree.element (Tree.elem "year");
                       ];
               });
          Wal.Writer.append w (Wal.Delete (Wal.Node [ 0; 0 ]))
        done;
        Wal.Writer.close w;
        let store, root, _, _ = ok (Snapshot.load ~path:snapshot) in
        let stats = ok_rec (Recovery.replay_wal store ~root wal) in
        Alcotest.(check int) "every record replayed" (2 * n) stats.Recovery.replayed;
        Alcotest.(check int) "only live nodes count" (Store.subtree_size store root)
          (Store.node_count store);
        Store.slots store)
  in
  let small = slots_after 2_000 and large = slots_after 16_000 in
  if large > small || small > 2 + 5 then
    Alcotest.failf "%d store slots after 16 000 pairs, %d after 2 000" large small

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
         Wal.Writer.append w (ok (Wal.op_of_update (Wal.store_tree store) ~root op));
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
    Wal.Writer.append w (ok (Wal.op_of_update (Wal.store_tree store) ~root op));
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

(* Syncs beside appends, on two domains: [leader_sync] follows each of
   the leader's appends while the other domain runs [reader_sync] in a
   loop — every record must stay whole and every op be vouched for *)
let concurrent_syncs ~leader_sync ~reader_sync () =
  let wal = tmp ".wal" in
  let w = ok_wal (Wal.Writer.create wal) in
  let reader_sync = reader_sync w in
  let rounds = 3000 in
  let leading = Atomic.make true in
  let leader () =
    for i = 1 to rounds do
      Wal.Writer.append w
        (Wal.Insert_text { parent = [ i mod 3 ]; index = i; text = String.make (i mod 50) 't' });
      leader_sync w
    done;
    Atomic.set leading false
  in
  let reader () =
    while Atomic.get leading do
      reader_sync ()
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

(* a [sync] in a loop writes its marker while the leader appends, and
   passes no other caller waiting for the slot *)
let test_wal_concurrent_syncs =
  concurrent_syncs ~leader_sync:Wal.Writer.sync ~reader_sync:(fun w () -> Wal.Writer.sync w)

(* the daemon's two force paths: an update forces the log after
   releasing the epoch latch, while a reader that evicts a dirty page
   forces it through the pager hook *)
let test_wal_concurrent_forces =
  concurrent_syncs
    ~leader_sync:(fun w -> ignore (Wal.Writer.force w (Wal.Writer.lsn w)))
    ~reader_sync:(fun w ->
      let hook = Wal.Writer.pager_hook w in
      fun () -> hook.Xsm_pager.Pager.force (Wal.Writer.lsn w))

(* a sync vouches only for the ops before its marker: one domain
   appends without pause while the other syncs, and each sync's
   [synced_lsn] may not count an op the file has after that sync's
   marker.  A stress test: an op appended during the fsync exposes a
   sync that reads the op count after it *)
let test_wal_sync_marks_what_it_covered () =
  let wal = tmp ".wal" in
  let w = ok_wal (Wal.Writer.create ~sync_every:max_int wal) in
  let syncing = Atomic.make true in
  let appender () =
    let i = ref 0 in
    while Atomic.get syncing do
      incr i;
      Wal.Writer.append w (Wal.Insert_text { parent = [ 0 ]; index = !i; text = "t" })
    done
  in
  let d = Domain.spawn appender in
  let marked = List.init 200 (fun _ -> Wal.Writer.sync w; Wal.Writer.synced_lsn w) in
  Atomic.set syncing false;
  Domain.join d;
  Wal.Writer.close w;
  let r = ok_wal (Wal.read wal) in
  (* the ops ahead of each marker, in file order *)
  let _, before_marker =
    List.fold_left
      (fun (ops, acc) -> function
        | Wal.Op _ -> (ops + 1, acc)
        | Wal.Sync_point -> (ops, ops :: acc))
      (0, []) r.Wal.records
  in
  let before_marker = List.rev before_marker in
  Alcotest.(check int) "one marker per sync" (List.length marked) (List.length before_marker);
  List.iteri
    (fun k (m, covered) ->
      if m > covered then
        Alcotest.failf "sync %d vouches for %d ops; its marker follows %d" k m covered)
    (List.combine marked before_marker);
  cleanup [ wal ]

(* The periodic sync runs behind the appender, yet a hooked writer
   makes the fsyncs and writes the bytes a synchronous sync would:
   [force] waits out the sync in flight before it decides whether to
   sync.  The reference runs the same script with no periodic sync
   and an explicit [sync] wherever the periodic one falls. *)
let test_wal_background_sync_matches_synchronous () =
  let syncs = Xsm_obs.Metrics.Counter.make "wal.syncs" in
  let sync_every = 4 in
  let rng = Random.State.make [| 34 |] in
  let ops = ref 0 in
  let script =
    List.concat
      (List.init 200 (fun i ->
           incr ops;
           `Append i
           ::
           (if Random.State.int rng 5 = 0 then [ `Force (1 + Random.State.int rng !ops) ]
            else [])))
  in
  (* the synchronous schedule: where the periodic syncs fall, given
     that a force syncs only past the last marker *)
  let reference =
    let unsynced = ref 0 and ops = ref 0 and marked = ref 0 in
    let synced () =
      unsynced := 0;
      marked := !ops
    in
    List.concat_map
      (function
        | `Append _ as a ->
          incr ops;
          incr unsynced;
          if !unsynced >= sync_every then begin
            synced ();
            [ a; `Sync ]
          end
          else [ a ]
        | `Force lsn as f ->
          if !marked < lsn then synced ();
          [ f ]
        | `Sync as s -> [ s ])
      script
  in
  let run ~sync_every script =
    let wal = tmp ".wal" in
    let w = ok_wal (Wal.Writer.create ~sync_every wal) in
    let hook = Wal.Writer.pager_hook w in
    let s0 = Xsm_obs.Metrics.Counter.value syncs in
    List.iter
      (function
        | `Append i ->
          Wal.Writer.append w (Wal.Insert_text { parent = [ 0 ]; index = i; text = "t" })
        | `Sync -> Wal.Writer.sync w
        | `Force lsn ->
          hook.Xsm_pager.Pager.force lsn;
          if Wal.Writer.synced_lsn w < lsn then
            Alcotest.failf "force %d returned with synced_lsn %d" lsn (Wal.Writer.synced_lsn w))
      script;
    Wal.Writer.close w;
    let bytes = In_channel.with_open_bin wal In_channel.input_all in
    cleanup [ wal ];
    (Xsm_obs.Metrics.Counter.value syncs - s0, bytes)
  in
  let background_syncs, background_bytes = run ~sync_every script in
  let reference_syncs, reference_bytes = run ~sync_every:max_int reference in
  Alcotest.(check int) "the synchronous sync's fsync count" reference_syncs background_syncs;
  Alcotest.(check bool) "the synchronous sync's bytes" true (reference_bytes = background_bytes)

(* A failed background fsync is never lost and never retried: the
   injected fault strikes the second periodic sync, once (a retry
   would succeed), so [synced_lsn] stays at the first; every later
   call raises the error and no further fsync is issued *)
let test_wal_background_sync_failure () =
  let syncs = Xsm_obs.Metrics.Counter.make "wal.syncs" in
  let wal = tmp ".wal" in
  let s0 = Xsm_obs.Metrics.Counter.value syncs in
  let w =
    ok_wal
      (Wal.Writer.create ~sync_every:4
         ~crash:
           { Wal.after_records = 6; partial_bytes = 0; fsync_fails = true; before_fsync = ignore }
         wal)
  in
  let hook = Wal.Writer.pager_hook w in
  let append i = Wal.Writer.append w (Wal.Insert_text { parent = [ 0 ]; index = i; text = "t" }) in
  (* records 1-4 are ops, 5 the first marker: its fsync succeeds; ops
     5-8 are records 6-9, and the fsync behind marker 10 fails *)
  for i = 0 to 7 do
    append i
  done;
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s returned after the fsync failed" what
    | exception Unix.Unix_error (Unix.EIO, "fsync", _) -> ()
  in
  raises "sync" (fun () -> Wal.Writer.sync w);
  raises "append" (fun () -> append 8);
  raises "force" (fun () -> hook.Xsm_pager.Pager.force 8);
  Alcotest.(check int) "marked stays at the last fsync that returned" 4 (Wal.Writer.synced_lsn w);
  raises "close" (fun () -> Wal.Writer.close w);
  Alcotest.(check int) "the open and the first periodic sync; no retry" 2
    (Xsm_obs.Metrics.Counter.value syncs - s0);
  Alcotest.(check int) "the records reached the OS" 8 (Wal.Writer.lsn w);
  let r = ok_wal (Wal.read wal) in
  Alcotest.(check int) "8 ops + 2 markers, whole" 10 (List.length r.Wal.records);
  cleanup [ wal ]

(* ------------------------------------------------------------------ *)
(* Group commit: [Writer.force]                                        *)

let m_wal_syncs = Xsm_obs.Metrics.Counter.make "wal.syncs"
let wal_syncs () = Xsm_obs.Metrics.Counter.value m_wal_syncs
let text_op i = Wal.Insert_text { parent = [ 0 ]; index = i; text = "t" }

(* one submitter: append under the latch (here a mutex, as the
   daemon's epoch latch), leave it with the log's length, force that *)
let submit_to w latch i =
  let lsn =
    Mutex.protect latch (fun () ->
        Wal.Writer.append w (text_op i);
        Wal.Writer.lsn w)
  in
  ignore (Wal.Writer.force w lsn)

(* serialized submitters pay one fsync each, each covering its own op *)
let test_force_per_request () =
  let wal = tmp ".wal" in
  let w = ok_wal (Wal.Writer.create ~sync_every:max_int wal) in
  let latch = Mutex.create () in
  let s0 = wal_syncs () in
  submit_to w latch 0;
  submit_to w latch 1;
  Alcotest.(check int) "one fsync per request" 2 (wal_syncs () - s0);
  let s = Wal.Writer.stats w in
  Alcotest.(check int) "one covering sync each" 2 s.Wal.Writer.covering_syncs;
  Alcotest.(check int) "each covered one op" 1 s.Wal.Writer.max_covered;
  Alcotest.(check int) "both durable" 2 (Wal.Writer.synced_lsn w);
  Wal.Writer.close w;
  cleanup [ wal ]

(* the first submitter's slow fsync lets the others pile up: they
   share a later fsync instead of paying one each *)
let test_force_batches_under_load () =
  let wal = tmp ".wal" in
  let armed = Atomic.make false in
  let before_fsync () = if Atomic.get armed then Thread.delay 0.05 in
  let crash = { Wal.after_records = max_int; partial_bytes = 0; fsync_fails = false; before_fsync } in
  let w = ok_wal (Wal.Writer.create ~crash ~sync_every:max_int wal) in
  Atomic.set armed true;
  let latch = Mutex.create () in
  let s0 = wal_syncs () in
  List.iter Thread.join (List.init 6 (fun i -> Thread.create (fun () -> submit_to w latch i) ()));
  let s = Wal.Writer.stats w in
  Alcotest.(check int) "every op durable" 6 (Wal.Writer.synced_lsn w);
  Alcotest.(check bool) "submitters shared an fsync" true (wal_syncs () - s0 < 6);
  Alcotest.(check int) "every fsync a covering one" (wal_syncs () - s0) s.Wal.Writer.covering_syncs;
  Alcotest.(check bool) "one fsync covered several ops" true (s.Wal.Writer.max_covered >= 2);
  Wal.Writer.close w;
  cleanup [ wal ]

(* the submitter whose fsync fails sees the cause, and its op is never
   vouched for *)
let test_force_failure_fails_submitter () =
  let wal = tmp ".wal" in
  let crash =
    { Wal.after_records = 1; partial_bytes = 0; fsync_fails = true; before_fsync = ignore }
  in
  let w = ok_wal (Wal.Writer.create ~crash ~sync_every:max_int wal) in
  Wal.Writer.append w (text_op 0);
  (match Wal.Writer.force w 1 with
  | _ -> Alcotest.fail "force returned after its fsync failed"
  | exception Unix.Unix_error (Unix.EIO, "fsync", _) -> ());
  Alcotest.(check int) "nothing vouched for" 0 (Wal.Writer.synced_lsn w);
  (try Wal.Writer.close w with Unix.Unix_error _ -> ());
  cleanup [ wal ]

(* A writer whose fsyncs block on gates the test opens, one gate per
   fsync in call order once armed (later ones pass).  [f] gets the
   writer and a way to run a submission on its own thread; every gate
   opens and every thread is joined however [f] ends. *)
let with_gated_writer ?(fail_after = max_int) f =
  let wal = tmp ".wal" in
  let gates = Array.init 3 (fun _ -> Atomic.make false) in
  let armed = Atomic.make false and syncs = Atomic.make 0 in
  let before_fsync () =
    if Atomic.get armed then begin
      let k = Atomic.fetch_and_add syncs 1 in
      if k < Array.length gates then
        while not (Atomic.get gates.(k)) do Thread.delay 0.001 done
    end
  in
  let crash =
    { Wal.after_records = fail_after; partial_bytes = 0; fsync_fails = fail_after < max_int;
      before_fsync }
  in
  let w = ok_wal (Wal.Writer.create ~crash ~sync_every:max_int wal) in
  Atomic.set armed true;
  let latch = Mutex.create () in
  let threads = ref [] in
  let submit i =
    let outcome = Atomic.make None in
    let run () =
      Atomic.set outcome
        (Some
           (match submit_to w latch i with
           | () -> Ok ()
           | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)))
    in
    threads := Thread.create run () :: !threads;
    outcome
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun g -> Atomic.set g true) gates;
      List.iter Thread.join !threads;
      (try Wal.Writer.close w with Unix.Unix_error _ -> ());
      cleanup [ wal ])
    (fun () ->
      f w ~submit
        ~open_gate:(fun k -> Atomic.set gates.(k) true)
        ~syncs:(fun () -> Atomic.get syncs))

let eventually what pred =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  if not (pred ()) then Alcotest.failf "timed out waiting until %s" what

(* each submitter returns at the fsync that covers its own op: B
   appends while A's fsync is blocked, and A returns while B's own
   fsync is still blocked *)
let test_force_acks_at_own_sync () =
  with_gated_writer (fun w ~submit ~open_gate ~syncs ->
      let a = submit 0 in
      eventually "A syncs" (fun () -> syncs () = 1);
      let b = submit 1 in
      eventually "B appends while A's fsync is blocked" (fun () -> Wal.Writer.lsn w = 2);
      Alcotest.(check bool) "A waits for its fsync" true (Atomic.get a = None);
      open_gate 0;
      eventually "A returns while B's fsync is blocked" (fun () -> Atomic.get a <> None);
      Alcotest.(check bool) "A acknowledged" true (Atomic.get a = Some (Ok ()));
      eventually "B syncs its own op" (fun () -> syncs () = 2);
      Alcotest.(check bool) "B waits for its fsync" true (Atomic.get b = None);
      open_gate 1;
      eventually "B returns" (fun () -> Atomic.get b <> None);
      Alcotest.(check bool) "B acknowledged" true (Atomic.get b = Some (Ok ()));
      let s = Wal.Writer.stats w in
      Alcotest.(check int) "one fsync each" 2 s.Wal.Writer.covering_syncs;
      Alcotest.(check int) "each fsync covered one" 1 s.Wal.Writer.max_covered)

(* a failed fsync fails every submitter it covered, and the log stays
   read-only after it: B and C append while A's fsync is blocked and
   share the second fsync (records: A, marker, B, C, marker — the fault
   strikes at the fifth), which fails; A is acknowledged, and a later
   D is refused — a retried fsync could report success for records the
   kernel already dropped *)
let test_force_failed_sync_fails_waiters () =
  with_gated_writer ~fail_after:3 (fun w ~submit ~open_gate ~syncs ->
      let a = submit 0 in
      eventually "A syncs" (fun () -> syncs () = 1);
      let b = submit 1 and c = submit 2 in
      eventually "B and C append" (fun () -> Wal.Writer.lsn w = 3);
      let s0 = wal_syncs () in
      open_gate 0;
      open_gate 1;
      eventually "all three return" (fun () ->
          List.for_all (fun o -> Atomic.get o <> None) [ a; b; c ]);
      let eio = Error (Unix.error_message Unix.EIO) in
      Alcotest.(check bool) "A acknowledged" true (Atomic.get a = Some (Ok ()));
      Alcotest.(check bool) "B sees the fsync failure" true (Atomic.get b = Some eio);
      Alcotest.(check bool) "C sees the fsync failure" true (Atomic.get c = Some eio);
      open_gate 2;
      let d = submit 3 in
      eventually "D returns" (fun () -> Atomic.get d <> None);
      Alcotest.(check bool) "a later submitter is refused" true (Atomic.get d = Some eio);
      Alcotest.(check int) "only A's op vouched for" 1 (Wal.Writer.synced_lsn w);
      Alcotest.(check int) "D's op never reached the log" 3 (Wal.Writer.lsn w);
      Alcotest.(check int) "A's fsync, and no retry" 1 (wal_syncs () - s0);
      let s = Wal.Writer.stats w in
      Alcotest.(check int) "one covering fsync" 1 s.Wal.Writer.covering_syncs)

(* After a failed fsync the log is read-only, over either store: the
   updates the failed fsync covered fail at their force, every later
   update is refused before it applies — the store stays =_c — and
   reads are still answered.  The fsync fails while an update applies,
   as another update's force can in the daemon: that update is logged
   all the same, and its own force reports the failure.  [attach]
   gets the writer before the first update. *)
let read_only_after_failed_fsync ~what ?(attach = ignore) ~tree ~root ~apply ~insert ~print
    ~reads () =
  let wal = tmp ".wal" in
  (* records: op, marker (the first fsync), op, marker — the fault
     strikes the second fsync, while the third op applies *)
  let crash =
    { Wal.after_records = 3; partial_bytes = 0; fsync_fails = true; before_fsync = ignore }
  in
  let w = ok_wal (Wal.Writer.create ~crash ~sync_every:max_int wal) in
  attach w;
  let update ?(apply = apply) i = Wal.apply_logged (Some w) tree ~root ~apply (insert i) in
  let s0 = wal_syncs () in
  ignore (ok (update 1));
  ignore (Wal.Writer.force w (Wal.Writer.lsn w));
  ignore (ok (update 2));
  let failed_meanwhile = ref false in
  let apply_while_failing op =
    let applied = apply op in
    (match Wal.Writer.force w (Wal.Writer.lsn w) with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EIO, "fsync", _) -> failed_meanwhile := true);
    applied
  in
  (match update ~apply:apply_while_failing 3 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: the update applying while the fsync failed: %s" what e
  | exception e ->
    Alcotest.failf "%s: the update applying while the fsync failed raised %s" what
      (Printexc.to_string e));
  Alcotest.(check bool) (what ^ ": the fsync failed while the update applied") true
    !failed_meanwhile;
  Alcotest.(check int) (what ^ ": the applied op was logged") 3 (Wal.Writer.lsn w);
  (match Wal.Writer.force w (Wal.Writer.lsn w) with
  | _ -> Alcotest.failf "%s: updates acknowledged by a failed fsync" what
  | exception Unix.Unix_error (Unix.EIO, "fsync", _) -> ());
  let before = print () in
  (match update 4 with
  | Ok _ -> Alcotest.failf "%s: an update applied after the failed fsync" what
  | Error e ->
    Alcotest.(check bool) (what ^ ": the refusal names the failed fsync") true
      (String.starts_with ~prefix:"wal: read-only after a failed fsync" e));
  Alcotest.(check string) (what ^ ": the store stays =_c") before (print ());
  Alcotest.(check bool) (what ^ ": reads still answered") true (reads ());
  Alcotest.(check int) (what ^ ": the refused op was not logged") 3 (Wal.Writer.lsn w);
  (match Wal.Writer.close w with
  | () -> Alcotest.failf "%s: close hid the failed fsync" what
  | exception Unix.Unix_error (Unix.EIO, _, _) -> ());
  Alcotest.(check int) (what ^ ": one fsync, never retried") 1 (wal_syncs () - s0);
  cleanup [ wal ]

let test_read_only_after_failed_fsync () =
  let book i =
    Tree.elem "book" ~children:[ Tree.element (Tree.elem "title" ~children:[ Tree.text (string_of_int i) ]) ]
  in
  (let store, root = library () in
   let libr = List.hd (Store.children store root) in
   let titles () = List.length (ok (Xsm_xpath.Eval.Over_store.eval_string store root "//title")) in
   let before = titles () in
   read_only_after_failed_fsync ~what:"resident" ~tree:(Wal.store_tree store) ~root
     ~apply:(Update.apply store)
     ~insert:(fun i -> Update.Insert_element { parent = libr; before = None; tree = book i })
     ~print:(fun () -> Xsm_xml.Printer.to_string (Convert.to_document store root))
     ~reads:(fun () -> titles () = before + 3)
     ());
  (* paged through a 2-block pool, as the daemon pages: a read that
     evicts a block the failed fsync's updates dirtied must not force
     the log *)
  let module Bs = Xsm_storage.Block_storage in
  let module Ds = Xsm_storage.Descriptive_schema in
  let module Pf = Xsm_pager.Page_file in
  let store, root = library () in
  let bs = Bs.of_store ~block_capacity:2 store root in
  let root = Bs.root bs in
  let libr = List.hd (Bs.children bs root) in
  let tree =
    { Wal.parent = Bs.parent; children = Bs.children bs;
      attribute_name =
        (fun d -> match Ds.kind (Bs.snode d) with Ds.Attribute -> Bs.node_name d | _ -> None);
      equal = (fun a b -> Bs.desc_id a = Bs.desc_id b) }
  in
  let titles () = List.length (ok (Xsm_xpath.Eval.Over_storage.eval_string bs root "//title")) in
  let before = titles () in
  let pages = tmp ".pages" in
  let pf = Pf.create ~page_size:512 pages in
  let pager = ref None in
  let attach w =
    pager := Some (Bs.attach_pager ~wal:(Wal.Writer.pager_hook w) bs ~capacity:2 pf);
    Bs.set_lsn_source bs (fun () -> Wal.Writer.lsn w + 1)
  in
  Fun.protect
    ~finally:(fun () ->
      Pf.close pf;
      cleanup [ pages ])
    (read_only_after_failed_fsync ~what:"paged" ~attach ~tree ~root
       ~apply:(Xsm_server.Server.apply_paged bs)
       ~insert:(fun i -> Update.Insert_element { parent = libr; before = None; tree = book i })
       ~print:(fun () -> Xsm_xml.Printer.to_string (Bs.to_document bs))
       ~reads:(fun () -> titles () = before + 3));
  let stats = Xsm_pager.Pager.stats (Option.get !pager) in
  Alcotest.(check bool) "paged: the reads evicted blocks" true (stats.Xsm_pager.Pager.evictions > 0);
  Alcotest.(check bool) "paged: blocks past the durable prefix stayed resident" true
    (stats.Xsm_pager.Pager.dirty > 0)

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
          write_fixture_wal
            ~crash:{ Wal.after_records; partial_bytes; fsync_fails = false; before_fsync = ignore }
            wal
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
        Wal.Writer.append w (ok (Wal.op_of_update (Wal.store_tree store) ~root op));
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
    (ok (Wal.apply_logged (Some w) (Wal.store_tree store) ~root ~apply:(Update.apply store)
           (Update.Insert_element { parent = libr; before = None; tree = book })));
  let text =
    fold_nodes store
      (fun acc n -> if acc = None && Store.kind store n = Store.Kind.Text then Some n else acc)
      None root
    |> Option.get
  in
  Alcotest.(check bool) "attr on a text node is rejected" true
    (Result.is_error
       (Wal.apply_logged (Some w) (Wal.store_tree store) ~root ~apply:(Update.apply store)
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
        Alcotest.test_case "wal concurrent forces keep records whole" `Quick
          test_wal_concurrent_forces;
        Alcotest.test_case "wal sync marks its prefix" `Quick
          test_wal_sync_marks_what_it_covered;
        Alcotest.test_case "wal background sync = synchronous sync" `Quick
          test_wal_background_sync_matches_synchronous;
        Alcotest.test_case "wal background fsync failure kept, not retried" `Quick
          test_wal_background_sync_failure;
        Alcotest.test_case "wal read-only after a failed fsync" `Quick
          test_read_only_after_failed_fsync;
        Alcotest.test_case "crash recovery at every crash point" `Quick
          test_crash_recovery_all_points;
        Alcotest.test_case "snapshot corrupt inputs: pinned errors" `Quick
          test_snapshot_corrupt_messages;
        Alcotest.test_case "snapshot decode: at most 40 words per node" `Quick
          test_snapshot_decode_words_per_node;
        Alcotest.test_case "wal replay: words per append flat to 16 000" `Quick
          test_replay_words_flat;
        Alcotest.test_case "wal replay: slots flat" `Quick test_replay_slots_flat;
        to_alco "snapshot round-trip law (generated corpora)" snapshot_roundtrip_law;
        to_alco "snapshot decode = encode's inverse, byte for byte" snapshot_bytes_law;
        to_alco ~count:40 "wal prefix-replay law (random update sequences)" wal_prefix_law;
      ] );
    (* the daemon's group commit: every update forces the log through
       [Writer.force] *)
    ( "server.commit",
      [
        Alcotest.test_case "per-request baseline" `Quick test_force_per_request;
        Alcotest.test_case "batches under load" `Quick test_force_batches_under_load;
        Alcotest.test_case "failure fails the batch" `Quick test_force_failure_fails_submitter;
        Alcotest.test_case "acknowledged at its own sync" `Quick test_force_acks_at_own_sync;
        Alcotest.test_case "failed sync fails waiters" `Quick
          test_force_failed_sync_fails_waiters;
      ] );
  ]
