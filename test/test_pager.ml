(* The disk-paged storage engine:

   - page file blob round-trips, free-list reuse, corruption detection
     and the clean-flag contract;
   - 2Q replacement: ghost promotion into Am, scan resistance, pin
     overflow past capacity;
   - WAL-ordered write-back: a dirty page flush forces the covering
     records durable first, and a crash-point sweep over a paged bulk
     load asserts no on-disk page ever carries an LSN beyond the WAL's
     synced prefix;
   - checkpoint / of_page_file reopen round-trip;
   - the paging contract: navigation never reaches the pager, a value
     read faults exactly its home block, a structural mutation faults
     its cold block before relinking the chain;
   - two domains querying one paged storage through a 2-block pool
     agree with the in-memory storage;
   - the law: a storage paged through a 2-block pool is observationally
     equal to the in-memory storage under random update sequences. *)

module Q = QCheck
module Pf = Xsm_pager.Page_file
module Pager = Xsm_pager.Pager
module Name = Xsm_xml.Name
module Tree = Xsm_xml.Tree
module Printer = Xsm_xml.Printer
module Store = Xsm_xdm.Store
module Convert = Xsm_xdm.Convert
module Gen = Xsm_schema.Generator
module Bs = Xsm_storage.Block_storage
module Wal = Xsm_persist.Wal
module Sax = Xsm_xml.Sax
module BL = Xsm_stream.Bulk_load

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let tmp_page_file () = Filename.temp_file "xsm-pager" ".pages"

let with_tmp f =
  let path = tmp_page_file () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

(* ---------------- page file ---------------- *)

let page_file_roundtrip () =
  with_tmp @@ fun path ->
  let pf = Pf.create ~page_size:512 path in
  check "fresh file is not clean" false (Pf.clean pf);
  let small = String.make 10 'a' in
  let big = String.init 5000 (fun i -> Char.chr (i mod 256)) in
  let h1 = Pf.write_blob pf ~lsn:3 small in
  let h2 = Pf.write_blob pf ~lsn:7 big in
  check_str "small round-trips" small (fst (Pf.read_blob pf h1));
  let payload, lsn = Pf.read_blob pf h2 in
  check_str "overflow chain round-trips" big payload;
  check_int "lsn stamped" 7 lsn;
  (* rewriting a blob in place reuses its chain *)
  let pages_before = Pf.page_count pf in
  let h2' = Pf.write_blob pf ~head:h2 ~lsn:9 (String.make 4000 'b') in
  check_int "rewrite keeps the head" h2 h2';
  check_int "shrinking rewrite allocates nothing" pages_before (Pf.page_count pf);
  (* the freed tail pages satisfy the next allocation *)
  let h3 = Pf.write_blob pf ~lsn:9 (String.make 900 'c') in
  check_int "free list reused" pages_before (Pf.page_count pf);
  Pf.close pf;
  let pf = Pf.open_existing path in
  check_str "reopen reads the rewrite" (String.make 4000 'b') (fst (Pf.read_blob pf h2));
  check_str "reopen reads the reuse" (String.make 900 'c') (fst (Pf.read_blob pf h3));
  Pf.close pf

let page_file_corruption () =
  with_tmp @@ fun path ->
  let pf = Pf.create ~page_size:512 path in
  let h = Pf.write_blob pf ~lsn:1 (String.make 300 'x') in
  Pf.close pf;
  (* flip one payload byte behind the header of the blob's page *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd ((h * 512) + 100) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
  Unix.close fd;
  let pf = Pf.open_existing path in
  check "CRC catches the flip" true
    (match Pf.read_blob pf h with exception Pf.Corrupt _ -> true | _ -> false);
  Pf.close pf;
  (* a damaged header is refused outright *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.write fd (Bytes.of_string "GARBAGE!") 0 8);
  Unix.close fd;
  check "bad magic refused" true
    (match Pf.open_existing path with exception Pf.Corrupt _ -> true | _ -> false)

let page_file_clean_flag () =
  with_tmp @@ fun path ->
  let pf = Pf.create path in
  let h = Pf.write_blob pf ~lsn:1 "payload" in
  Pf.set_checkpoint pf ~lsn:1 ~meta_page:h;
  check "checkpoint sets clean" true (Pf.clean pf);
  Pf.close pf;
  let pf = Pf.open_existing path in
  check "clean survives reopen" true (Pf.clean pf);
  check_int "checkpoint lsn survives" 1 (Pf.checkpoint_lsn pf);
  ignore (Pf.write_blob pf ~lsn:2 "more");
  check "any write clears clean" false (Pf.clean pf);
  Pf.close pf;
  let pf = Pf.open_existing path in
  check "cleared flag survives reopen" false (Pf.clean pf);
  Pf.close pf

(* the skip readers a fault uses to pass over skeleton fields: same
   positions and the same Corrupt bounds as the decoding readers *)
let codec_skip_readers () =
  let module C = Xsm_pager.Codec in
  let w = C.W.create () in
  C.W.varint w 300;
  C.W.string w "skeleton";
  C.W.string w "value";
  let blob = C.W.contents w in
  let r = C.R.of_string blob in
  C.R.skip_varint r;
  C.R.skip_string r;
  check_str "the value after two skips" "value" (C.R.string r);
  check "at the end" true (C.R.at_end r);
  let corrupt f = match f () with exception C.Corrupt _ -> true | _ -> false in
  check "truncated string refused" true
    (corrupt (fun () -> C.R.skip_string (C.R.of_string ~pos:2 (String.sub blob 0 8))));
  check "overlong varint refused" true
    (corrupt (fun () -> C.R.skip_varint (C.R.of_string (String.make 12 '\xff'))));
  check "truncated varint refused" true (corrupt (fun () -> C.R.skip_varint (C.R.of_string "\x80")))

(* ---------------- CRC-32 ---------------- *)

(* the textbook bit-at-a-time CRC-32 (reflected 0xEDB88320): the
   reference the table-driven [Codec.crc32] must agree with *)
let crc32_bitwise s pos len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let byte_codec_vectors () =
  let module C = Xsm_pager.Codec in
  check_int "empty string" 0 (C.crc32 "");
  check_int "check value" 0xCBF43926 (C.crc32 "123456789");
  check_int "window" 0xCBF43926 (C.crc32 ~pos:2 ~len:9 "xx123456789yy");
  check_int "one CRC for pages and logs" (C.crc32 "123456789") (Xsm_persist.Wire.crc32 "123456789");
  (* the stricter of the two former codecs: a byte out of range raises
     instead of being masked *)
  let w = C.W.create () in
  check "byte 256 refused" true
    (match C.W.byte w 256 with exception Invalid_argument _ -> true | () -> false);
  check "byte -1 refused" true
    (match C.W.byte w (-1) with exception Invalid_argument _ -> true | () -> false);
  check_int "nothing written" 0 (C.W.length w)

let crc32_law =
  let gen =
    Q.Gen.(
      string_size ~gen:char (int_bound 300) >>= fun s ->
      let n = String.length s in
      (* mostly in-range windows, some reaching past either end *)
      pair (int_range (-2) (n + 2)) (int_range (-2) (n + 2)) >|= fun (pos, len) -> (s, pos, len))
  in
  Q.Test.make ~count:500 ~name:"crc32 = bitwise reference on every window"
    (Q.make ~print:Q.Print.(triple string int int) gen)
    (fun (s, pos, len) ->
      let in_range = pos >= 0 && len >= 0 && pos + len <= String.length s in
      match Xsm_pager.Codec.crc32 ~pos ~len s with
      | crc -> in_range && crc = crc32_bitwise s pos len
      | exception Invalid_argument _ -> not in_range)

(* windows up to a 4 KiB page at every alignment mod 8: the
   eight-byte steps, the byte tail, and every split between them *)
let crc32_page_windows () =
  let rng = Random.State.make [| 8 |] in
  let s = String.init (4096 + 8) (fun _ -> Char.chr (Random.State.int rng 256)) in
  let lens =
    List.init 25 Fun.id
    @ [ 63; 64; 65; 255; 256; 257; 511; 512; 513; 1000; 2047; 2048; 2049 ]
    @ List.init 9 (fun i -> 4088 + i)
  in
  for pos = 0 to 7 do
    List.iter
      (fun len ->
        check_int
          (Printf.sprintf "pos %d len %d" pos len)
          (crc32_bitwise s pos len)
          (Xsm_pager.Codec.crc32 ~pos ~len s))
      lens
  done

(* ---------------- 2Q replacement over synthetic blocks ---------------- *)

(* handlers over a value table: eviction drops nothing the test cares
   about, so residency transitions are fully observable via stats *)
let synthetic_pager ?wal ~capacity path =
  let values = Hashtbl.create 16 in
  let handlers =
    {
      Pager.serialize = (fun id -> Hashtbl.find values id);
      deserialize =
        (fun id payload ->
          let expected = Hashtbl.find values id in
          if payload <> expected then
            Alcotest.failf "block %d restored %S, expected %S" id payload expected);
      on_evict = (fun _ -> ());
    }
  in
  let pf = Pf.create ~page_size:512 path in
  let p = Pager.create ~capacity ~handlers ?wal pf in
  let add id =
    Hashtbl.replace values id (Printf.sprintf "block-%d-payload" id);
    Pager.register_new p id
  in
  (p, pf, add)

let twoq_ghost_promotion () =
  with_tmp @@ fun path ->
  (* capacity 4: A1in keeps at least 1 frame, ghosts up to 2 *)
  let p, pf, add = synthetic_pager ~capacity:4 path in
  List.iter add [ 1; 2; 3; 4 ];
  Pager.reset_stats p;
  add 5;
  (* room was made by evicting the A1in FIFO tail: block 1 *)
  check_int "one eviction" 1 (Pager.stats p).Pager.evictions;
  check "evicted block faults" true (Pager.touch p 1 = `Miss);
  (* that fault hit 1's ghost entry: it is now in Am.  Stream new
     blocks through A1in; the working-set member must survive. *)
  List.iter add [ 6; 7; 8; 9; 10 ];
  check "ghost-promoted block survives the stream" true (Pager.touch p 1 = `Hit);
  Pager.clear p;
  Pf.close pf

let twoq_scan_resistance () =
  with_tmp @@ fun path ->
  let p, pf, add = synthetic_pager ~capacity:4 path in
  List.iter add [ 1; 2; 3; 4 ];
  (* push 1 out, then fault it back with the scan hint: the ghost hit
     must NOT promote it to Am *)
  add 5;
  ignore (Pager.touch ~scan:true p 1);
  (* pressure evicts from A1in first — a scan-tagged block churns out
     with the FIFO, an Am resident would have survived *)
  List.iter add [ 6; 7; 8; 9 ];
  check "scan-tagged fault did not earn the working set" true (Pager.touch p 1 = `Miss);
  Pager.clear p;
  Pf.close pf

let pin_overflow () =
  with_tmp @@ fun path ->
  let p, pf, add = synthetic_pager ~capacity:2 path in
  add 1;
  add 2;
  check "pin 1" true (Pager.touch ~pin:true p 1 = `Hit);
  check "pin 2" true (Pager.touch ~pin:true p 2 = `Hit);
  (* every frame pinned: admission must overflow, not fail *)
  add 3;
  let s = Pager.stats p in
  check_int "admitted past capacity" 3 s.Pager.resident;
  check "overflow counted" true (s.Pager.pin_overflows >= 1);
  Pager.unpin p 1;
  Pager.unpin p 2;
  add 4;
  check "unpinned frames evictable again" true ((Pager.stats p).Pager.resident <= 3);
  check "double unpin refused" true
    (match Pager.unpin p 1 with exception Invalid_argument _ -> true | _ -> false);
  Pager.clear p;
  Pf.close pf

let untouched_hit_ratio () =
  (* an untouched pool has no hit ratio, not a perfect one: 0/0
     reported as 1.0 would make a cold cache look ideal in reports *)
  with_tmp @@ fun path ->
  let p, pf, add = synthetic_pager ~capacity:2 path in
  let ratio () = Pager.hit_ratio (Pager.stats p) in
  Alcotest.(check (option (float 0.0))) "fresh pool" None (ratio ());
  add 1;
  Pager.clear p;
  Pager.reset_stats p;
  Alcotest.(check (option (float 0.0))) "cleared pool" None (ratio ());
  ignore (Pager.touch p 1);
  Alcotest.(check (option (float 0.0))) "first access faults" (Some 0.0) (ratio ());
  ignore (Pager.touch p 1);
  Alcotest.(check (option (float 0.0))) "second access hits" (Some 0.5) (ratio ());
  Pager.reset_stats p;
  Alcotest.(check (option (float 0.0))) "stats reset: no ratio again" None (ratio ());
  Pager.clear p;
  Pf.close pf

let wal_ordered_write_back () =
  with_tmp @@ fun path ->
  let synced = ref 0 and current = ref 10 in
  let forced = ref [] in
  let wal =
    {
      Pager.current_lsn = (fun () -> !current);
      synced_lsn = (fun () -> !synced);
      force =
        (fun lsn ->
          forced := lsn :: !forced;
          synced := max !synced lsn);
    }
  in
  let p, pf, add = synthetic_pager ~wal ~capacity:2 path in
  add 1;
  add 2;
  Pager.mark_dirty p 1 ~lsn:7;
  (* pressure steals block 1; its LSN is past the synced prefix, so
     the flush must force the WAL first *)
  add 3;
  check "force called for the covering LSN" true (List.mem 7 !forced);
  check_int "WAL synced before the page hit disk" 7 !synced;
  (match Pager.blob_head p 1 with
  | Some h ->
    let _, lsn = Pf.read_blob pf h in
    check_int "page stamped with its LSN" 7 lsn
  | None -> Alcotest.fail "dirty eviction must have written the block");
  (* a frame whose record is not even written yet is unstealable *)
  Pager.mark_dirty p 2 ~lsn:(!current + 1);
  Pager.mark_dirty p 3 ~lsn:(!current + 1);
  let before = (Pager.stats p).Pager.pin_overflows in
  add 4;
  check "unlogged frames overflow instead of flushing" true
    ((Pager.stats p).Pager.pin_overflows > before);
  check "no force past the current LSN" true (List.for_all (fun l -> l <= !current) !forced);
  Pager.clear p;
  Pf.close pf

(* [Pager.write] is [touch] then [mark_dirty] in one critical section:
   over random op sequences, a pool driven by [write] and a twin
   driven by the two calls agree on every stats record, on the WAL
   forces write-back issues, and on the LSN each block's image is
   finally stamped with *)
let pager_write_law =
  let op = Q.Gen.(triple (int_bound 5) (int_range 1 8) (int_range 0 13)) in
  Q.Test.make ~count:200 ~name:"write = touch; mark_dirty"
    (Q.make ~print:Q.Print.(list (triple int int int)) Q.Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      let run fused =
        with_tmp @@ fun path ->
        let synced = ref 0 and forced = ref [] in
        let wal =
          {
            Pager.current_lsn = (fun () -> 12);
            synced_lsn = (fun () -> !synced);
            force =
              (fun lsn ->
                forced := lsn :: !forced;
                synced := max !synced lsn);
          }
        in
        let p, pf, add = synthetic_pager ~wal ~capacity:3 path in
        let known = Hashtbl.create 8 in
        let pins = Hashtbl.create 8 in
        let trace = ref [] in
        List.iter
          (fun (kind, id, lsn) ->
            if not (Hashtbl.mem known id) then begin
              Hashtbl.replace known id ();
              add id
            end;
            (match kind with
            | 0 | 1 ->
              let pin = kind = 1 in
              if pin then
                Hashtbl.replace pins id (1 + Option.value ~default:0 (Hashtbl.find_opt pins id));
              if fused then Pager.write ~pin p id ~lsn
              else begin
                ignore (Pager.touch ~pin p id);
                Pager.mark_dirty p id ~lsn
              end
            | 2 -> ignore (Pager.touch p id)
            | 3 -> ignore (Pager.touch ~scan:true p id)
            | 4 -> (
              match Hashtbl.find_opt pins id with
              | Some n when n > 0 ->
                Hashtbl.replace pins id (n - 1);
                Pager.unpin p id
              | _ -> ())
            | _ -> Pager.flush_all p);
            trace := Pager.stats p :: !trace)
          ops;
        Pager.flush_all p;
        let stamps =
          Hashtbl.fold
            (fun id () acc ->
              (id, Option.map (fun h -> snd (Pf.read_blob pf h)) (Pager.blob_head p id)) :: acc)
            known []
          |> List.sort compare
        in
        Pf.close pf;
        (List.rev !trace, List.rev !forced, stamps)
      in
      run true = run false)

(* an exception raised inside a pool section — here the WAL's injected
   crash, raised from [force] by a write-back — releases the pool
   mutex: the next call proceeds instead of deadlocking *)
let pager_raise_releases_lock () =
  with_tmp @@ fun path ->
  let wal_path = Filename.temp_file "xsm-pager-raise" ".wal" in
  Fun.protect ~finally:(fun () -> Sys.remove wal_path) @@ fun () ->
  let w =
    let crash =
      { Wal.after_records = 1; partial_bytes = 0; fsync_fails = false; before_fsync = ignore }
    in
    match Wal.Writer.create ~crash wal_path with
    | Ok w -> w
    | Error e -> Alcotest.fail (Wal.error_message e)
  in
  Wal.Writer.append w (Wal.Insert_text { parent = [ 0 ]; index = 0; text = "x" });
  let p, pf, add = synthetic_pager ~wal:(Wal.Writer.pager_hook w) ~capacity:2 path in
  add 1;
  add 2;
  Pager.write p 1 ~lsn:1;
  (* admitting block 3 evicts dirty block 1; its write-back forces the
     WAL, whose sync point is the injected crash *)
  check "the crash escapes the section" true
    (match add 3 with exception Wal.Crashed -> true | () -> false);
  check "the pool is usable afterwards" true (Pager.touch p 2 = `Hit);
  check_int "stats still readable" 2 (Pager.stats p).Pager.capacity;
  Pf.close pf

(* The hot sections allocate nothing: on resident frames, 10 000
   rounds of [write], pinning [touch] and [unpin] leave the minor heap
   exactly where an empty measurement leaves it — no closure for the
   critical section, no option from the frame lookup. *)
let sections_allocate_nothing () =
  with_tmp @@ fun path ->
  let p, pf, add = synthetic_pager ~capacity:4 path in
  add 1;
  add 2;
  let measure f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let empty = measure (fun () -> ()) in
  let rounds () =
    for _ = 1 to 10_000 do
      Pager.write p 1 ~lsn:0;
      ignore (Pager.touch ~pin:true p 2);
      Pager.unpin p 2
    done
  in
  Alcotest.(check (float 0.)) "minor words over 10 000 rounds" empty (measure rounds);
  check_int "every call was an access" 20_000 (Pager.stats p).Pager.accesses;
  Pager.clear p;
  Pf.close pf

(* Under a pager, the WAL's periodic fsync is a sync point: it writes
   the marker and advances the synced LSN, so evicting a dirty page
   whose records it already made durable forces nothing more — one
   fsync per [sync_every] records, however many pages go out. *)
let paged_wal_periodic_sync () =
  with_tmp @@ fun path ->
  let wal_path = Filename.temp_file "xsm-pager-sync" ".wal" in
  Fun.protect ~finally:(fun () -> Sys.remove wal_path) @@ fun () ->
  let k = 4 and rounds = 3 in
  let w =
    match Wal.Writer.create ~sync_every:k wal_path with
    | Ok w -> w
    | Error e -> Alcotest.fail (Wal.error_message e)
  in
  let p, pf, add = synthetic_pager ~wal:(Wal.Writer.pager_hook w) ~capacity:2 path in
  add 1;
  add 2;
  let syncs = Xsm_obs.Metrics.Counter.make "wal.syncs" in
  let s0 = Xsm_obs.Metrics.Counter.value syncs in
  for r = 1 to rounds do
    for _ = 1 to k do
      Wal.Writer.append w (Wal.Insert_text { parent = [ 0 ]; index = 0; text = "x" })
    done;
    (* the oldest resident block goes dirty with records the periodic
       fsync just covered, and the next admission evicts it *)
    Pager.write p r ~lsn:(Wal.Writer.lsn w);
    add (r + 2)
  done;
  check_int "every dirty eviction written back" rounds (Pager.stats p).Pager.writes;
  check_int "one fsync per sync_every records" rounds
    (Xsm_obs.Metrics.Counter.value syncs - s0);
  check_int "the marker covers every record" (rounds * k) (Wal.Writer.synced_lsn w);
  Wal.Writer.close w;
  Pf.close pf

(* ---------------- paged storage = in-memory storage ---------------- *)

(* random small XML tree (adjacent texts merged like a parser would) *)
let rec gen_element depth r =
  let name = Printf.sprintf "n%d" (Gen.int r 5) in
  let n_children = if depth = 0 then 0 else Gen.int r 4 in
  let raw =
    List.init n_children (fun i ->
        if Gen.int r 3 = 0 then Tree.Text (Printf.sprintf "t%d" i)
        else Tree.Element (gen_element (depth - 1) r))
  in
  let children =
    List.rev
      (List.fold_left
         (fun acc c ->
           match (c, acc) with
           | Tree.Text t, Tree.Text t' :: rest -> Tree.Text (t' ^ t) :: rest
           | c, acc -> c :: acc)
         [] raw)
  in
  let attrs =
    List.init (Gen.int r 3) (fun i ->
        Tree.attr (Printf.sprintf "a%d" i) (Printf.sprintf "v%d" (Gen.int r 10)))
  in
  Tree.elem name ~attrs ~children

(* preorder walks — identical structures yield identical orders, so a
   position picks "the same node" in both storages *)
let all_elements bs =
  let rec go d acc =
    let acc = if Bs.node_kind d = "element" then d :: acc else acc in
    List.fold_left (fun acc c -> go c acc) acc (Bs.children bs d)
  in
  List.rev (go (Bs.root bs) [])

let all_valued bs =
  let rec go d acc =
    let acc = List.rev_append (Bs.attributes bs d) acc in
    let acc = if Bs.node_kind d = "text" then d :: acc else acc in
    List.fold_left (fun acc c -> go c acc) acc (Bs.children bs d)
  in
  List.rev (go (Bs.root bs) [])

(* deletable leaves: never the document element itself, so the tree
   always keeps a root to insert under *)
let all_leaves bs =
  let rec go d acc =
    let acc = List.rev_append (Bs.attributes bs d) acc in
    let acc =
      if Bs.children bs d = [] && Bs.attributes bs d = [] then
        match Bs.parent d with
        | None -> acc
        | Some p when Bs.parent p = None && Bs.node_kind d = "element" -> acc
        | Some _ -> d :: acc
      else acc
    in
    List.fold_left (fun acc c -> go c acc) acc (Bs.children bs d)
  in
  List.rev (go (Bs.root bs) [])

let apply_step bs (kind, a, b, c) =
  match kind with
  | 0 ->
    let elems = all_elements bs in
    let parent = List.nth elems (a mod List.length elems) in
    let cs = Bs.children bs parent in
    let after = if cs = [] then None else Some (List.nth cs (b mod List.length cs)) in
    ignore (Bs.insert_element bs ~parent ~after (Name.local (Printf.sprintf "x%d" (c mod 4))))
  | 1 ->
    let elems = all_elements bs in
    let parent = List.nth elems (a mod List.length elems) in
    let cs = Bs.children bs parent in
    let after = if cs = [] then None else Some (List.nth cs (b mod List.length cs)) in
    ignore (Bs.insert_text bs ~parent ~after (Printf.sprintf "ins%d" c))
  | 2 -> (
    match all_valued bs with
    | [] -> ()
    | vs -> Bs.set_content bs (List.nth vs (a mod List.length vs)) (Printf.sprintf "val%d" c))
  | _ -> (
    match all_leaves bs with
    | [] -> ()
    | ls -> Bs.delete bs (List.nth ls (a mod List.length ls)))

let serialized bs = Printer.to_string (Bs.to_document bs)

let paged_equals_memory_law seed =
  with_tmp @@ fun path ->
  let r = Gen.rng seed in
  let doc = Tree.document (gen_element 3 r) in
  let store = Store.create () in
  let root = Convert.load store doc in
  let mem = Bs.of_store ~block_capacity:4 store root in
  let paged = Bs.of_store ~block_capacity:4 store root in
  let p = Bs.attach_pager paged ~capacity:2 (Pf.create ~page_size:512 path) in
  Pager.clear p (* cold: every access below faults for real *);
  let steps =
    List.init 15 (fun _ -> (Gen.int r 4, Gen.int r 1000, Gen.int r 1000, Gen.int r 1000))
  in
  (* both keep the §9.2 invariants after every op, not only at the end *)
  let ok_int =
    List.for_all
      (fun step ->
        apply_step mem step;
        apply_step paged step;
        Bs.check_integrity paged = Ok () && Bs.check_integrity mem = Ok ())
      steps
  in
  let ok_doc = serialized mem = serialized paged in
  let query q bs =
    match Xsm_xpath.Eval.Over_storage.eval_string bs (Bs.root bs) q with
    | Ok ds -> Some (List.map (Bs.string_value bs) ds)
    | Error _ -> None
  in
  let ok_query =
    List.for_all (fun q -> query q mem = query q paged) [ "//n1"; "//x0"; "/n0"; "//n2/n3" ]
  in
  Pf.close (Pager.file p);
  if not ok_doc then Q.Test.fail_report "paged document diverged from in-memory";
  if not ok_int then Q.Test.fail_report "integrity violated";
  if not ok_query then Q.Test.fail_report "query results diverged";
  true

(* ---------------- checkpoint / reopen ---------------- *)

let checkpoint_reopen () =
  with_tmp @@ fun path ->
  let doc = Xsm_schema.Samples.library_document ~books:12 ~papers:6 () in
  let store = Store.create () in
  let root = Convert.load store doc in
  let bs = Bs.of_store ~block_capacity:8 store root in
  ignore (Bs.attach_pager bs ~capacity:4 (Pf.create path));
  (* mutate through the pool, then checkpoint *)
  let lib = List.hd (Bs.children bs (Bs.root bs)) in
  let d, _ = Bs.insert_element bs ~parent:lib ~after:None (Name.local "added") in
  ignore (Bs.insert_text bs ~parent:d ~after:None "after the snapshot");
  let expect = serialized bs in
  Bs.checkpoint bs ~lsn:0;
  (match Bs.pager bs with Some p -> Pf.close (Pager.file p) | None -> ());
  (* reopen from the file alone, through a cold 3-block pool *)
  let pf = Pf.open_existing path in
  check "checkpointed file is clean" true (Pf.clean pf);
  let bs2 = Bs.of_page_file ~capacity:3 pf in
  check_str "reopen reproduces the document" expect (serialized bs2);
  check "reopen integrity" true (Bs.check_integrity bs2 = Ok ());
  check_int "descriptor count survives" (Bs.descriptor_count bs) (Bs.descriptor_count bs2);
  (* the reopened storage is live: it accepts updates and re-serializes *)
  let lib2 = List.hd (Bs.children bs2 (Bs.root bs2)) in
  ignore (Bs.insert_element bs2 ~parent:lib2 ~after:None (Name.local "postreopen"));
  check "reopened storage updatable" true (Bs.check_integrity bs2 = Ok ());
  (match Bs.pager bs2 with
  | Some p ->
    check "reopen faulted from disk" true ((Pager.stats p).Pager.reads > 0);
    Pf.close (Pager.file p)
  | None -> Alcotest.fail "of_page_file must attach a pager")

let reopen_refuses_unclean () =
  with_tmp @@ fun path ->
  let pf = Pf.create path in
  ignore (Pf.write_blob pf ~lsn:0 "data but no checkpoint");
  Pf.close pf;
  let pf = Pf.open_existing path in
  check "unclean file refused" true
    (match Bs.of_page_file ~capacity:2 pf with
    | exception Xsm_pager.Codec.Corrupt _ -> true
    | _ -> false);
  Pf.close pf

(* ---------------- the paging contract ---------------- *)

let shelf_doc books =
  let book i =
    Tree.element
      (Tree.elem "book"
         ~attrs:[ Tree.attr "id" (Printf.sprintf "b%d" i) ]
         ~children:
           [
             Tree.element (Tree.elem "title" ~children:[ Tree.Text (Printf.sprintf "Title %d" i) ]);
             Tree.element (Tree.elem "year" ~children:[ Tree.Text (string_of_int (1990 + i)) ]);
           ])
  in
  Tree.document (Tree.elem "shelf" ~children:(List.init books book))

(* [doc] checkpointed and reopened through a cold pool of [capacity]
   blocks, next to its in-memory twin (same block capacity, so both
   have the same descriptor layout) *)
let cold_twin path doc ~capacity =
  let store = Store.create () in
  let root = Convert.load store doc in
  let mem = Bs.of_store ~block_capacity:4 store root in
  let bs = Bs.of_store ~block_capacity:4 store root in
  let p = Bs.attach_pager bs ~capacity (Pf.create ~page_size:512 path) in
  Bs.checkpoint bs ~lsn:0;
  Pf.close (Pager.file p);
  let paged = Bs.of_page_file ~capacity (Pf.open_existing path) in
  (mem, paged, Option.get (Bs.pager paged))

let books bs = Bs.children bs (List.hd (Bs.children bs (Bs.root bs)))

let paging_contract () =
  with_tmp @@ fun path ->
  (* 10 books in blocks of 4: every extent's last block has room *)
  let mem, bs, p = cold_twin path (shelf_doc 10) ~capacity:3 in
  (* every skeleton accessor over every descriptor: no block access *)
  let visited = ref 0 in
  let rec walk d =
    incr visited;
    ignore (Bs.node_name d, Bs.nid d, Bs.left_sibling d, Bs.right_sibling d);
    (match Bs.parent d with
    | Some up -> check "first child by schema" true (Bs.first_child_by_schema up (Bs.snode d) <> None)
    | None -> ());
    List.iter walk (Bs.attributes bs d);
    List.iter walk (Bs.children bs d)
  in
  walk (Bs.root bs);
  check_int "every descriptor visited" (Bs.descriptor_count bs) !visited;
  check_int "navigation made no block access" 0 (Pager.stats p).Pager.accesses;
  (* one value read faults exactly its home block *)
  let title_text bs i = List.hd (Bs.children bs (List.hd (Bs.children bs (List.nth (books bs) i)))) in
  let text = title_text bs 0 in
  check_str "faulted value" (Bs.string_value mem (title_text mem 0)) (Bs.string_value bs text);
  let s = Pager.stats p in
  check_int "one access" 1 s.Pager.accesses;
  check_int "one fault" 1 s.Pager.reads;
  check_int "one resident block" 1 s.Pager.resident;
  check "the resident block is the text's home" true
    (Pager.touch p (Option.get (Bs.home_block_id text)) = `Hit);
  (* an insert into a cold block faults it before relinking its chain:
     faulting after would restore the old values positionally onto the
     new chain.  The text goes under a fresh [title], so linking it as
     a sibling touches only that element's block, and the text
     extent's block is reached by the placement alone. *)
  let insert bs =
    let book = List.nth (books bs) 9 in
    let title = List.hd (Bs.children bs book) in
    fst (Bs.insert_element bs ~parent:book ~after:(Some title) (Name.local "title"))
  in
  ignore (Bs.insert_text mem ~parent:(insert mem) ~after:None "added");
  let fresh = insert bs in
  Pager.clear p;
  let reads = (Pager.stats p).Pager.reads in
  let nd, moved = Bs.insert_text bs ~parent:fresh ~after:None "added" in
  check_int "no split" 0 moved;
  check "placed beside book 9's title text" true
    (Bs.home_block_id nd = Bs.home_block_id (title_text bs 9));
  check_int "the parent's block and the target block faulted" (reads + 2)
    (Pager.stats p).Pager.reads;
  check "the target block is resident" true
    (Pager.touch p (Option.get (Bs.home_block_id nd)) = `Hit);
  Pager.clear p;
  check_str "values survive write-back and re-fault" (serialized mem) (serialized bs);
  check "integrity" true (Bs.check_integrity bs = Ok ());
  Pf.close (Pager.file p)

(* two domains evaluate queries over one paged storage whose 2-block
   pool evicts constantly: each value read faults and reads in one
   critical section, so neither can see the other's eviction *)
let concurrent_readers () =
  with_tmp @@ fun path ->
  let mem, bs, p = cold_twin path (shelf_doc 24) ~capacity:2 in
  let queries = [ "//title"; "//book/year"; "//book[year > 2000]/title"; "/shelf/book/@id"; "//book" ] in
  let answers bs =
    List.map
      (fun q ->
        match Xsm_xpath.Eval.Over_storage.eval_string bs (Bs.root bs) q with
        | Ok ds -> List.map (Bs.string_value bs) ds
        | Error e -> Alcotest.failf "%s: %s" q e)
      queries
  in
  let expect = answers mem in
  let worker () = List.for_all (fun _ -> answers bs = expect) (List.init 100 Fun.id) in
  let d1 = Domain.spawn worker in
  let d2 = Domain.spawn worker in
  let ok1 = Domain.join d1 in
  let ok2 = Domain.join d2 in
  check "domain 1 agrees with the in-memory twin" true ok1;
  check "domain 2 agrees with the in-memory twin" true ok2;
  let s = Pager.stats p in
  check "values were evicted and re-faulted" true (s.Pager.evictions > 100 && s.Pager.reads > 100);
  Pf.close (Pager.file p)

(* ---------------- crash sweep: WAL-ordering invariant ---------------- *)

(* a value-heavy two-level document: enough top-level subtrees for
   many WAL records, enough text for many blocks *)
let sweep_doc sections =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "<root>";
  for i = 1 to sections do
    Buffer.add_string buf (Printf.sprintf "<sec id=\"s%d\">" i);
    for j = 1 to 6 do
      Buffer.add_string buf (Printf.sprintf "<item>payload %d.%d %s</item>" i j (String.make 40 'p'))
    done;
    Buffer.add_string buf "</sec>"
  done;
  Buffer.add_string buf "</root>";
  Buffer.contents buf

(* [sync_every] > 1 puts a periodic sync in flight while the 2-frame
   pool evicts, so write-back forces the log behind a background fsync *)
let crash_sweep ~sync_every () =
  let xml = sweep_doc 12 in
  let wal_path = Filename.temp_file "xsm-pager-crash" ".wal" in
  let cleanup p = if Sys.file_exists p then Sys.remove p in
  Fun.protect ~finally:(fun () -> cleanup wal_path) @@ fun () ->
  (* one paged load; [None] when the injected crash fired *)
  let load ?crash page_path =
    cleanup wal_path;
    let w =
      match Wal.Writer.create ?crash ~sync_every wal_path with
      | Ok w -> w
      | Error _ -> assert false
    in
    let bl = BL.create ~block_capacity:4 ~wal:w () in
    let bs = BL.storage bl in
    let pf = Pf.create ~page_size:512 page_path in
    ignore (Bs.attach_pager ~wal:(Wal.Writer.pager_hook w) bs ~capacity:2 pf);
    (* bulk load stamps one past the current record: the covering
       subtree record has not landed yet *)
    Bs.set_lsn_source bs (fun () -> Wal.Writer.lsn w + 1);
    let result =
      try
        let sax = Sax.of_string xml in
        let rec feed () = match Sax.next sax with
          | None -> ()
          | Some ev -> BL.feed bl ev; feed ()
        in
        feed ();
        ignore (BL.finish bl);
        Bs.checkpoint bs ~lsn:(Wal.Writer.lsn w);
        let n = Wal.Writer.records_written w in
        Wal.Writer.close w;
        Some n
      with Wal.Crashed -> None
    in
    Pf.close pf;
    result
  in
  (* the record count of a clean run of the same load *)
  let records = match with_tmp (fun p -> load p) with Some n -> n | None -> assert false in
  check "sweep has records" true (records > 3);
  for n = 0 to records do
    List.iter
      (fun partial_bytes ->
        with_tmp @@ fun page_path ->
        let crashed =
          Option.is_none
            (load
               ~crash:
                 { Wal.after_records = n; partial_bytes; fsync_fails = false; before_fsync = ignore }
               page_path)
        in
        check (Printf.sprintf "crash fires iff reachable (n=%d)" n) (n < records) crashed;
        (* THE invariant: whatever the crash point, no page on disk
           carries an LSN beyond the WAL's reader-visible synced
           prefix — recovery never meets unlogged page state *)
        let synced =
          match Wal.read wal_path with
          | Ok rr -> rr.Wal.synced_prefix
          | Error _ -> Alcotest.fail "wal unreadable after crash"
        in
        let pf = Pf.open_existing page_path in
        Pf.iter_pages pf (fun page ~kind ~lsn ->
            if kind = 1 && lsn > synced then
              Alcotest.failf
                "crash n=%d partial=%d: page %d has lsn %d past synced prefix %d" n
                partial_bytes page lsn synced);
        Pf.close pf)
      [ 0; 5 ]
  done

let suite =
  [
    ( "pager.page_file",
      [
        Alcotest.test_case "blob round-trips and reuse" `Quick page_file_roundtrip;
        Alcotest.test_case "corruption detected" `Quick page_file_corruption;
        Alcotest.test_case "clean-flag contract" `Quick page_file_clean_flag;
        Alcotest.test_case "codec skip readers" `Quick codec_skip_readers;
        Alcotest.test_case "byte codec: CRC-32 vectors, byte range" `Quick byte_codec_vectors;
        QCheck_alcotest.to_alcotest crc32_law;
        Alcotest.test_case "4 KiB crc32 windows at every alignment" `Quick
          crc32_page_windows;
      ] );
    ( "pager.2q",
      [
        Alcotest.test_case "ghost promotion to Am" `Quick twoq_ghost_promotion;
        Alcotest.test_case "scan resistance" `Quick twoq_scan_resistance;
        Alcotest.test_case "pin overflow" `Quick pin_overflow;
        Alcotest.test_case "WAL-ordered write-back" `Quick wal_ordered_write_back;
        Alcotest.test_case "untouched pool has no hit ratio" `Quick untouched_hit_ratio;
        QCheck_alcotest.to_alcotest pager_write_law;
        Alcotest.test_case "a raise inside a section releases the pool" `Quick
          pager_raise_releases_lock;
        Alcotest.test_case "paged WAL: one fsync per sync_every records" `Quick
          paged_wal_periodic_sync;
        Alcotest.test_case "write, touch and unpin allocate nothing" `Quick
          sections_allocate_nothing;
      ] );
    ( "pager.storage",
      [
        QCheck_alcotest.to_alcotest
          (Q.Test.make ~count:60 ~long_factor:20 ~name:"paged(capacity 2) = in-memory"
             (Q.make ~print:string_of_int Q.Gen.(int_bound 1_000_000))
             paged_equals_memory_law);
        Alcotest.test_case "checkpoint/reopen round-trip" `Quick checkpoint_reopen;
        Alcotest.test_case "unclean file refused" `Quick reopen_refuses_unclean;
        Alcotest.test_case "paging contract: navigation faults nothing" `Quick paging_contract;
        Alcotest.test_case "two domains over a 2-block pool" `Quick concurrent_readers;
        Alcotest.test_case "crash sweep: synced-prefix bound" `Quick (crash_sweep ~sync_every:1);
        Alcotest.test_case "crash sweep at sync_every 4: synced-prefix bound" `Quick
          (crash_sweep ~sync_every:4);
      ] );
  ]
