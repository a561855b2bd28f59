(* The [serve_*] workloads: a resident [xsm serve] daemon under a
   closed loop of two client connections.

   The daemon is one child process re-executed from this binary
   ([Server.create] / [Server.serve], one read domain).  Set-up is
   spawn -> first accepted handshake, so it covers the document load
   and the index or mirror build.  The load comes from this process:
   two systhreads, each holding one blocking [Client] session and
   sending its next request only when the previous reply is in.  They
   send a fixed number of requests between them (see [rate]), after an
   untimed warm-up of 5% as many.

   Every reply is checked against the seeded library model: a query's
   row count, a validation verdict, an update's acknowledgement.
   [serve_write] then kills the daemon with SIGKILL and recovers the
   snapshot base + WAL in a fresh child, which must hold every
   acknowledged write.  The kill leaves the OS page cache intact, so
   this checks acknowledgement ordering, not device durability. *)

module Server = Xsm_server.Server
module Client = Xsm_server.Client
module P = Xsm_server.Protocol
module Store = Xsm_xdm.Store
module Bs = Xsm_storage.Block_storage
module Snapshot = Xsm_persist.Snapshot
module Trace = Xsm_obs.Trace
module Clock = Xsm_obs.Clock
module Json = Xsm_obs.Json
module H = Harness

type workload = Read | Write | Paged

let name = function Read -> "serve_read" | Write -> "serve_write" | Paged -> "serve_paged"
let threads = 2

(* Document sizes.  [serve_read]'s is small: over 420 books, with runs
   interleaved on the same machine, its p99 spread 2.4 times and its
   peak RSS 9 times as much from run to run.  Its fallback share (see
   [read_deck]) is set so that fallbacks take 30-50% of the daemon's
   busy time.  [serve_paged]'s scans fault through a pool of a twelfth
   of the mirror's blocks at ~22 ms each, which still gives a 20 s run
   the 1000 samples a p99 needs. *)
let books w ~smoke =
  match w with
  | Read -> if smoke then 60 else 160
  | Write -> if smoke then 60 else 400
  | Paged -> if smoke then 100 else 160

let papers w ~smoke = books w ~smoke / 4

(* Requests per second of [--seconds].  The measured phase sends a
   fixed count, rate x seconds, so WAL sizes, recovery work and the
   daemon's memory repeat from run to run; the rates are set so the
   phase takes about [--seconds] on the 2-vCPU machine. *)
let rate = function Read -> 5800. | Write -> 3700. | Paged -> 92.

(* the last [zone] books take the writes; reads whose answer a write
   could change stay off them *)
let zone = 20

(* Traced runs keep every server span of the run in the daemon's ring
   and fetch them after the measured phase, so the ring is sized for
   the run and the run is capped to fit it: at most ~7 spans per
   request (request root, three phases, planner and validator spans). *)
let ring_capacity = 1 lsl 17
let traced_request_cap = 15_000
let rotation = 1000

type paths = { doc : string; snap : string; wal : string; pages : string; sock : string }

let paths dir =
  let f = Filename.concat dir in
  {
    doc = f "doc.xml";
    snap = f "base.snap";
    wal = f "live.wal";
    pages = f "mirror.pages";
    sock = f "s.sock";
  }

(* ------------------------------------------------------------------ *)
(* The daemon child                                                    *)

let server_child w ~dir ~traced ~pool_capacity =
  let p = paths dir in
  if traced then Trace.set_capacity ring_capacity;
  let store, root, labels =
    match w with
    | Write ->
      (* a fresh base invalidates any log a previous boot left *)
      if Sys.file_exists p.wal then Sys.remove p.wal;
      let store, root, labels, _ = H.ok_or_fail (Snapshot.load ~path:p.snap) in
      (store, root, labels)
    | Read | Paged ->
      let ic = open_in_bin p.doc in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let doc =
        Xsm_xml.Parser.parse_document text
        |> Result.map_error Xsm_xml.Parser.error_to_string
        |> H.ok_or_fail
      in
      let store = Store.create () in
      (store, Xsm_xdm.Convert.load store doc, None)
  in
  let config =
    {
      Server.socket_path = p.sock;
      snapshot_path = None;
      wal_path = (if w = Write then Some p.wal else None);
      domains = 1;
      group_commit = true;
      use_index = w <> Paged;
      page_file = (if w = Paged then Some p.pages else None);
      pool_capacity;
      flight_capacity = 256;
      slow_log = None;
      slow_threshold_ms = 10.0;
    }
  in
  let schema = if w = Write then Some Xsm_schema.Samples.library_schema else None in
  match Server.create config ~store ~root ?labels ?schema () with
  | Error e -> failwith e
  | Ok srv -> H.ok_or_fail (Server.serve ~on_ready:H.signal_ready srv)

(* Recovery after the kill: snapshot base + WAL in a fresh process.
   Prints the timings and the state the checks need: the titles of
   the papers the traffic inserted, and title and rev of each write
   zone book. *)
let recover_child ~dir ~zone_first =
  let p = paths dir in
  let r = H.recover ~snap:p.snap ~wal:p.wal in
  let store = r.H.store in
  let library = List.hd (Store.children store r.H.root) in
  let named n e = Store.node_name store e = Some (Xsm_xml.Name.local n) in
  let kids = Store.children store library in
  let child_text e n =
    match List.find_opt (named n) (Store.children store e) with
    | Some c -> Store.string_value store c
    | None -> ""
  in
  let new_papers =
    List.filter_map
      (fun e ->
        let t = child_text e "title" in
        if named "paper" e && String.starts_with ~prefix:"New " t then Some (Json.Str t)
        else None)
      kids
  in
  let books = List.filter (named "book") kids in
  let zone_books =
    List.filteri (fun i _ -> i + 1 >= zone_first) books
    |> List.mapi (fun i e ->
           let rev =
             match
               List.find_opt
                 (fun a -> Store.node_name store a = Some (Xsm_xml.Name.local "rev"))
                 (Store.attributes store e)
             with
             | Some a -> Store.string_value store a
             | None -> ""
           in
           Json.Arr [ Json.int (zone_first + i); Json.Str (child_text e "title"); Json.Str rev ])
  in
  print_endline
    (Json.to_string
       (H.recovery_json r [ ("papers", Json.Arr new_papers); ("books", Json.Arr zone_books) ]))

(* ------------------------------------------------------------------ *)
(* Traffic                                                             *)

type request =
  | Query of { path : string; rows : int; fallback : bool }
  | Update of { command : string; on_ack : unit -> unit }
  | Validate of { doc : string; valid : bool }

(* What a connection asks next is dealt from a deck that holds each
   kind of request in its exact share: shuffled, dealt to the end,
   reshuffled.  Proportions then hold over every hundred requests, not
   only on average, which keeps run-to-run noise down. *)
type card =
  | Heavy_fallback  (* parent step: navigational evaluation, milliseconds *)
  | Positional  (* positional predicate: navigational, cheap *)
  | Paper_probe
  | Paper_extent
  | Author_probe
  | Title_probe
  | Publisher_probe
  | Year_range
  | Issue_semijoin
  | Publisher_list
  | Paper_churn
  | Retitle
  | Rev
  | Rev_probe
  | Validate_ok
  | Validate_bad

type deck = { cards : card array; mutable next : int }

let deck spec =
  let cards = List.concat_map (fun (n, c) -> List.init n (fun _ -> c)) spec in
  { cards = Array.of_list cards; next = max_int }

(* [serve_read]: 91.5% index-routed reads — value point probes,
   [year<] ranges, structural paths, an existence semi-join — and 8.5%
   the planner hands to the navigational evaluator.  With one read
   domain, each fallback also holds up the request the other
   connection sends meanwhile, so the band of slow requests is wider
   still, and the p99 falls well inside it rather than at one of its
   edges, where it would jump from run to run. *)
let read_deck =
  [
    (12, Heavy_fallback); (5, Positional); (11, Paper_probe); (6, Paper_extent);
    (41, Author_probe); (21, Title_probe); (20, Publisher_probe); (41, Year_range);
    (22, Issue_semijoin); (21, Publisher_list);
  ]

(* [serve_write]: 45% updates, 45% indexed reads (a third of them
   reading the connection's own last write back), 10% validations. *)
let write_deck =
  [
    (22, Paper_churn); (12, Retitle); (11, Rev); (15, Rev_probe); (8, Author_probe); (4, Title_probe);
    (4, Publisher_probe); (8, Year_range); (3, Issue_semijoin); (3, Publisher_list); (9, Validate_ok);
    (1, Validate_bad);
  ]

(* [serve_paged]: navigational scans through the paged mirror (no
   index) and 5% writes no scan's answer depends on. *)
let paged_deck =
  [
    (3, Rev); (2, Retitle); (24, Year_range); (24, Author_probe); (24, Publisher_probe);
    (23, Publisher_list);
  ]

(* Per-connection state: its generator and deck, its samples, and the
   writes it has had acknowledged (the model the checks compare
   against). *)
type conn = {
  idx : int;
  rng : Random.State.t;
  deck : deck;
  reads : H.Samples.t;
  writes : H.Samples.t;
  all : H.Samples.t;
  mutable requests : int;
  mutable failed : int;
  mutable mismatches : string list;
  mutable seq : int;
  live : string Queue.t;  (* inserted papers, insert acked, delete not sent *)
  titles : (int, string) Hashtbl.t;  (* owned book -> last acked title *)
  revs : (int, string) Hashtbl.t;  (* owned book -> last acked rev *)
  mutable spans : (Trace.event * bool) list;  (* client span, fallback? *)
}

let new_conn ~seed w idx =
  {
    idx;
    rng = Random.State.make [| seed; Hashtbl.hash (name w); idx |];
    deck = deck (match w with Read -> read_deck | Write -> write_deck | Paged -> paged_deck);
    reads = H.Samples.create ();
    writes = H.Samples.create ();
    all = H.Samples.create ();
    requests = 0;
    failed = 0;
    mismatches = [];
    seq = 0;
    live = Queue.create ();
    titles = Hashtbl.create 16;
    revs = Hashtbl.create 16;
    spans = [];
  }

let deal c =
  let d = c.deck in
  if d.next >= Array.length d.cards then begin
    H.shuffle c.rng d.cards;
    d.next <- 0
  end;
  d.next <- d.next + 1;
  d.cards.(d.next - 1)

(* A book of the write zone this connection owns (connections own
   alternate books, so no two write the same one). *)
let zone_first (lib : H.library) = Array.length lib.H.books - zone + 1

let owned_book lib c = zone_first lib + (threads * Random.State.int c.rng (zone / threads)) + c.idx

let next_tag c =
  c.seq <- c.seq + 1;
  Printf.sprintf "%d-%d" c.idx c.seq

(* ~2 KB documents for [Validate]; the broken one has a book without
   its title, which the content model requires. *)
let validate_docs ~seed =
  let tree = H.library_tree (H.library ~seed:(seed + 7) ~books:12 ~papers:3) in
  let root = tree.Xsm_xml.Tree.root in
  let untitled =
    List.mapi
      (fun i n ->
        match n with
        | Xsm_xml.Tree.Element e when i = 3 ->
          Xsm_xml.Tree.Element { e with children = List.tl e.Xsm_xml.Tree.children }
        | n -> n)
      root.Xsm_xml.Tree.children
  in
  ( Xsm_xml.Printer.to_string tree,
    Xsm_xml.Printer.to_string { tree with root = { root with children = untitled } } )

let q ?(fallback = false) path rows = Query { path; rows; fallback }

(* The request a card stands for, with the row count the model
   predicts.  Title probes stay off the write zone, whose titles
   change; no read counts papers while papers come and go. *)
let rec request (lib : H.library) (valid_doc, broken_doc) c card =
  let books = Array.length lib.H.books in
  let pick n = Random.State.int c.rng n in
  let author () = Printf.sprintf "Author %d" (pick (H.author_pool books)) in
  let authors k = List.length lib.H.books.(k - 1).H.authors in
  match card with
  | Heavy_fallback -> q ~fallback:true "/library/paper/title/.." (Array.length lib.H.papers)
  | Positional ->
    let k = 1 + pick books in
    q ~fallback:true (Printf.sprintf "/library/book[%d]/author" k) (authors k)
  | Paper_probe ->
    let a = author () in
    q (Printf.sprintf "/library/paper[author=\"%s\"]/title" a) (H.papers_by_author lib a)
  | Paper_extent -> q "/library/paper/title" (Array.length lib.H.papers)
  | Author_probe ->
    let a = author () in
    q (Printf.sprintf "/library/book[author=\"%s\"]/title" a) (H.books_by_author lib a)
  | Title_probe ->
    let k = 1 + pick (books - zone) in
    q (Printf.sprintf "/library/book[title=\"Volume %d\"]/author" k) (authors k)
  | Publisher_probe ->
    let pb = H.publishers.(pick (Array.length H.publishers)) in
    q (Printf.sprintf "/library/book[issue/publisher=\"%s\"]/title" pb) (H.books_by_publisher lib pb)
  | Year_range ->
    let y = 1950 + pick 71 in
    q (Printf.sprintf "/library/book[issue/year<%d]/title" y) (H.books_year_below lib y)
  | Issue_semijoin -> q "/library/book[issue]/title" (H.books_with_issue lib)
  | Publisher_list -> q "/library/book/issue/publisher" (H.books_with_issue lib)
  | Paper_churn ->
    (* insert/delete pairs, appended after the last paper where the
       content model allows them *)
    if Queue.length c.live >= 4 || ((not (Queue.is_empty c.live)) && Random.State.bool c.rng) then
      let t = Queue.pop c.live in
      Update { command = Printf.sprintf "delete /library/paper[title=\"%s\"]" t; on_ack = ignore }
    else
      let t = "New " ^ next_tag c in
      Update
        {
          command =
            Printf.sprintf
              "insert /library <paper><title>%s</title><author>Author 0</author></paper>" t;
          on_ack = (fun () -> Queue.push t c.live);
        }
  | Retitle ->
    let k = owned_book lib c and tag = next_tag c in
    Update
      {
        command = Printf.sprintf "content /library/book[%d]/title/text() Rev %s" k tag;
        on_ack = (fun () -> Hashtbl.replace c.titles k ("Rev " ^ tag));
      }
  | Rev ->
    let k = owned_book lib c and tag = next_tag c in
    Update
      {
        command = Printf.sprintf "attr /library/book[%d] rev %s" k tag;
        on_ack = (fun () -> Hashtbl.replace c.revs k tag);
      }
  | Rev_probe -> (
    (* the connection's own last rev must be visible as soon as its
       update was acknowledged *)
    match Hashtbl.find_opt c.revs (owned_book lib c) with
    | Some v -> q (Printf.sprintf "/library/book[@rev=\"%s\"]/title" v) 1
    | None -> request lib (valid_doc, broken_doc) c Author_probe)
  | Validate_ok -> Validate { doc = valid_doc; valid = true }
  | Validate_bad -> Validate { doc = broken_doc; valid = false }

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)

let trace_id ~seed r = Printf.sprintf "%08x%08x" seed r

let kind_name = function Query _ -> "query" | Update _ -> "update" | Validate _ -> "validate"

let note c msg = if List.length c.mismatches < 10 then c.mismatches <- msg :: c.mismatches

(* Send one request, time its round trip, check the reply. *)
let perform c client ~trace ~record req =
  let span_id = 1 + c.idx + (threads * c.requests) in
  let ctx = Option.map (fun trace_id -> { P.trace_id; parent_span = span_id }) trace in
  let t0 = Clock.now_ns () in
  let outcome =
    try
      match req with
      | Query { path; rows; _ } -> (
        match Client.query ?trace:ctx client path with
        | Ok (_, values) ->
          let n = List.length values in
          if n = rows then `Ok
          else `Mismatch (Printf.sprintf "%s: %d rows, the model predicts %d" path n rows)
        | Error e -> `Failed (path ^ ": " ^ e))
      | Update { command; on_ack } -> (
        match Client.update ?trace:ctx client command with
        | Ok _ ->
          on_ack ();
          `Ok
        | Error e -> `Failed (command ^ ": " ^ e))
      | Validate { doc; valid } -> (
        match Client.validate ?trace:ctx client doc with
        | Ok (v, _) ->
          if v = valid then `Ok
          else `Mismatch (Printf.sprintf "validate: verdict %b, expected %b" v valid)
        | Error e -> `Failed ("validate: " ^ e))
    with e -> `Failed (Printexc.to_string e)
  in
  let t1 = Clock.now_ns () in
  (match outcome with
  | `Ok -> ()
  | `Failed e ->
    c.failed <- c.failed + 1;
    note c e
  | `Mismatch m -> note c m);
  if record then begin
    let ms = Int64.to_float (Int64.sub t1 t0) /. 1e6 in
    H.Samples.push c.all ms;
    (match req with
    | Query _ -> H.Samples.push c.reads ms
    | Update _ -> H.Samples.push c.writes ms
    | Validate _ -> ());
    c.requests <- c.requests + 1;
    match ctx with
    | None -> ()
    | Some { P.trace_id; _ } ->
      let ev : Trace.event =
        {
          id = span_id;
          parent = 0;
          name = "client." ^ kind_name req;
          start_ns = t0;
          dur_ns = Int64.sub t1 t0;
          depth = 0;
          attrs = [ ("trace", trace_id) ];
        }
      in
      c.spans <- (ev, match req with Query { fallback; _ } -> fallback | _ -> false) :: c.spans
  end

(* Both connections run [mix] until [requests] have been issued between
   them, or, on a machine far slower than the one the rates were set
   on, until [limit] seconds have passed; returns elapsed seconds. *)
let run_phase conns clients ~mix ~requests ~limit ~record ~trace =
  let issued = Atomic.make 0 in
  let t0 = Clock.now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (limit *. 1e9)) in
  let body (c, client) =
    try
      while Atomic.fetch_and_add issued 1 < requests && Int64.compare (Clock.now_ns ()) deadline < 0 do
        perform c client ~trace:(trace ()) ~record (mix c)
      done
    with e ->
      c.failed <- c.failed + 1;
      note c (Printexc.to_string e)
  in
  List.map Thread.(create body) (List.combine conns clients) |> List.iter Thread.join;
  Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e9

(* ------------------------------------------------------------------ *)
(* Per-layer breakdown from the merged spans                           *)

let offset = 1_000_000_000

(* The server's spans of one propagated trace id, moved onto this
   process's clock and id space: request roots hang off the client
   span named by their wire parent, as [xsm client --trace] does. *)
let fetch_trace control id =
  match Client.introspect control (P.Trace_events id) with
  | Error e -> failwith ("introspect: " ^ e)
  | Ok body ->
    let delta =
      Int64.of_float ((H.json_num [ "clock_epoch_s" ] body -. Clock.epoch_wall ()) *. 1e9)
    in
    let events =
      match Json.member "events" body with
      | Some (Json.Arr items) ->
        List.filter_map (fun j -> Result.to_option (Trace.event_of_json j)) items
      | _ -> []
    in
    List.map
      (fun (e : Trace.event) ->
        let parent =
          if e.parent <> 0 then e.parent + offset
          else match List.assoc_opt "wire_parent" e.attrs with Some p -> int_of_string p | None -> 0
        in
        let start_ns = Int64.add e.start_ns delta in
        { e with id = e.id + offset; parent; depth = e.depth + 1; start_ns })
      events

(* Span duration minus the union of its children's intervals. *)
let self_times events =
  let kids = Hashtbl.create 1024 in
  List.iter (fun (e : Trace.event) -> Hashtbl.add kids e.parent e) events;
  List.map
    (fun (e : Trace.event) ->
      let stop = Int64.add e.start_ns e.dur_ns in
      let ivs =
        Hashtbl.find_all kids e.id
        |> List.map (fun (k : Trace.event) ->
               (max k.start_ns e.start_ns, min (Int64.add k.start_ns k.dur_ns) stop))
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if Int64.compare b a > 0 then (Int64.add acc (Int64.sub b a), b) else (acc, reach))
          (0L, e.start_ns) ivs
      in
      (e, Int64.to_float (Int64.sub e.dur_ns covered)))
    events

let span_layers client_spans server_events =
  let selfs = self_times server_events in
  let total name =
    List.fold_left (fun s ((e : Trace.event), t) -> if e.name = name then s +. t else s) 0. selfs
  in
  let count name =
    List.length (List.filter (fun ((e : Trace.event), _) -> e.name = name) client_spans)
  in
  let n_req = float_of_int (max 1 (List.length client_spans)) in
  let per n x = if n = 0 then 0. else x /. 1e3 /. float_of_int n in
  let clients = Hashtbl.create 4096 in
  List.iter (fun ((e : Trace.event), fb) -> Hashtbl.replace clients e.id (e, fb)) client_spans;
  let is_root (e : Trace.event) =
    List.mem e.name [ "serve.query"; "serve.update"; "serve.validate" ] && Hashtbl.mem clients e.parent
  in
  let roots = List.filter is_root server_events in
  let busy = List.fold_left (fun s (e : Trace.event) -> s +. Int64.to_float e.dur_ns) 0. roots in
  let fallback_ns, overhead_ns =
    List.fold_left
      (fun (fb, ov) (e : Trace.event) ->
        let (c : Trace.event), is_fb = Hashtbl.find clients e.parent in
        ( (if is_fb then fb +. Int64.to_float e.dur_ns else fb),
          ov +. Int64.to_float (Int64.sub c.dur_ns e.dur_ns) ))
      (0., 0.) roots
  in
  let m = H.metric in
  let matched = List.length roots in
  [
    m "server.roundtrip_overhead_us" "us" (per matched overhead_ns) ~samples:matched;
    m "server.lock_wait_us" "us" (total "serve.lock" /. 1e3 /. n_req);
    m "server.latch_wait_us" "us" (total "serve.latch" /. 1e3 /. n_req);
    m "server.pool_wait_us" "us" (total "serve.pool" /. 1e3 /. n_req);
    m "server.commit_us" "us" (per (count "client.update") (total "serve.commit"));
    m "server.fsync_us" "us" (per (count "client.update") (total "serve.wal.fsync"));
    m "xpath.plan_us" "us" (per (count "client.query") (total "serve.plan"));
    m "xpath.eval_us" "us" (per (count "client.query") (total "serve.eval"));
    m "xpath.fallback_time_share" "ratio" (if busy > 0. then fallback_ns /. busy else 0.);
    m "core.validate_us" "us" (per (count "client.validate") (total "serve.validate"));
  ]

(* Layer rows read off the daemon's registry: deltas over the measured
   phase of two [Stats] replies. *)
let registry_layers w ~s0 ~s1 ~requests ~pool_capacity ~blocks =
  let d path = H.json_num path s1 -. H.json_num path s0 in
  let counter n = d [ "metrics"; "counters"; n ] in
  let hsum n = d [ "metrics"; "histograms"; n; "sum" ] in
  let per_op x = x /. float_of_int (max 1 requests) in
  let accesses = d [ "pager"; "accesses" ] in
  let m = H.metric in
  [
    m "pager.writeback_us_per_op" "us" (per_op (hsum "pager.writeback_ns" /. 1e3));
    m "pager.writes_per_op" "count" (per_op (d [ "pager"; "writes" ]));
    m "pager.evictions_per_op" "count" (per_op (d [ "pager"; "evictions" ]));
    m "pager.accesses_per_op" "count" (per_op accesses);
    m "pager.faults_per_op" "count" (per_op (d [ "pager"; "reads" ]));
    m "pager.hit_ratio" "ratio" (if accesses > 0. then d [ "pager"; "hits" ] /. accesses else 0.);
    m "storage.blocks_per_frame" "ratio"
      (if w = Paged then float_of_int blocks /. float_of_int pool_capacity else 0.);
    m "persist.wal_append_us_per_op" "us" (per_op (hsum "wal.append_ns" /. 1e3));
    m "persist.wal_fsync_us_per_op" "us" (per_op (hsum "wal.fsync_ns" /. 1e3));
    m "persist.wal_syncs_per_op" "count" (per_op (counter "wal.syncs"));
    m "server.commit_mean_batch" "count"
      (let b = d [ "server"; "commit"; "batches" ] in
       if b > 0. then d [ "server"; "commit"; "submissions" ] /. b else 0.);
    m "xpath.fallback_share" "ratio"
      (let qs = counter "server.queries" in
       if qs > 0. then counter "planner.fallbacks" /. qs else 0.);
    m "index.maintain_us_per_op" "us" (per_op (hsum "planner.drain_ns" /. 1e3));
    m "index.epochs" "count" (counter "planner.epochs");
    m "index.vi_drops" "count" (counter "planner.vi_drops");
    m "gc.major_collections" "count" (d [ "metrics"; "gauges"; "runtime.major_collections" ]);
  ]

(* ------------------------------------------------------------------ *)
(* One run                                                             *)

let chrome_rotations = 5

let prepare w p ~seed ~smoke =
  let lib = H.library ~seed ~books:(books w ~smoke) ~papers:(papers w ~smoke) in
  H.write_library p.doc lib;
  let store = Store.create () in
  let root = Xsm_xdm.Convert.load store (H.library_tree lib) in
  let blocks =
    match w with
    | Paged -> Bs.block_count (Bs.of_store store root)
    | Read -> 0
    | Write ->
      let labels = Xsm_numbering.Labeler.label_tree store root in
      ignore (H.ok_or_fail (Snapshot.save ~labels ~path:p.snap store root));
      0
  in
  (lib, blocks)

(* set-up: spawn -> first accepted handshake; the last daemon stays *)
let boot args p ~setups =
  let rec go k acc =
    let t0 = Clock.now_ns () in
    let child = H.spawn ?cpu:(Option.map fst (Lazy.force H.placement)) args in
    H.await_ready child;
    let control = H.ok_or_fail (Client.connect ~client:"ledger-control" p.sock) in
    let s = H.since_ns t0 /. 1e9 in
    if k = 1 then (child, control, List.rev (s :: acc))
    else begin
      ignore (H.ok_or_fail (Client.shutdown control));
      Client.close control;
      H.wait child;
      go (k - 1) (s :: acc)
    end
  in
  go setups []

(* The state a fresh recovery must show: every paper whose insert was
   acknowledged and whose delete was not sent, and each owned book's
   last acknowledged title and rev. *)
let check_recovery conns recovered =
  let errors = ref [] in
  let expected =
    List.concat_map (fun c -> List.of_seq (Queue.to_seq c.live)) conns |> List.sort compare
  in
  let got = H.json_strings "papers" recovered |> List.sort compare in
  if got <> expected then
    errors :=
      Printf.sprintf "recovered %d inserted papers, %d acknowledged and not deleted" (List.length got)
        (List.length expected)
      :: !errors;
  let books =
    match Json.member "books" recovered with
    | Some (Json.Arr bs) ->
      List.filter_map
        (function
          | Json.Arr [ Json.Num k; Json.Str t; Json.Str r ] -> Some (int_of_float k, (t, r))
          | _ -> None)
        bs
    | _ -> []
  in
  List.iter
    (fun c ->
      let check tbl pick what =
        Hashtbl.iter
          (fun k v ->
            match List.assoc_opt k books with
            | Some b when pick b = v -> ()
            | _ -> errors := Printf.sprintf "book %d lost its acknowledged %s %S" k what v :: !errors)
          tbl
      in
      check c.titles fst "title";
      check c.revs snd "rev")
    conns;
  !errors

let run w ~seed ~seconds ~setups ~smoke ~traced ~trace_dir =
  H.with_workdir (name w) @@ fun dir ->
  let p = paths dir in
  let lib, blocks = prepare w p ~seed ~smoke in
  (* the pool holds at most a tenth of the mirror's blocks *)
  let pool_capacity = if w = Paged then max 2 (blocks / 12) else 2 in
  let errors = ref [] in
  if w = Paged && pool_capacity * 10 > blocks then
    errors :=
      Printf.sprintf "pool %d is more than a tenth of %d blocks" pool_capacity blocks :: !errors;
  let args = [ "--serve-child"; name w; dir; string_of_bool traced; string_of_int pool_capacity ] in
  let server, control, setup_times = boot args p ~setups in
  let stats () = H.ok_or_fail (Client.stats control) in
  let conns = List.init threads (new_conn ~seed w) in
  let clients = List.map (fun _ -> H.ok_or_fail (Client.connect ~client:"ledger" p.sock)) conns in
  let docs = validate_docs ~seed in
  let mix c = request lib docs c (deal c) in
  let requests = max 1 (int_of_float (rate w *. seconds)) in
  let requests = if traced then min requests traced_request_cap else requests in
  let limit = 3. *. seconds in
  ignore
    (run_phase conns clients ~mix ~requests:(max 1 (requests / 20)) ~limit ~record:false
       ~trace:(fun () -> None));
  let s0 = stats () in
  let w0 = Gc.minor_words () in
  let measured = Atomic.make 0 in
  let trace () =
    if traced then Some (trace_id ~seed (Atomic.fetch_and_add measured 1 / rotation)) else None
  in
  let elapsed = run_phase conns clients ~mix ~requests ~limit ~record:true ~trace in
  let w1 = Gc.minor_words () in
  let s1 = stats () in
  let rss = float_of_int (H.vmhwm_kb server.H.pid) /. 1024. in
  List.iter Client.close clients;
  let requests = List.fold_left (fun n c -> n + c.requests) 0 conns in
  let span_rows =
    if not traced then []
    else begin
      let rotations = (Atomic.get measured + rotation - 1) / rotation in
      let server_events =
        List.concat (List.init rotations (fun r -> fetch_trace control (trace_id ~seed r)))
      in
      let client_spans = List.concat_map (fun c -> c.spans) conns in
      if H.json_num [ "metrics"; "counters"; "obs.trace.dropped" ] s1 > 0. then
        errors := "the daemon's span ring dropped spans" :: !errors;
      (match trace_dir with
      | None -> ()
      | Some d -> (
        let early (e : Trace.event) =
          match List.assoc_opt "trace" e.attrs with
          | Some id -> id < trace_id ~seed chrome_rotations
          | None -> false
        in
        let by_start (a : Trace.event) (b : Trace.event) = Int64.compare a.start_ns b.start_ns in
        let cl = List.sort by_start (List.filter early (List.map fst client_spans)) in
        let sv = List.filter early server_events in
        match
          Trace.write_chrome_groups
            (Filename.concat d ("trace_" ^ name w ^ ".json"))
            [ (1, "ledger client", cl); (2, "xsm serve", sv) ]
        with
        | Ok () -> ()
        | Error e -> errors := e :: !errors));
      span_layers client_spans server_events
    end
  in
  let recovery_rows =
    match w with
    | Write ->
      H.kill server;
      let wal_bytes = H.file_size p.wal in
      let rc = H.spawn [ "--recover-child"; dir; string_of_int (zone_first lib) ] in
      let line = H.read_line rc in
      H.wait rc;
      let r =
        match Option.map Json.parse line with
        | Some (Ok j) -> j
        | _ -> failwith "recovery child printed no result"
      in
      errors := check_recovery conns r @ !errors;
      let updates = List.fold_left (fun n c -> n + H.Samples.length c.writes) 0 conns in
      let replayed = H.json_num [ "replayed" ] r in
      let snap_ms = H.json_num [ "snapshot_ms" ] r and replay_ms = H.json_num [ "replay_ms" ] r in
      [
        H.metric "recover_s" "s" ((snap_ms +. replay_ms) /. 1e3) ~samples:(int_of_float replayed);
        H.metric "persist.wal_bytes_per_op" "B"
          (float_of_int wal_bytes /. float_of_int (max 1 updates));
        H.metric "persist.snapshot_load_ms" "ms" snap_ms;
        H.metric "persist.replay_us_per_op" "us" (replay_ms *. 1e3 /. Float.max 1. replayed);
      ]
    | Read | Paged ->
      ignore (H.ok_or_fail (Client.shutdown control));
      Client.close control;
      H.wait server;
      []
  in
  if w = Paged then begin
    if H.json_at [ "pager" ] s1 = None then
      errors := "the paged mirror was detached: queries no longer ran through the pager" :: !errors
    else if H.json_num [ "pager"; "evictions" ] s1 <= H.json_num [ "pager"; "evictions" ] s0 then
      errors := "the pool evicted nothing: the working set fit in the cache" :: !errors
  end;
  (* the fallback share is chosen for this band; outside it, one of the
     two gains serve_read is meant to show would hide *)
  (if w = Read && traced && not smoke then
     match List.find_opt (fun (m : H.metric) -> m.name = "xpath.fallback_time_share") span_rows with
     | Some m when m.value >= 0.30 && m.value <= 0.50 -> ()
     | Some m ->
       errors :=
         Printf.sprintf "fallback queries took %.1f%% of the daemon's time, outside 30-50%%"
           (100. *. m.value)
         :: !errors
     | None -> errors := "no fallback time share measured" :: !errors);
  if requests < 1000 && not smoke then
    errors := Printf.sprintf "only %d latency samples, a p99 needs 1000" requests :: !errors;
  let min_p99 = if smoke then 0 else 1000 in
  let samples f = H.Samples.concat (List.map f conns) in
  let rows =
    [
      H.metric "setup_s" "s" (H.median_of_list setup_times) ~samples:(List.length setup_times);
      H.metric "ops_per_s" "1/s" (float_of_int requests /. elapsed) ~samples:requests;
    ]
    @ H.latency_rows ~min_p99 "" (samples (fun c -> c.all))
    @ [ H.metric "peak_rss_mb" "MB" rss ]
    @ H.latency_rows ~min_p99 "read_" (samples (fun c -> c.reads))
    @ H.latency_rows ~min_p99 "write_" (samples (fun c -> c.writes))
    @ recovery_rows @ span_rows
    @ registry_layers w ~s0 ~s1 ~requests ~pool_capacity ~blocks
    @ [
        H.metric "gc.minor_words_per_op" "words"
          ((w1 -. w0) /. float_of_int (max 1 requests));
      ]
  in
  let failed = List.fold_left (fun n c -> n + c.failed) 0 conns in
  {
    H.rows;
    attempted = requests;
    failed;
    errors = List.rev !errors @ List.concat_map (fun c -> List.rev c.mismatches) conns;
  }
