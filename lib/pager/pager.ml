module Counter = Xsm_obs.Metrics.Counter
module Histogram = Xsm_obs.Metrics.Histogram

let m_accesses = Counter.make ~help:"block accesses through the pager" "pager.accesses"
let m_hits = Counter.make ~help:"accesses answered from the pool" "pager.hits"
let m_reads = Counter.make ~help:"block faults served from the page file" "pager.reads"
let m_writes = Counter.make ~help:"block images written to the page file" "pager.writes"
let m_evictions = Counter.make ~help:"blocks evicted from the pool" "pager.evictions"
let m_overflows = Counter.make ~help:"faults admitted past capacity (all frames pinned or WAL-held)" "pager.pin_overflows"
let h_writeback = Histogram.make ~help:"dirty block write-back latency (ns)" "pager.writeback_ns"

type handlers = {
  serialize : int -> string;
  deserialize : int -> string -> unit;
  on_evict : int -> unit;
}

type wal_hook = {
  current_lsn : unit -> int;
  synced_lsn : unit -> int;
  force : int -> unit;
}

type queue_id = Q_none | Q_a1in | Q_am | Q_ghost

type frame = {
  f_id : int;
  mutable q : queue_id;
  mutable f_prev : frame option;
  mutable f_next : frame option;
  mutable pins : int;
  mutable dirty : bool;
  mutable lsn : int;  (* newest WAL LSN covering unflushed changes / last image *)
  mutable head : int;  (* blob head page, 0 = never written *)
}

(* intrusive doubly-linked queue: a frame is in at most one *)
type queue = { mutable qh : frame option; mutable qt : frame option; mutable qsize : int }

let q_create () = { qh = None; qt = None; qsize = 0 }

let q_push_front q f =
  f.f_prev <- None;
  f.f_next <- q.qh;
  (match q.qh with Some h -> h.f_prev <- Some f | None -> q.qt <- Some f);
  q.qh <- Some f;
  q.qsize <- q.qsize + 1

let q_remove q f =
  (match f.f_prev with Some p -> p.f_next <- f.f_next | None -> q.qh <- f.f_next);
  (match f.f_next with Some n -> n.f_prev <- f.f_prev | None -> q.qt <- f.f_prev);
  f.f_prev <- None;
  f.f_next <- None;
  q.qsize <- q.qsize - 1

type t = {
  file : Page_file.t;
  capacity : int;
  handlers : handlers;
  wal : wal_hook option;
  frames : (int, frame) Hashtbl.t;
  a1in : queue;  (* first-touch FIFO: scans live and die here *)
  am : queue;  (* re-referenced working set, LRU *)
  ghost : queue;  (* A1out: ids recently evicted from A1in *)
  lock : Mutex.t;
  mutable dirty_count : int;
  c_accesses : Counter.cell;
  c_hits : Counter.cell;
  c_reads : Counter.cell;
  c_writes : Counter.cell;
  c_evictions : Counter.cell;
  c_overflows : Counter.cell;
}

(* one critical section; a handler or WAL hook that raises inside it
   (a write error, an injected crash) still releases the mutex.  The
   hot sections ([touch], [read], [unpin], [register_new], [write])
   spell this out as [Mutex.lock]; [match .. with exception] so that
   entering them builds no closure. *)
let unlock_reraise t e =
  let bt = Printexc.get_raw_backtrace () in
  Mutex.unlock t.lock;
  Printexc.raise_with_backtrace e bt

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e -> unlock_reraise t e

let resident_count t = t.a1in.qsize + t.am.qsize
let is_resident f = match f.q with Q_a1in | Q_am -> true | Q_none | Q_ghost -> false

(* checkpoint metadata blob: the block directory (block id -> blob
   head page), then the client's own metadata payload *)
let encode_meta t client_meta =
  let w = Codec.W.create ~initial:(256 + String.length client_meta) () in
  let with_head = Hashtbl.fold (fun _ f acc -> if f.head <> 0 then f :: acc else acc) t.frames [] in
  Codec.W.varint w (List.length with_head);
  List.iter
    (fun f ->
      Codec.W.varint w f.f_id;
      Codec.W.varint w f.head)
    with_head;
  Codec.W.string w client_meta;
  Codec.W.contents w

let decode_meta payload =
  let r = Codec.R.of_string payload in
  let n = Codec.R.varint r in
  let dir =
    List.init n (fun _ ->
        let id = Codec.R.varint r in
        let head = Codec.R.varint r in
        (id, head))
  in
  let meta = Codec.R.string r in
  if not (Codec.R.at_end r) then raise (Codec.Corrupt "trailing bytes in pager metadata");
  (dir, meta)

let read_meta file =
  match Page_file.meta_page file with
  | None -> None
  | Some page ->
    let payload, _lsn = Page_file.read_blob file page in
    Some (decode_meta payload)

let create ~capacity ~handlers ?wal file =
  if capacity < 2 then invalid_arg "Pager.create: capacity < 2";
  let t =
    {
      file;
      capacity;
      handlers;
      wal;
      frames = Hashtbl.create 256;
      a1in = q_create ();
      am = q_create ();
      ghost = q_create ();
      lock = Mutex.create ();
      dirty_count = 0;
      c_accesses = Counter.cell m_accesses;
      c_hits = Counter.cell m_hits;
      c_reads = Counter.cell m_reads;
      c_writes = Counter.cell m_writes;
      c_evictions = Counter.cell m_evictions;
      c_overflows = Counter.cell m_overflows;
    }
  in
  (* a reopened file brings its block directory along: every known
     block starts cold, faultable from its blob *)
  (match read_meta file with
  | None -> ()
  | Some (dir, _meta) ->
    List.iter
      (fun (id, head) ->
        Hashtbl.replace t.frames id
          { f_id = id; q = Q_none; f_prev = None; f_next = None; pins = 0; dirty = false;
            lsn = 0; head })
      dir);
  t

let frame_exn t id =
  match Hashtbl.find t.frames id with
  | f -> f
  | exception Not_found -> invalid_arg (Printf.sprintf "Pager: unknown block %d" id)

(* ------------------------------------------------------------------ *)
(* Write-back, ordered against the WAL *)

let flush_frame t f =
  let payload = t.handlers.serialize f.f_id in
  (* the invariant: a page image reaches disk only after the WAL
     records covering its changes are fsynced *)
  (match t.wal with
  | Some w when f.lsn > w.synced_lsn () -> w.force f.lsn
  | _ -> ());
  let t0 = Xsm_obs.Clock.now_ns () in
  let head = Page_file.write_blob t.file ?head:(if f.head = 0 then None else Some f.head) ~lsn:f.lsn payload in
  Histogram.observe h_writeback (Int64.to_float (Int64.sub (Xsm_obs.Clock.now_ns ()) t0));
  f.head <- head;
  if f.dirty then begin
    f.dirty <- false;
    t.dirty_count <- t.dirty_count - 1
  end;
  Counter.cell_incr t.c_writes

(* a dirty frame whose covering WAL record does not exist yet (bulk
   load logs a subtree only once complete), or can no longer be made
   durable (the log failed a sync), cannot be stolen: flushing it would
   put unlogged state on disk *)
let wal_held t (f : frame) =
  f.dirty
  && match t.wal with Some w -> f.lsn > w.current_lsn () | None -> false

let ghost_capacity t = max 1 (t.capacity / 2)

let trim_ghost t =
  while t.ghost.qsize > ghost_capacity t do
    match t.ghost.qt with
    | Some f ->
      q_remove t.ghost f;
      f.q <- Q_none
    | None -> ()
  done

let rec evict_one t ~protect =
  let victim_in q =
    let rec go = function
      | None -> None
      | Some f ->
        if f.pins = 0 && (not (f == protect)) && not (wal_held t f) then Some f
        else go f.f_prev
    in
    go q.qt
  in
  let kin = max 1 (t.capacity / 4) in
  let victim =
    if t.a1in.qsize >= kin then
      match victim_in t.a1in with Some f -> Some f | None -> victim_in t.am
    else
      match victim_in t.am with Some f -> Some f | None -> victim_in t.a1in
  in
  match victim with
  | None -> false
  | Some f -> (
    match if f.dirty then flush_frame t f with
    | exception _ when wal_held t f ->
      (* the log failed while this frame waited for its force: it is
         held now, and another frame makes the room *)
      evict_one t ~protect
    | () ->
      t.handlers.on_evict f.f_id;
      q_remove (if f.q = Q_a1in then t.a1in else t.am) f;
      (* only first-touch evictions leave a ghost: an Am eviction already
         had its chance and re-earns residency from scratch *)
      if f.q = Q_a1in then begin
        f.q <- Q_ghost;
        q_push_front t.ghost f;
        trim_ghost t
      end
      else f.q <- Q_none;
      Counter.cell_incr t.c_evictions;
      true)

let ensure_room t ~protect =
  let gave_up = ref false in
  while resident_count t >= t.capacity && not !gave_up do
    if not (evict_one t ~protect) then begin
      Counter.cell_incr t.c_overflows;
      gave_up := true
    end
  done

(* ------------------------------------------------------------------ *)
(* The client interface *)

(* one access under the pool mutex: count it, fault the block in if
   cold (evicting under 2Q to make room), refresh its queue position *)
let access_locked ~scan t f =
  Counter.cell_incr t.c_accesses;
  if is_resident f then begin
    Counter.cell_incr t.c_hits;
    if f.q = Q_am then begin
      q_remove t.am f;
      q_push_front t.am f
    end;
    `Hit
  end
  else begin
    ensure_room t ~protect:f;
    if f.head <> 0 then begin
      let payload, _lsn = Page_file.read_blob t.file f.head in
      t.handlers.deserialize f.f_id payload;
      Counter.cell_incr t.c_reads
    end;
    let was_ghost = f.q = Q_ghost in
    if was_ghost then q_remove t.ghost f;
    (* 2Q admission: a ghost hit proves re-reference — promote to
       the working set; a first touch (or a hinted scan) only earns
       the FIFO *)
    if was_ghost && not scan then begin
      f.q <- Q_am;
      q_push_front t.am f
    end
    else begin
      f.q <- Q_a1in;
      q_push_front t.a1in f
    end;
    `Miss
  end

let touch ?(pin = false) ?(scan = false) t id =
  Mutex.lock t.lock;
  match
    let f = frame_exn t id in
    let result = access_locked ~scan t f in
    if pin then f.pins <- f.pins + 1;
    result
  with
  | result ->
    Mutex.unlock t.lock;
    result
  | exception e -> unlock_reraise t e

let read t id reader =
  Mutex.lock t.lock;
  match
    ignore (access_locked ~scan:false t (frame_exn t id));
    reader ()
  with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e -> unlock_reraise t e

let unpin t id =
  Mutex.lock t.lock;
  match
    let f = frame_exn t id in
    if f.pins <= 0 then invalid_arg (Printf.sprintf "Pager.unpin: block %d is not pinned" id);
    f.pins <- f.pins - 1
  with
  | () -> Mutex.unlock t.lock
  | exception e -> unlock_reraise t e

let set_dirty t f ~lsn =
  if not f.dirty then begin
    f.dirty <- true;
    t.dirty_count <- t.dirty_count + 1
  end;
  if lsn > f.lsn then f.lsn <- lsn

let register_new ?lsn t id =
  Mutex.lock t.lock;
  match
    if Hashtbl.mem t.frames id then
      invalid_arg (Printf.sprintf "Pager.register_new: block %d already registered" id);
    let f =
      { f_id = id; q = Q_none; f_prev = None; f_next = None; pins = 0; dirty = false;
        lsn = 0; head = 0 }
    in
    Hashtbl.replace t.frames id f;
    ensure_room t ~protect:f;
    f.q <- Q_a1in;
    q_push_front t.a1in f;
    match lsn with Some lsn -> set_dirty t f ~lsn | None -> ()
  with
  | () -> Mutex.unlock t.lock
  | exception e -> unlock_reraise t e

let write ?(pin = false) t id ~lsn =
  Mutex.lock t.lock;
  match
    let f = frame_exn t id in
    ignore (access_locked ~scan:false t f);
    if pin then f.pins <- f.pins + 1;
    set_dirty t f ~lsn
  with
  | () -> Mutex.unlock t.lock
  | exception e -> unlock_reraise t e

let mark_dirty t id ~lsn =
  locked t (fun () ->
      let f = frame_exn t id in
      if not (is_resident f) then
        invalid_arg (Printf.sprintf "Pager.mark_dirty: block %d is not resident" id);
      set_dirty t f ~lsn)

let flush_all_locked t =
  Hashtbl.iter (fun _ f -> if is_resident f && f.dirty then flush_frame t f) t.frames

let flush_all t = locked t (fun () -> flush_all_locked t)

let checkpoint t ~lsn ~meta =
  locked t (fun () ->
      flush_all_locked t;
      (* a resident block that never reached disk (created and never
         dirtied) still needs its image for the reopen path *)
      Hashtbl.iter (fun _ f -> if is_resident f && f.head = 0 then flush_frame t f) t.frames;
      let blob = encode_meta t meta in
      let meta_page =
        Page_file.write_blob t.file
          ?head:(Page_file.meta_page t.file)
          ~lsn blob
      in
      Page_file.set_checkpoint t.file ~lsn ~meta_page)

let clear t =
  locked t (fun () ->
      flush_all_locked t;
      Hashtbl.iter
        (fun _ f ->
          if is_resident f then begin
            t.handlers.on_evict f.f_id;
            q_remove (if f.q = Q_a1in then t.a1in else t.am) f;
            f.q <- Q_none
          end
          else if f.q = Q_ghost then begin
            q_remove t.ghost f;
            f.q <- Q_none
          end)
        t.frames)

let blob_head t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.frames id with
      | Some f when f.head <> 0 -> Some f.head
      | _ -> None)

let file t = t.file

(* defined after every [frame]/[t] field access above: the colliding
   labels (dirty, capacity, resident) must not capture inference *)
type stats = {
  accesses : int;
  hits : int;
  reads : int;
  writes : int;
  evictions : int;
  pin_overflows : int;
  resident : int;
  dirty : int;
  capacity : int;
}

let hit_ratio s =
  if s.accesses = 0 then None else Some (float_of_int s.hits /. float_of_int s.accesses)

let stats t =
  locked t (fun () ->
      {
        accesses = Counter.cell_value t.c_accesses;
        hits = Counter.cell_value t.c_hits;
        reads = Counter.cell_value t.c_reads;
        writes = Counter.cell_value t.c_writes;
        evictions = Counter.cell_value t.c_evictions;
        pin_overflows = Counter.cell_value t.c_overflows;
        resident = resident_count t;
        dirty = t.dirty_count;
        capacity = t.capacity;
      })

let stats_json s =
  let module J = Xsm_obs.Json in
  J.Obj
    [
      ("capacity", J.int s.capacity);
      ("resident", J.int s.resident);
      ("dirty", J.int s.dirty);
      ("accesses", J.int s.accesses);
      ("hits", J.int s.hits);
      ("reads", J.int s.reads);
      ("writes", J.int s.writes);
      ("evictions", J.int s.evictions);
      ("pin_overflows", J.int s.pin_overflows);
      ( "hit_ratio",
        match hit_ratio s with None -> J.Null | Some r -> J.Num r );
    ]

let reset_stats t =
  locked t (fun () ->
      Counter.cell_reset t.c_accesses;
      Counter.cell_reset t.c_hits;
      Counter.cell_reset t.c_reads;
      Counter.cell_reset t.c_writes;
      Counter.cell_reset t.c_evictions;
      Counter.cell_reset t.c_overflows)
