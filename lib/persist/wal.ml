module Store = Xsm_xdm.Store
module Update = Xsm_schema.Update
module Name = Xsm_xml.Name
module Counter = Xsm_obs.Metrics.Counter
module Histogram = Xsm_obs.Metrics.Histogram

let m_records = Counter.make ~help:"records appended to the log" "wal.records"
let m_syncs = Counter.make ~help:"fsync calls issued" "wal.syncs"
let h_append = Histogram.make ~help:"record append latency (ns, excluding fsync)" "wal.append_ns"
let h_fsync = Histogram.make ~help:"fsync latency (ns)" "wal.fsync_ns"

type addr = Node of int list | Attribute of int list * Name.t

type op =
  | Insert_element of { parent : int list; index : int; fragment : Xsm_xml.Tree.element }
  | Insert_text of { parent : int list; index : int; text : string }
  | Delete of addr
  | Replace_content of addr * string
  | Set_attribute of { element : int list; name : Name.t; value : string }

let pp_path ppf p =
  Format.fprintf ppf "/%s" (String.concat "/" (List.map string_of_int p))

let pp_addr ppf = function
  | Node p -> pp_path ppf p
  | Attribute (p, n) -> Format.fprintf ppf "%a/@%a" pp_path p Name.pp n

let pp_op ppf = function
  | Insert_element { parent; index; fragment } ->
    Format.fprintf ppf "insert-element %a #%d <%a>" pp_path parent index Name.pp
      fragment.Xsm_xml.Tree.name
  | Insert_text { parent; index; text } ->
    Format.fprintf ppf "insert-text %a #%d %S" pp_path parent index text
  | Delete a -> Format.fprintf ppf "delete %a" pp_addr a
  | Replace_content (a, v) -> Format.fprintf ppf "content %a %S" pp_addr a v
  | Set_attribute { element; name; value } ->
    Format.fprintf ppf "attr %a %a=%S" pp_path element Name.pp name value

(* ------------------------------------------------------------------ *)
(* Addressing                                                          *)

let index_of equal x xs =
  let rec go i = function
    | [] -> None
    | y :: rest -> if equal x y then Some i else go (i + 1) rest
  in
  go 0 xs

type 'n tree = {
  parent : 'n -> 'n option;
  children : 'n -> 'n list;
  attribute_name : 'n -> Name.t option;
  equal : 'n -> 'n -> bool;
}

let store_tree store =
  {
    parent = Store.parent store;
    children = Store.children store;
    attribute_name =
      (fun n ->
        match Store.kind store n with
        | Store.Kind.Attribute -> Store.node_name store n
        | Store.Kind.Document | Store.Kind.Element | Store.Kind.Text -> None);
    equal = Store.equal_node;
  }

let path_of_node tree ~root node =
  let rec go acc node =
    if tree.equal node root then Ok acc
    else
      match tree.parent node with
      | None -> Error "wal: node is not in the tree rooted at the snapshot root"
      | Some p -> (
        match index_of tree.equal node (tree.children p) with
        | Some i -> go (i :: acc) p
        | None -> Error "wal: node is not among its parent's children")
  in
  go [] node

let addr_of_node tree ~root node =
  let ( let* ) = Result.bind in
  match tree.attribute_name node with
  | Some name -> (
    match tree.parent node with
    | Some owner ->
      let* p = path_of_node tree ~root owner in
      Ok (Attribute (p, name))
    | None -> Error "wal: detached or unnamed attribute")
  | None ->
    let* p = path_of_node tree ~root node in
    Ok (Node p)

let op_of_update tree ~root (u : _ Update.op) =
  let ( let* ) = Result.bind in
  (* an insertion's position among the parent's children: before its
     anchor, else last *)
  let insertion parent before =
    let* p = path_of_node tree ~root parent in
    let children = tree.children parent in
    let index =
      match Option.bind before (fun b -> index_of tree.equal b children) with
      | Some i -> i
      | None -> List.length children
    in
    Ok (p, index)
  in
  match u with
  | Update.Insert_element { parent; before; tree = fragment } ->
    let* parent, index = insertion parent before in
    Ok (Insert_element { parent; index; fragment })
  | Update.Insert_text { parent; before; text } ->
    let* parent, index = insertion parent before in
    Ok (Insert_text { parent; index; text })
  | Update.Delete node ->
    let* a = addr_of_node tree ~root node in
    Ok (Delete a)
  | Update.Replace_content { node; value } ->
    let* a = addr_of_node tree ~root node in
    Ok (Replace_content (a, value))
  | Update.Set_attribute { element; name; value } ->
    let* p = path_of_node tree ~root element in
    Ok (Set_attribute { element = p; name; value })

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

let resolve_path store ~root path =
  let rec go node = function
    | [] -> Ok node
    | i :: rest -> (
      match List.nth_opt (Store.children store node) i with
      | Some child -> go child rest
      | None ->
        Error
          (Format.asprintf "wal: no child #%d under %a" i (Store.pp_node store) node))
  in
  go root path

let resolve store ~root = function
  | Node p -> resolve_path store ~root p
  | Attribute (p, name) -> (
    match resolve_path store ~root p with
    | Error _ as e -> e
    | Ok owner -> (
      let attr =
        List.find_opt
          (fun a ->
            match Store.node_name store a with
            | Some n -> Name.equal n name
            | None -> false)
          (Store.attributes store owner)
      in
      match attr with
      | Some a -> Ok a
      | None -> Error (Format.asprintf "wal: no attribute %a at %a" Name.pp name pp_path p)))

let replay_op store ~root op =
  let ( let* ) = Result.bind in
  (* an append (the index past the last child) neither reads nor
     copies the sibling list: replaying a log of appends under one
     parent is linear in the log *)
  let anchor parent index =
    if index >= Store.child_count store parent then None
    else List.nth_opt (Store.children store parent) index
  in
  let* update =
    match op with
    | Insert_element { parent; index; fragment } ->
      let* p = resolve_path store ~root parent in
      Ok (Update.Insert_element { parent = p; before = anchor p index; tree = fragment })
    | Insert_text { parent; index; text } ->
      let* p = resolve_path store ~root parent in
      Ok (Update.Insert_text { parent = p; before = anchor p index; text })
    | Delete a ->
      let* n = resolve store ~root a in
      Ok (Update.Delete n)
    | Replace_content (a, value) ->
      let* n = resolve store ~root a in
      Ok (Update.Replace_content { node = n; value })
    | Set_attribute { element; name; value } ->
      let* e = resolve_path store ~root element in
      Ok (Update.Set_attribute { element = e; name; value })
  in
  Update.apply store update

(* ------------------------------------------------------------------ *)
(* Record encoding                                                     *)

type record = Op of op | Sync_point

let magic = "XSMWAL\x01\x00"

let encode_path w p =
  Wire.W.varint w (List.length p);
  List.iter (Wire.W.varint w) p

let decode_path r =
  let n = Wire.R.varint r in
  List.init n (fun _ -> Wire.R.varint r)

let encode_addr w = function
  | Node p ->
    Wire.W.byte w 0;
    encode_path w p
  | Attribute (p, n) ->
    Wire.W.byte w 1;
    encode_path w p;
    Wire.W.name w n

let decode_addr r =
  match Wire.R.byte r with
  | 0 -> Node (decode_path r)
  | 1 ->
    let p = decode_path r in
    Attribute (p, Wire.R.name r)
  | t -> raise (Wire.R.Corrupt (Printf.sprintf "bad addr tag %d" t))

(* The one Insert_element encoder: the fragment arrives already
   printed ({!Xsm_xml.Printer.add_element}'s bytes), from
   [encode_payload] or from a bulk load that printed it as its events
   arrived. *)
let encode_insert_element w ~parent ~index xml =
  Wire.W.byte w 1;
  encode_path w parent;
  Wire.W.varint w index;
  Wire.W.varint w (Buffer.length xml);
  Buffer.add_buffer w xml

let encode_payload w = function
  | Sync_point -> Wire.W.byte w 0
  | Op (Insert_element { parent; index; fragment }) ->
    let xml = Buffer.create 256 in
    Xsm_xml.Printer.add_element xml fragment;
    encode_insert_element w ~parent ~index xml
  | Op (Insert_text { parent; index; text }) ->
    Wire.W.byte w 2;
    encode_path w parent;
    Wire.W.varint w index;
    Wire.W.string w text
  | Op (Delete a) ->
    Wire.W.byte w 3;
    encode_addr w a
  | Op (Replace_content (a, v)) ->
    Wire.W.byte w 4;
    encode_addr w a;
    Wire.W.string w v
  | Op (Set_attribute { element; name; value }) ->
    Wire.W.byte w 5;
    encode_path w element;
    Wire.W.name w name;
    Wire.W.string w value

(* the payload of [len] bytes at [pos], read in place *)
let decode_payload bytes ~pos ~len =
  let r = Wire.R.of_string ~pos bytes in
  let record =
    match Wire.R.byte r with
    | 0 -> Sync_point
    | 1 ->
      let parent = decode_path r in
      let index = Wire.R.varint r in
      let xml = Wire.R.string r in
      (match Xsm_xml.Parser.parse_element xml with
      | Ok fragment -> Op (Insert_element { parent; index; fragment })
      | Error e ->
        raise (Wire.R.Corrupt ("bad fragment: " ^ Xsm_xml.Parser.error_to_string e)))
    | 2 ->
      let parent = decode_path r in
      let index = Wire.R.varint r in
      Op (Insert_text { parent; index; text = Wire.R.string r })
    | 3 -> Op (Delete (decode_addr r))
    | 4 ->
      let a = decode_addr r in
      Op (Replace_content (a, Wire.R.string r))
    | 5 ->
      let element = decode_path r in
      let name = Wire.R.name r in
      Op (Set_attribute { element; name; value = Wire.R.string r })
    | t -> raise (Wire.R.Corrupt (Printf.sprintf "bad record tag %d" t))
  in
  if Wire.R.pos r <> pos + len then raise (Wire.R.Corrupt "trailing bytes in record payload");
  record

(* Frame an encoded payload into [frame] (reallocated only when too
   small): length ‖ CRC ‖ payload.  Returns the frame and its size. *)
let frame_payload frame payload =
  let plen = Buffer.length payload in
  let size = plen + 8 in
  let frame =
    if Bytes.length frame >= size then frame else Bytes.create (max size (2 * Bytes.length frame))
  in
  Buffer.blit payload 0 frame 8 plen;
  Bytes.set_int32_le frame 0 (Int32.of_int plen);
  (* the frame is not mutated while the CRC reads it *)
  let crc = Wire.crc32 ~pos:8 ~len:plen (Bytes.unsafe_to_string frame) in
  Bytes.set_int32_le frame 4 (Int32.of_int crc);
  (frame, size)

let encode_record record =
  let payload = Wire.W.create () in
  encode_payload payload record;
  let frame, size = frame_payload Bytes.empty payload in
  Bytes.sub_string frame 0 size

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

(* Structured errors, so callers can tell corrupt input (a file that
   is not a WAL) from environmental I/O failure: the CLI maps the
   former to its corrupt-input exit code, the latter to unusable-file.
   No [failwith]-as-control-flow — a bare [Failure] caught broadly
   can swallow genuine bugs. *)
type error =
  | Not_a_wal of string  (* the path: file exists but lacks the WAL magic *)
  | Io of string

type crash = {
  after_records : int;
  partial_bytes : int;
  fsync_fails : bool;
  before_fsync : unit -> unit;
}

exception Crashed

module Writer = struct
  (* a sync handed to the syncer: the ops ahead of its marker (none
     without a marker) and the log's length when it was asked for *)
  type job = { covers : int; at : int }

  type stats = { covering_syncs : int; max_covered : int }

  type t = {
    oc : out_channel;
    fd : Unix.file_descr;
    crash : crash option;
    sync_every : int;
    mutable records : int;
    mutable ops : int;  (* Op records only — the LSN scale *)
    mutable unsynced : int;
    mutable crashed : bool;
    mutable fault_fired : bool;  (* the injected fsync fault has struck *)
    mutable hooked : bool;  (* a pager orders its write-back on [marked] *)
    payload : Buffer.t;  (* the record being encoded, reused *)
    mutable frame : Bytes.t;  (* its framed bytes, reused *)
    (* The one sync a log has in flight.  A sync takes a ticket and
       holds the slot once [turn] reaches it, so callers get the slot
       in the order they asked — a caller that syncs in a loop passes
       nobody.  The holder writes the marker, hands the records to the
       OS and fsyncs them on its own thread, or hands the fsync to the
       syncer ([job]), a systhread started by the first periodic sync.
       [lock] guards the slot and what a sync leaves behind; [idle]
       tells waiters the turn moved on, [wake] wakes the syncer. *)
    lock : Mutex.t;
    idle : Condition.t;
    wake : Condition.t;
    mutable issued : int;  (* tickets handed out *)
    mutable turn : int;  (* the ticket that holds the slot, or may take it *)
    mutable job : job option;
    mutable syncer : Thread.t option;
    mutable stopping : bool;
    mutable marked : int;  (* ops covered by the last fsynced Sync_point marker *)
    mutable covering : int64 * int64;  (* the interval of the fsync that set [marked] *)
    mutable failure : exn option;  (* a failed sync, raised by every later call *)
    mutable stats : stats;
  }

  let locked t f = Mutex.protect t.lock f

  (* One fsync of the log's descriptor, timed and counted; returns its
     interval.  [at] is the log's length when the sync was asked for:
     an injected fsync fault strikes the first fsync at or past its
     crash point, once — as a kernel reports a lost write-back once,
     so a retry would "succeed". *)
  let fsync_fd t ~at =
    (match t.crash with
    | Some { after_records; fsync_fails; before_fsync; _ } ->
      before_fsync ();
      if fsync_fails && at >= after_records && not t.fault_fired then begin
        t.fault_fired <- true;
        raise (Unix.Unix_error (Unix.EIO, "fsync", "injected fault"))
      end
    | None -> ());
    let start = Xsm_obs.Clock.now_ns () in
    Unix.fsync t.fd;
    let stop = Xsm_obs.Clock.now_ns () in
    Counter.incr m_syncs;
    Histogram.observe h_fsync (Int64.to_float (Int64.sub stop start));
    (start, stop)

  (* With [t.lock] held: wait for the slot, in ticket order *)
  let take t =
    let ticket = t.issued in
    t.issued <- ticket + 1;
    while t.turn < ticket do
      Condition.wait t.idle t.lock
    done

  (* With [t.lock] held: the slot goes to the next ticket *)
  let pass t =
    t.turn <- t.turn + 1;
    Condition.broadcast t.idle

  (* With [t.lock] held: the slot, for a sync covering the ops appended
     so far (none without a marker) — or a kept failure, and no slot:
     the writer never fsyncs again. *)
  let claim t ~marker =
    take t;
    match t.failure with
    | Some e ->
      pass t;
      Error e
    | None -> Ok (if marker then t.ops else 0)

  (* With [t.lock] held: the sync in the slot ended.  A failure is kept
     for good — but not an injected crash, which leaves nothing to
     sync. *)
  let settle t ~covers outcome =
    (match outcome with
    | Ok interval ->
      if covers > t.marked then begin
        let { covering_syncs; max_covered } = t.stats in
        t.stats <-
          { covering_syncs = covering_syncs + 1; max_covered = max max_covered (covers - t.marked) };
        t.marked <- covers;
        t.covering <- interval
      end
    | Error Crashed -> ()
    | Error e -> t.failure <- Some e);
    pass t

  (* [f], for the sync in the slot: if it raises, the sync ends there *)
  let or_settle t ~covers f =
    match f () with
    | v -> v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      locked t (fun () -> settle t ~covers (Error e));
      Printexc.raise_with_backtrace e bt

  (* The syncer's loop: fsync each sync handed over, then settle it *)
  let rec serve t =
    let next =
      locked t (fun () ->
          while Option.is_none t.job && not t.stopping do
            Condition.wait t.wake t.lock
          done;
          let job = t.job in
          t.job <- None;
          job)
    in
    match next with
    | None -> ()
    | Some { covers; at } ->
      let outcome = match fsync_fd t ~at with i -> Ok i | exception e -> Error e in
      locked t (fun () -> settle t ~covers outcome);
      serve t

  (* finish the sync handed over and join the syncer *)
  let stop t =
    match t.syncer with
    | None -> ()
    | Some thread ->
      locked t (fun () ->
          t.stopping <- true;
          Condition.signal t.wake);
      Thread.join thread;
      t.syncer <- None

  let create ?crash ?(sync_every = 1) path =
    if sync_every < 1 then Error (Io "wal: sync_every must be >= 1")
    else
      try
        let fresh = (not (Sys.file_exists path)) || (Unix.stat path).Unix.st_size = 0 in
        let magic_ok =
          fresh
          ||
          (* appending: verify the magic before trusting the file *)
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              in_channel_length ic >= String.length magic
              && really_input_string ic (String.length magic) = magic)
        in
        if not magic_ok then Error (Not_a_wal path)
        else begin
          let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
          if fresh then output_string oc magic;
          let t =
            { oc; fd = Unix.descr_of_out_channel oc; crash; sync_every; records = 0; ops = 0;
              unsynced = 0; crashed = false; fault_fired = false; hooked = false;
              payload = Buffer.create 4096; frame = Bytes.create 4096; lock = Mutex.create ();
              idle = Condition.create (); wake = Condition.create (); issued = 0; turn = 0;
              job = None; syncer = None; stopping = false; marked = 0; covering = (0L, 0L);
              failure = None; stats = { covering_syncs = 0; max_covered = 0 } }
          in
          flush oc;
          ignore (fsync_fd t ~at:0);
          (* a freshly created log needs its directory entry synced
             too, or a crash can lose the whole file *)
          if fresh then Fsutil.fsync_parent path;
          Ok t
        end
      with
      | Sys_error e -> Error (Io ("wal: " ^ e))
      | Unix.Unix_error (err, fn, _) ->
        Error (Io (Printf.sprintf "wal: %s: %s" fn (Unix.error_message err)))

  (* one frame onto the log, or the injected crash in its place *)
  let write_frame t ~op frame size =
    if t.crashed then raise Crashed;
    (match t.crash with
    | Some { after_records; partial_bytes; fsync_fails = false; _ } when t.records >= after_records ->
      (* the injected crash: let the sync handed over finish, leave a
         prefix of this record on disk, flush it (the OS got the
         bytes), and die *)
      stop t;
      let keep = min (max 0 partial_bytes) (size - 1) in
      output t.oc frame 0 keep;
      flush t.oc;
      Unix.fsync t.fd;
      t.crashed <- true;
      raise Crashed
    | _ -> ());
    let start = Xsm_obs.Clock.now_ns () in
    output t.oc frame 0 size;
    t.records <- t.records + 1;
    if op then t.ops <- t.ops + 1;
    t.unsynced <- t.unsynced + 1;
    Counter.incr m_records;
    Histogram.observe h_append
      (Int64.to_float (Int64.sub (Xsm_obs.Clock.now_ns ()) start))

  (* The marker is a frame built once: a sync writes it while the
     appender may write its next record, so it touches no reused
     buffer.  A sync vouches only for the ops counted when it took the
     slot; an op appended while it runs follows its marker. *)
  let sync_frame = Bytes.of_string (encode_record Sync_point)

  (* the first half of every sync, on the thread holding the slot:
     the marker, then every record ahead of it to the OS *)
  let write_marker t ~marker =
    if marker then write_frame t ~op:false sync_frame (Bytes.length sync_frame);
    flush t.oc;
    t.unsynced <- 0

  (* a sync that holds the slot, run to its end on this thread *)
  let run t ~covers ~marker =
    let interval =
      or_settle t ~covers (fun () ->
          write_marker t ~marker;
          fsync_fd t ~at:t.records)
    in
    locked t (fun () -> settle t ~covers (Ok interval));
    interval

  let sync t =
    match locked t (fun () -> claim t ~marker:true) with
    | Ok covers -> ignore (run t ~covers ~marker:true)
    | Error e -> raise e

  (* Wait for the slot; if the syncs ahead did not cover [lsn], sync
     on this thread: a hand-off to the syncer would add a thread switch
     to every ack (EXPERIMENTS.md E31 measures one).  A record a sync
     covered stays acknowledged even after a later sync failed. *)
  let force t lsn =
    let covered =
      locked t (fun () ->
          if t.marked >= lsn then Either.Left t.covering
          else begin
            take t;
            if t.marked >= lsn then begin
              pass t;
              Either.Left t.covering
            end
            else
              match t.failure with
              | Some e ->
                pass t;
                raise e
              | None -> Either.Right t.ops
          end)
    in
    match covered with Either.Left interval -> interval | Right covers -> run t ~covers ~marker:true

  (* Write the op encoded in [t.payload].  Ops are appended by one
     writer at a time (the daemon's updates run under the exclusive
     latch), so the reused buffers need no lock of their own.  A kept
     failure is raised before the op is written — unless the caller
     already [applied] it: that op is written, so the log and the
     store agree, and the force that follows reports the failure.
     The periodic sync runs behind the appender: once it holds the
     slot, the marker (when a pager orders its write-back on it) and
     every record ahead of it go to the OS, and the syncer fsyncs them
     while the appender goes on.  After a failed sync there is none:
     the failure stays kept for the next call. *)
  let emit_payload ~applied t =
    if not applied then Option.iter raise t.failure;
    let frame, size = frame_payload t.frame t.payload in
    t.frame <- frame;
    write_frame t ~op:true frame size;
    if t.unsynced >= t.sync_every then
      match locked t (fun () -> claim t ~marker:t.hooked) with
      | Error _ -> ()
      | Ok covers ->
        or_settle t ~covers (fun () -> write_marker t ~marker:t.hooked);
        if Option.is_none t.syncer then t.syncer <- Some (Thread.create serve t);
        locked t (fun () ->
            t.job <- Some { covers; at = t.records };
            Condition.signal t.wake)

  let append_op ~applied t op =
    Buffer.clear t.payload;
    encode_payload t.payload (Op op);
    emit_payload ~applied t

  let append t op = append_op ~applied:false t op

  let append_element t ~parent ~index xml =
    Buffer.clear t.payload;
    encode_insert_element t.payload ~parent ~index xml;
    emit_payload ~applied:false t

  let records_written t = t.records
  let lsn t = t.ops
  let synced_lsn t = t.marked

  let stats t = locked t (fun () -> t.stats)

  (* the pager's WAL ordering hook: LSNs are op counts, durability is
     a fsynced Sync_point marker (so the *reader*-visible synced prefix
     covers every page image on disk, which is what the crash sweep
     audits).  After a failed sync the ops past [marked] can never be
     made durable, so the log counts only those it holds durably: the
     pages they dirtied stay resident, and a read that faults never
     forces a sync bound to fail.  A [force] that trips an injected
     crash raises {!Crashed} before the page write — the invariant
     survives the crash too. *)
  let pager_hook t =
    t.hooked <- true;
    {
      Xsm_pager.Pager.current_lsn =
        (fun () -> if Option.is_some t.failure then t.marked else t.ops);
      synced_lsn = (fun () -> t.marked);
      force = (fun lsn -> ignore (force t lsn));
    }

  let close t =
    stop t;
    Fun.protect
      ~finally:(fun () -> close_out_noerr t.oc)
      (fun () ->
        if t.crashed then locked t (fun () -> Option.iter raise t.failure)
        else
          match locked t (fun () -> claim t ~marker:false) with
          | Ok covers -> ignore (run t ~covers ~marker:false)
          | Error e -> raise e)
end

(* The one logged state transition, for either store: the record is
   captured against the pre-state (its addresses describe it), the op
   applied, and the record appended only when the apply succeeded — a
   rejected op leaves no orphan record that would make the log
   unreplayable.  After a failed fsync nothing is applied at all: an
   op the log cannot make durable would leave the store ahead of
   every state recovery can reach.  A sync that fails while the op
   applies does not stop its append: the record goes to the log as
   the op went to the store, and the caller's force reports the
   failure. *)
let apply_logged wal tree ~root ~apply op =
  let ( let* ) = Result.bind in
  let* record =
    match wal with
    | None -> Ok None
    | Some { Writer.failure = Some e; _ } ->
      Error
        (match e with
        | Unix.Unix_error (err, fn, _) ->
          Printf.sprintf "wal: read-only after a failed %s: %s" fn (Unix.error_message err)
        | e -> "wal: read-only after a failed sync: " ^ Printexc.to_string e)
    | Some _ -> Result.map Option.some (op_of_update tree ~root op)
  in
  let* applied = apply op in
  (match (wal, record) with
  | Some w, Some r -> Writer.append_op ~applied:true w r
  | _ -> ());
  Ok applied

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)

type torn = Torn_header of int | Torn_payload of int | Torn_crc of int

let error_message = function
  | Not_a_wal path -> Printf.sprintf "wal: %s is not a WAL file (bad magic)" path
  | Io message -> message

type read_result = {
  records : record list;
  valid_bytes : int;
  torn_at : torn option;
  synced_prefix : int;
}

let read path =
  try
    let ic = open_in_bin path in
    let bytes =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let len = String.length bytes in
    let mlen = String.length magic in
    if len < mlen || String.sub bytes 0 mlen <> magic then Error (Not_a_wal path)
    else begin
      let records = ref [] in
      let ops_seen = ref 0 in
      let synced = ref 0 in
      let pos = ref mlen in
      let torn = ref None in
      (try
         while !pos < len && !torn = None do
           if len - !pos < 8 then torn := Some (Torn_header !pos)
           else begin
             let hdr = Wire.R.of_string ~pos:!pos bytes in
             let plen = Wire.R.fixed32 hdr in
             let crc = Wire.R.fixed32 hdr in
             if plen < 1 || plen > len - !pos - 8 then torn := Some (Torn_payload !pos)
             else if
               crc <> Wire.crc32 ~pos:(!pos + 8) ~len:plen bytes
             then torn := Some (Torn_crc !pos)
             else begin
               let record = decode_payload bytes ~pos:(!pos + 8) ~len:plen in
               records := record :: !records;
               (match record with
               | Op _ -> incr ops_seen
               | Sync_point -> synced := !ops_seen);
               pos := !pos + 8 + plen
             end
           end
         done
       with Wire.R.Corrupt _ -> torn := Some (Torn_crc !pos));
      let synced_prefix = match !torn with None -> !ops_seen | Some _ -> !synced in
      Ok
        {
          records = List.rev !records;
          valid_bytes = !pos;
          torn_at = !torn;
          synced_prefix;
        }
    end
  with Sys_error e -> Error (Io ("wal: " ^ e))

let truncate_torn path =
  match read path with
  | Error _ as e -> e
  | Ok { torn_at = None; _ } -> Ok 0
  | Ok { valid_bytes; _ } -> (
    try
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      let size = (Unix.fstat fd).Unix.st_size in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.ftruncate fd valid_bytes;
          Unix.fsync fd);
      Ok (size - valid_bytes)
    with Unix.Unix_error (err, fn, _) ->
      Error (Io (Printf.sprintf "wal: %s: %s" fn (Unix.error_message err))))
