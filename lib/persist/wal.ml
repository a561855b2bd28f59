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

let path_of_node store ~root node =
  let rec go acc node =
    if Store.equal_node node root then Ok acc
    else
      match Store.parent store node with
      | None -> Error "wal: node is not in the tree rooted at the snapshot root"
      | Some p -> (
        match index_of Store.equal_node node (Store.children store p) with
        | Some i -> go (i :: acc) p
        | None -> Error "wal: node is not among its parent's children")
  in
  go [] node

let addr_of_node store ~root node =
  match Store.kind store node with
  | Store.Kind.Attribute -> (
    match Store.parent store node, Store.node_name store node with
    | Some owner, Some name -> (
      match path_of_node store ~root owner with
      | Ok p -> Ok (Attribute (p, name))
      | Error _ as e -> e)
    | _ -> Error "wal: detached or unnamed attribute")
  | _ -> (
    match path_of_node store ~root node with
    | Ok p -> Ok (Node p)
    | Error _ as e -> e)

let op_of_update store ~root (u : Update.op) =
  let ( let* ) = Result.bind in
  match u with
  | Update.Insert_element { parent; before; tree } ->
    let* p = path_of_node store ~root parent in
    let children = Store.children store parent in
    let index =
      match before with
      | None -> List.length children
      | Some b -> (
        match index_of Store.equal_node b children with
        | Some i -> i
        | None -> List.length children)
    in
    Ok (Insert_element { parent = p; index; fragment = tree })
  | Update.Insert_text { parent; before; text } ->
    let* p = path_of_node store ~root parent in
    let children = Store.children store parent in
    let index =
      match before with
      | None -> List.length children
      | Some b -> (
        match index_of Store.equal_node b children with
        | Some i -> i
        | None -> List.length children)
    in
    Ok (Insert_text { parent = p; index; text })
  | Update.Delete node ->
    let* a = addr_of_node store ~root node in
    Ok (Delete a)
  | Update.Replace_content { node; value } ->
    let* a = addr_of_node store ~root node in
    Ok (Replace_content (a, value))
  | Update.Set_attribute { element; name; value } ->
    let* p = path_of_node store ~root element in
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

let replay_op ?journal store ~root op =
  let ( let* ) = Result.bind in
  let anchor parent index =
    let children = Store.children store parent in
    if index >= List.length children then None else List.nth_opt children index
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
  Update.apply ?journal store update

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

let decode_payload payload =
  let r = Wire.R.of_string payload in
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
  if not (Wire.R.at_end r) then raise (Wire.R.Corrupt "trailing bytes in record payload");
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

type crash = { after_records : int; partial_bytes : int }

exception Crashed

module Writer = struct
  type t = {
    oc : out_channel;
    crash : crash option;
    sync_every : int;
    mutable records : int;
    mutable ops : int;  (* Op records only — the LSN scale *)
    mutable marked : int;  (* ops covered by the last Sync_point marker *)
    mutable unsynced : int;
    mutable crashed : bool;
    mutable hooked : bool;  (* a pager orders its write-back on [marked] *)
    payload : Buffer.t;  (* the record being encoded, reused *)
    mutable frame : Bytes.t;  (* its framed bytes, reused *)
  }

  let fsync t =
    let start = Xsm_obs.Clock.now_ns () in
    flush t.oc;
    Unix.fsync (Unix.descr_of_out_channel t.oc);
    t.unsynced <- 0;
    Counter.incr m_syncs;
    Histogram.observe h_fsync
      (Int64.to_float (Int64.sub (Xsm_obs.Clock.now_ns ()) start))

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
            { oc; crash; sync_every; records = 0; ops = 0; marked = 0; unsynced = 0;
              crashed = false; hooked = false; payload = Buffer.create 4096; frame = Bytes.create 4096 }
          in
          fsync t;
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
    | Some { after_records; partial_bytes } when t.records >= after_records ->
      (* the injected crash: leave a prefix of this record on disk,
         flush it (the OS got the bytes), and die *)
      let keep = min (max 0 partial_bytes) (size - 1) in
      output t.oc frame 0 keep;
      flush t.oc;
      Unix.fsync (Unix.descr_of_out_channel t.oc);
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

  (* A [sync] can run beside an [append] or another [sync] — the
     commit leader syncs after releasing the latch while a reader's
     eviction forces the log through {!pager_hook} — so it writes a
     frame built once and touches no reused buffer. *)
  let sync_frame = Bytes.of_string (encode_record Sync_point)

  let sync t =
    write_frame t ~op:false sync_frame (Bytes.length sync_frame);
    fsync t;
    t.marked <- t.ops

  (* write the op encoded in [t.payload].  Ops are appended by one
     writer at a time (the server's commit leader, under the exclusive
     latch), so the reused buffers need no lock of their own.  The
     periodic fsync is a full [sync] once a pager orders its
     write-back on the marker: the records it makes durable are then
     provably so, and an eviction need not force them again. *)
  let emit_payload t =
    let frame, size = frame_payload t.frame t.payload in
    t.frame <- frame;
    write_frame t ~op:true frame size;
    if t.unsynced >= t.sync_every then if t.hooked then sync t else fsync t

  let append t op =
    Buffer.clear t.payload;
    encode_payload t.payload (Op op);
    emit_payload t

  let append_element t ~parent ~index xml =
    Buffer.clear t.payload;
    encode_insert_element t.payload ~parent ~index xml;
    emit_payload t

  let records_written t = t.records
  let lsn t = t.ops
  let synced_lsn t = t.marked

  (* the pager's WAL ordering hook: LSNs are op counts, durability is
     a Sync_point marker (so the *reader*-visible synced prefix covers
     every page image on disk, which is what the crash sweep audits).
     A [force] that trips an injected crash raises {!Crashed} before
     the page write — the invariant survives the crash too. *)
  let pager_hook t =
    t.hooked <- true;
    {
      Xsm_pager.Pager.current_lsn = (fun () -> t.ops);
      synced_lsn = (fun () -> t.marked);
      force = (fun lsn -> if t.marked < lsn then sync t);
    }

  let close t =
    if not t.crashed then fsync t;
    close_out_noerr t.oc
end

(* The one logged state transition: the record is captured against the
   pre-state (its addresses describe it), the op applied, and the
   record appended only when the apply succeeded — a rejected op
   leaves no orphan record that would make the log unreplayable. *)
let apply_logged ?journal wal store ~root op =
  let ( let* ) = Result.bind in
  let* record =
    match wal with
    | None -> Ok None
    | Some _ -> Result.map Option.some (op_of_update store ~root op)
  in
  let* applied = Update.apply ?journal store op in
  (match (wal, record) with
  | Some w, Some r -> Writer.append w r
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
               let payload = String.sub bytes (!pos + 8) plen in
               let record = decode_payload payload in
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
