module Name = Xsm_xml.Name
module Tree = Xsm_xml.Tree
module Printer = Xsm_xml.Printer
module Label = Xsm_numbering.Sedna_label
module Bs = Xsm_storage.Block_storage
module Wal = Xsm_persist.Wal
module Counter = Xsm_obs.Metrics.Counter
module Trace = Xsm_obs.Trace

let m_events = Counter.make ~help:"SAX events consumed by bulk load" "stream.load.events"
let m_nodes = Counter.make ~help:"descriptors appended by bulk load" "stream.load.nodes"

type stats = {
  events : int;
  elements : int;
  attributes : int;
  texts : int;
  max_depth : int;
  wal_records : int;
}

type frame = {
  b_depth : int;  (* 0 = document frame, 1 = root element *)
  b_name : Name.t option;  (* [None] for the document frame *)
  b_desc : Bs.desc;
  b_nid : Label.t;
  mutable b_child_idx : int;  (* attrs + texts + elements, the append_child counter *)
  mutable b_last : Bs.desc option;  (* last appended child, the [after] anchor *)
}

type t = {
  st : Bs.t;
  wal : Wal.Writer.t option;
  on_root : (Tree.element -> unit) option;
  mutable stack : frame list;  (* innermost first; document frame at the bottom *)
  text : Buffer.t;
      (* the innermost frame's pending logical text run: a child's
         start flushes its parent's run, so no other frame has one *)
  mutable root_name : Name.t option;
  mutable root_attrs : Tree.attribute list;  (* reversed *)
  mutable root_done : bool;  (* on_root fired *)
  mutable root_wal_index : int;  (* child position of the next top-level record *)
  mutable completed : Bs.desc list;  (* drain queue, reversed *)
  (* the open top-level subtree's WAL record, printed as its events
     arrive exactly as [Printer.add_element] prints the finished
     element — only written while a WAL writer is attached *)
  record : Buffer.t;
  mutable tag_open : bool;  (* the innermost start tag still lacks its [>] *)
  mutable events : int;
  mutable elements : int;
  mutable attributes : int;
  mutable texts : int;
  mutable max_depth : int;
}

let create ?block_capacity ?wal ?on_root () =
  let st = Bs.create_empty ?block_capacity () in
  let doc =
    {
      b_depth = 0;
      b_name = None;
      b_desc = Bs.root st;
      b_nid = Label.root;
      b_child_idx = 0;
      b_last = None;
    }
  in
  {
    st;
    wal;
    on_root;
    stack = [ doc ];
    text = Buffer.create 64;
    root_name = None;
    root_attrs = [];
    root_done = false;
    root_wal_index = 0;
    completed = [];
    record = Buffer.create (if Option.is_some wal then 4096 else 0);
    tag_open = false;
    events = 0;
    elements = 0;
    attributes = 0;
    texts = 0;
    max_depth = 0;
  }

let storage t = t.st

(* The root start tag is complete once the first non-attribute event
   under the root arrives: hand the bare root to the snapshot callback
   before any subtree record can be logged. *)
let fire_root t =
  if not t.root_done then begin
    t.root_done <- true;
    match t.on_root, t.root_name with
    | Some f, Some name ->
      f { Tree.name; attributes = List.rev t.root_attrs; children = [] }
    | _ -> ()
  end

let wal_append t op = match t.wal with None -> () | Some w -> Wal.Writer.append w op

(* Frames at depth >= 2 lie inside a top-level subtree: with a WAL,
   their events are printed into [t.record]. *)
let printing t (f : frame) = f.b_depth >= 2 && Option.is_some t.wal

let close_tag t =
  if t.tag_open then begin
    t.tag_open <- false;
    Buffer.add_char t.record '>'
  end

(* Materialize the pending text run as one text-node descriptor. *)
let flush_text t (f : frame) =
  if Buffer.length t.text > 0 then begin
    let s = Buffer.contents t.text in
    Buffer.clear t.text;
    let nid = Label.append_child f.b_nid f.b_child_idx in
    f.b_child_idx <- f.b_child_idx + 1;
    let d = Bs.append_text t.st ~parent:f.b_desc ~after:f.b_last s nid in
    f.b_last <- Some d;
    t.texts <- t.texts + 1;
    Counter.incr m_nodes;
    if f.b_depth = 1 then begin
      (* WAL paths are relative to the snapshotted document node, so
         the root element is [0] *)
      wal_append t (Wal.Insert_text { parent = [ 0 ]; index = t.root_wal_index; text = s });
      t.root_wal_index <- t.root_wal_index + 1;
      t.completed <- d :: t.completed
    end
  end

let on_start t name =
  match t.stack with
  | [] -> invalid_arg "Bulk_load.feed: event after finish"
  | parent :: _ ->
    if parent.b_depth = 1 then fire_root t;
    flush_text t parent;
    let nid = Label.append_child parent.b_nid parent.b_child_idx in
    parent.b_child_idx <- parent.b_child_idx + 1;
    let d = Bs.append_element t.st ~parent:parent.b_desc ~after:parent.b_last name nid in
    parent.b_last <- Some d;
    t.elements <- t.elements + 1;
    Counter.incr m_nodes;
    if parent.b_depth = 0 then t.root_name <- Some name;
    let f =
      {
        b_depth = parent.b_depth + 1;
        b_name = Some name;
        b_desc = d;
        b_nid = nid;
        b_child_idx = 0;
        b_last = None;
      }
    in
    (* the root's own tag goes through [on_root] instead *)
    if printing t f then begin
      if f.b_depth = 2 then Buffer.clear t.record else close_tag t;
      Buffer.add_char t.record '<';
      Buffer.add_string t.record (Name.to_string name);
      t.tag_open <- true
    end;
    t.stack <- f :: t.stack;
    if f.b_depth > t.max_depth then t.max_depth <- f.b_depth

let on_attr t name value =
  match t.stack with
  | [] -> invalid_arg "Bulk_load.feed: event after finish"
  | f :: _ ->
    let nid = Label.append_child f.b_nid f.b_child_idx in
    f.b_child_idx <- f.b_child_idx + 1;
    let d = Bs.append_attribute t.st ~parent:f.b_desc ~after:f.b_last name value nid in
    f.b_last <- Some d;
    t.attributes <- t.attributes + 1;
    Counter.incr m_nodes;
    if printing t f then Printer.add_attribute t.record name value;
    if f.b_depth = 1 then t.root_attrs <- { Tree.name; value } :: t.root_attrs

let on_text t s =
  match t.stack with
  | [] -> invalid_arg "Bulk_load.feed: event after finish"
  | f :: _ ->
    if f.b_depth = 1 then fire_root t;
    Buffer.add_string t.text s;
    (* a run split by comments prints piecewise: escaping is per
       character, so the bytes are those of the coalesced run *)
    if s <> "" && printing t f then begin
      close_tag t;
      Printer.add_escaped t.record ~attribute:false s
    end

let on_end t =
  match t.stack with
  | [] | [ _ ] -> invalid_arg "Bulk_load.feed: unbalanced End_element"
  | f :: (_ :: _ as rest) ->
    if f.b_depth = 1 then fire_root t;
    flush_text t f;
    t.stack <- rest;
    if printing t f then begin
      if t.tag_open then begin
        t.tag_open <- false;
        Buffer.add_string t.record "/>"
      end
      else begin
        Buffer.add_string t.record "</";
        Buffer.add_string t.record (Name.to_string (Option.get f.b_name));
        Buffer.add_char t.record '>'
      end;
      match t.wal with
      | Some w when f.b_depth = 2 ->
        (* a completed top-level subtree: one WAL record *)
        Wal.Writer.append_element w ~parent:[ 0 ] ~index:t.root_wal_index t.record;
        t.root_wal_index <- t.root_wal_index + 1
      | Some _ | None -> ()
    end;
    if f.b_depth = 2 then t.completed <- f.b_desc :: t.completed

let feed t event =
  match event with
  | Sax.Cdata "" -> ()  (* an empty section adds no text *)
  | _ -> (
    t.events <- t.events + 1;
    Counter.incr m_events;
    match event with
    | Sax.Start_element name -> on_start t name
    | Sax.Attr (name, value) -> on_attr t name value
    | Sax.Text s | Sax.Cdata s -> on_text t s
    | Sax.End_element _ -> on_end t
    | Sax.Pi _ | Sax.Comment _ -> ()  (* dropped, without breaking a text run *))

let drain_completed t =
  let ds = List.rev t.completed in
  t.completed <- [];
  ds

let finish t =
  (match t.stack with
  | [ _ ] -> ()
  | _ -> invalid_arg "Bulk_load.finish: document incomplete");
  fire_root t (* no-op unless the stream was empty of content *);
  (match t.wal with Some w -> Wal.Writer.sync w | None -> ());
  let wal_records = match t.wal with Some w -> Wal.Writer.records_written w | None -> 0 in
  ( t.st,
    {
      events = t.events;
      elements = t.elements;
      attributes = t.attributes;
      texts = t.texts;
      max_depth = t.max_depth;
      wal_records;
    } )

let load ?block_capacity ?wal ?on_root sax =
  Trace.with_span "stream.load" (fun () ->
      let t = create ?block_capacity ?wal ?on_root () in
      let rec drain () =
        match Sax.next sax with
        | None -> ()
        | Some ev ->
          feed t ev;
          drain ()
      in
      drain ();
      finish t)
