let enabled = ref false
let detail = ref false

(* ------------------------------------------------------------------ *)
(* Ring-buffer retention.  Slots are preallocated and overwritten in
   place, so the ring itself never grows.  A recorded span still
   allocates: 3 words for its boxed int64 duration ([record_linked],
   [record_span]), and 15 in all under [with_span], which also boxes
   its two clock reads and allocates the closure and option with
   which [pop] finds its frame (pinned by the "words per recorded
   span" test).  Attribute lists are the caller's. *)

type slot = {
  mutable s_id : int;
  mutable s_parent : int;
  mutable s_name : string;
  mutable s_start : int64;
  mutable s_dur : int64;
  mutable s_depth : int;
  mutable s_attrs : (string * string) list;
}

let fresh_slot () =
  { s_id = 0; s_parent = 0; s_name = ""; s_start = 0L; s_dur = 0L; s_depth = 0; s_attrs = [] }

let capacity = ref 65536
let ring : slot array ref = ref [||]
let ring_pos = ref 0
let ring_count = ref 0
let dropped_count = ref 0

(* ring overflow used to be silent; the counter makes eviction of
   never-exported spans visible in [xsm stats] *)
let m_dropped =
  Metrics.Counter.make ~help:"Spans evicted from the trace ring before export"
    "obs.trace.dropped"

let reset () =
  ring_pos := 0;
  ring_count := 0;
  dropped_count := 0

let set_capacity n =
  if n < 1 then invalid_arg "Trace.set_capacity: capacity must be positive";
  capacity := n;
  ring := [||];
  reset ()

let record ~id ~parent ~name ~start ~stop ~depth ~attrs =
  if Array.length !ring = 0 then ring := Array.init !capacity (fun _ -> fresh_slot ());
  let s = !ring.(!ring_pos) in
  s.s_id <- id;
  s.s_parent <- parent;
  s.s_name <- name;
  s.s_start <- start;
  (* the wall clock can step backwards between the two reads; a span
     can shrink to nothing but never to a negative duration *)
  s.s_dur <- (let d = Int64.sub stop start in if Int64.compare d 0L < 0 then 0L else d);
  s.s_depth <- depth;
  s.s_attrs <- attrs;
  ring_pos := (!ring_pos + 1) mod Array.length !ring;
  if !ring_count < Array.length !ring then incr ring_count
  else begin
    incr dropped_count;
    Metrics.Counter.incr m_dropped
  end

let dropped () = !dropped_count

(* ------------------------------------------------------------------ *)
(* The open-span stack (one thread of parent/child ids) *)

type frame = {
  mutable f_id : int;
  mutable f_name : string;
  mutable f_start : int64;
  mutable f_attrs : (string * string) list;
}

let stack =
  ref (Array.init 64 (fun _ -> { f_id = 0; f_name = ""; f_start = 0L; f_attrs = [] }))

let sp = ref 0
let next_id = ref 0

let push name attrs =
  if !sp >= Array.length !stack then begin
    let bigger =
      Array.init
        (2 * Array.length !stack)
        (fun i ->
          if i < Array.length !stack then !stack.(i)
          else { f_id = 0; f_name = ""; f_start = 0L; f_attrs = [] })
    in
    stack := bigger
  end;
  incr next_id;
  let f = !stack.(!sp) in
  f.f_id <- !next_id;
  f.f_name <- name;
  f.f_attrs <- attrs;
  f.f_start <- Clock.now_ns ();
  incr sp;
  !next_id

let pop id =
  let stop = Clock.now_ns () in
  (* defensive: unwind to the frame carrying [id], so an instrumented
     function that escaped via an uncounted exception cannot poison
     the nesting of every later span *)
  let rec find i = if i < 0 then None else if !stack.(i).f_id = id then Some i else find (i - 1) in
  match find (!sp - 1) with
  | None -> ()
  | Some i ->
    let f = !stack.(i) in
    let parent = if i > 0 then !stack.(i - 1).f_id else 0 in
    record ~id:f.f_id ~parent ~name:f.f_name ~start:f.f_start ~stop ~depth:i
      ~attrs:f.f_attrs;
    sp := i

let add_attr key value =
  if !enabled && !sp > 0 then begin
    let f = !stack.(!sp - 1) in
    f.f_attrs <- (key, value) :: f.f_attrs
  end

let with_span ?(attrs = []) name f =
  if not !enabled then f ()
  else begin
    let id = push name attrs in
    match f () with
    | r ->
      pop id;
      r
    | exception e ->
      add_attr "exception" (Printexc.to_string e);
      pop id;
      raise e
  end

let recording on f =
  if (not on) || !enabled then f ()
  else begin
    enabled := true;
    match f () with
    | r ->
      enabled := false;
      r
    | exception e ->
      enabled := false;
      raise e
  end

let with_detail_span ?attrs name f =
  if !enabled && !detail then with_span ?attrs name f else f ()

let record_span ?(attrs = []) name ~start_ns ~stop_ns =
  if !enabled then begin
    incr next_id;
    record ~id:!next_id ~parent:0 ~name ~start:start_ns ~stop:stop_ns ~depth:0 ~attrs
  end

let record_linked ?(attrs = []) ?(depth = 0) name ~parent ~start_ns ~stop_ns =
  if not !enabled then 0
  else begin
    incr next_id;
    let id = !next_id in
    record ~id ~parent ~name ~start:start_ns ~stop:stop_ns ~depth ~attrs;
    id
  end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

type event = {
  id : int;
  parent : int;
  name : string;
  start_ns : int64;
  dur_ns : int64;
  depth : int;
  attrs : (string * string) list;
}

let events () =
  let out = ref [] in
  let len = Array.length !ring in
  for k = !ring_count - 1 downto 0 do
    (* oldest retained slot first: ring_pos points past the newest *)
    let s = !ring.((!ring_pos - 1 - k + (2 * len)) mod len) in
    out :=
      {
        id = s.s_id;
        parent = s.s_parent;
        name = s.s_name;
        start_ns = s.s_start;
        dur_ns = s.s_dur;
        depth = s.s_depth;
        attrs = s.s_attrs;
      }
      :: !out
  done;
  List.stable_sort
    (fun a b ->
      match Int64.compare a.start_ns b.start_ns with 0 -> compare a.id b.id | c -> c)
    (List.rev !out)

(* int64 timestamps cross the wire as decimal strings: [Json.Num] is a
   double, and while nanoseconds-since-process-start fit in 2^53 for
   ~104 days, an exact codec costs nothing *)
let event_to_json e =
  Json.Obj
    [
      ("id", Json.int e.id);
      ("parent", Json.int e.parent);
      ("name", Json.Str e.name);
      ("start_ns", Json.Str (Int64.to_string e.start_ns));
      ("dur_ns", Json.Str (Int64.to_string e.dur_ns));
      ("depth", Json.int e.depth);
      ( "attrs",
        Json.Obj (List.rev_map (fun (k, v) -> (k, Json.Str v)) e.attrs) );
    ]

let event_of_json j =
  let ( let* ) = Result.bind in
  let int_field k =
    match Json.member k j with
    | Some (Json.Num f) when Float.is_integer f -> Ok (int_of_float f)
    | _ -> Error (Printf.sprintf "trace event: expected integer %S" k)
  in
  let str_field k =
    match Json.member k j with
    | Some (Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "trace event: expected string %S" k)
  in
  let ns_field k =
    let* s = str_field k in
    match Int64.of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "trace event: %S is not a nanosecond count" k)
  in
  let* id = int_field "id" in
  let* parent = int_field "parent" in
  let* name = str_field "name" in
  let* start_ns = ns_field "start_ns" in
  let* dur_ns = ns_field "dur_ns" in
  let* depth = int_field "depth" in
  let* attrs =
    match Json.member "attrs" j with
    | Some (Json.Obj kvs) ->
      let rec conv acc = function
        | [] -> Ok (List.rev acc)
        | (k, Json.Str v) :: rest -> conv ((k, v) :: acc) rest
        | (k, _) :: _ -> Error (Printf.sprintf "trace event: attr %S is not a string" k)
      in
      conv [] kvs
    | Some Json.Null | None -> Ok []
    | Some _ -> Error "trace event: \"attrs\" is not an object"
  in
  Ok { id; parent; name; start_ns; dur_ns; depth; attrs }

let chrome_event ~pid e =
  let args =
    List.rev_map (fun (k, v) -> (k, Json.Str v)) e.attrs
    @ [ ("span_id", Json.int e.id); ("parent_id", Json.int e.parent) ]
  in
  Json.Obj
    [
      ("name", Json.Str e.name);
      ("cat", Json.Str "xsm");
      ("ph", Json.Str "X");
      ("ts", Json.Num (Int64.to_float e.start_ns /. 1e3));
      ("dur", Json.Num (Int64.to_float e.dur_ns /. 1e3));
      ("pid", Json.int pid);
      ("tid", Json.int 1);
      ("args", Json.Obj args);
    ]

let to_chrome () =
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.map (chrome_event ~pid:1) (events ())));
      ("displayTimeUnit", Json.Str "ms");
    ]

let to_chrome_groups groups =
  (* one Chrome "process" per event group: a metadata event names it,
     then the group's spans carry its pid — how a client renders its
     own spans next to the daemon's on one shared timeline *)
  let meta (pid, pname, _) =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.int pid);
        ("tid", Json.int 1);
        ("args", Json.Obj [ ("name", Json.Str pname) ]);
      ]
  in
  let spans =
    List.concat_map (fun (pid, _, es) -> List.map (chrome_event ~pid) es) groups
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.map meta groups @ spans));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write_chrome_json path json =
  try
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Json.to_string json));
    Ok ()
  with Sys_error e -> Error ("trace: " ^ e)

let write_chrome path = write_chrome_json path (to_chrome ())

let write_chrome_groups path groups = write_chrome_json path (to_chrome_groups groups)
