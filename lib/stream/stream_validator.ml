module V = Xsm_schema.Validator
module Counter = Xsm_obs.Metrics.Counter
module Gauge = Xsm_obs.Metrics.Gauge
module Trace = Xsm_obs.Trace

let m_events = Counter.make ~help:"SAX events consumed by the streaming validator" "stream.events"

let g_peak_depth =
  Gauge.make ~help:"peak open-element depth of the last streaming run" "stream.peak_depth"

type error = { path : string; position : Sax.position; message : string }

let pp_error ppf e =
  Format.fprintf ppf "%a: %s: %s" Sax.pp_position e.position e.path e.message

let error_to_string e = Format.asprintf "%a" pp_error e

type stats = { elements : int; max_depth : int; fallback_steps : int }

type t = {
  core : V.t;
  mutable errors : error list;  (* stamped, newest first *)
  mutable pos : Sax.position;
}

let create ?automata schema =
  { core = V.create ?automata schema; errors = []; pos = { Sax.offset = 0; line = 1; column = 1 } }

(* Position the errors the core reported since the last stamp. *)
let stamp t =
  List.iter
    (fun (e : V.error) ->
      t.errors <- { path = e.path; position = t.pos; message = e.message } :: t.errors)
    (V.take_errors t.core)

let feed t event pos =
  match event with
  | Sax.Cdata "" -> ()  (* an empty section adds no text *)
  | _ ->
    Counter.incr m_events;
    t.pos <- pos;
    (match event with
    | Sax.Start_element name -> V.start_element t.core name
    | Sax.Attr (name, value) -> V.attribute t.core name value
    | Sax.Text s | Sax.Cdata s -> V.text t.core s
    | Sax.End_element _ -> V.end_element t.core
    | Sax.Pi _ | Sax.Comment _ -> ());  (* dropped by §8 conversion, dropped here *)
    stamp t

let finish t =
  let r = V.finish t.core in
  stamp t;
  Gauge.set g_peak_depth (float_of_int (V.stats t.core).max_depth);
  match r, t.errors with
  | Ok s, [] ->
    Ok { elements = s.elements; max_depth = s.max_depth; fallback_steps = s.fallback_steps }
  | _, es -> Error (List.rev es)

let run ?automata schema sax =
  Trace.with_span "stream.validate" (fun () ->
      let t = create ?automata schema in
      let rec drain () =
        match Sax.next sax with
        | None -> ()
        | Some ev ->
          feed t ev (Sax.event_position sax);
          drain ()
      in
      drain ();
      finish t)
