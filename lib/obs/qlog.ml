(* Structured slow-query log: one JSON object per line, append-only,
   flushed per record so a crash loses at most the line being
   written.  The daemon owns one instance, writes under its server
   mutex and decides which requests are slow. *)

type t = { oc : out_channel; mutable closed : bool }

let m_written =
  Metrics.Counter.make ~help:"Entries appended to the slow-query log" "qlog.written"

let create path =
  match open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path with
  | oc -> Ok { oc; closed = false }
  | exception Sys_error e -> Error ("slow-query log: " ^ e)

let log t json =
  if not t.closed then begin
    output_string t.oc (Json.to_string json);
    output_char t.oc '\n';
    flush t.oc;
    Metrics.Counter.incr m_written
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_out_noerr t.oc
  end
