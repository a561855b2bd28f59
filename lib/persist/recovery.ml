module Store = Xsm_xdm.Store
module Update = Xsm_schema.Update
module Labeler = Xsm_numbering.Labeler
module Counter = Xsm_obs.Metrics.Counter
module Gauge = Xsm_obs.Metrics.Gauge
module Trace = Xsm_obs.Trace

let m_wal_records = Counter.make ~help:"WAL records seen during recovery" "recover.wal_records"
let m_replayed = Counter.make ~help:"WAL operations replayed" "recover.replayed"
let m_torn_bytes = Counter.make ~help:"bytes in torn WAL tails" "recover.torn_bytes"
let g_snapshot_nodes = Gauge.make ~help:"nodes in the last loaded snapshot" "recover.snapshot_nodes"

(* Corrupt input (a WAL that is not a WAL) kept apart from every other
   failure: the CLI exits 3 on the former, 2 on the latter. *)
type error = Corrupt_wal of string | Failed of string

let error_message = function
  | Corrupt_wal path -> Wal.error_message (Wal.Not_a_wal path)
  | Failed message -> message

let of_wal_error = function
  | Wal.Not_a_wal path -> Corrupt_wal path
  | Wal.Io message -> Failed message

type stats = {
  snapshot_nodes : int;
  wal_records : int;
  replayed : int;
  synced_prefix : int;
  torn_bytes : int;
  truncated : bool;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "snapshot %d nodes; wal %d records, %d replayed (%d under sync points)%s" s.snapshot_nodes
    s.wal_records s.replayed s.synced_prefix
    (if s.torn_bytes > 0 then
       Printf.sprintf "; torn tail of %d bytes %s" s.torn_bytes
         (if s.truncated then "truncated" else "ignored")
     else "")

(* Maintain the §9.3 labels through one change: an inserted
   subtree is labelled from its nearest labelled neighbours in the
   attributes @ children order (attributes precede children in
   document order), a deleted one drops its labels.  Existing labels
   never move — Proposition 1. *)
let maintain_labels store labels = function
  | Update.Content _ -> ()
  | Update.Removed n -> Labeler.remove_subtree labels store n
  | Update.Added n -> Labeler.label_inserted_subtree labels store n

let empty_stats snapshot_nodes =
  {
    snapshot_nodes;
    wal_records = 0;
    replayed = 0;
    synced_prefix = 0;
    torn_bytes = 0;
    truncated = false;
  }

(* the returned record and the registry report the same recovery: the
   record is per-call, the registry accumulates across recoveries *)
let publish stats =
  Counter.add m_wal_records stats.wal_records;
  Counter.add m_replayed stats.replayed;
  Counter.add m_torn_bytes stats.torn_bytes;
  Gauge.set g_snapshot_nodes (float_of_int stats.snapshot_nodes);
  stats

let replay_wal_inner ?labels ?(truncate = true) store ~root wal_path =
  let ( let* ) = Result.bind in
  let snapshot_nodes = Store.subtree_size store root in
  if not (Sys.file_exists wal_path) then Ok (empty_stats snapshot_nodes)
  else
    let* result = Result.map_error of_wal_error (Wal.read wal_path) in
    let* torn_bytes, truncated =
      match result.Wal.torn_at with
      | None -> Ok (0, false)
      | Some _ when truncate -> (
        match Wal.truncate_torn wal_path with
        | Ok dropped -> Ok (dropped, true)
        | Error e -> Error (of_wal_error e))
      | Some _ -> (
        (* report how much would go without touching the file *)
        try Ok ((Unix.stat wal_path).Unix.st_size - result.Wal.valid_bytes, false)
        with Unix.Unix_error _ -> Ok (0, false))
    in
    let rec replay idx = function
      | [] -> Ok idx
      | Wal.Sync_point :: rest -> replay idx rest
      | Wal.Op op :: rest -> (
        match Wal.replay_op store ~root op with
        | Ok applied ->
          let change = Update.change applied in
          Option.iter (fun t -> maintain_labels store t change) labels;
          Update.release store change;
          replay (idx + 1) rest
        | Error e ->
          Error
            (Failed (Format.asprintf "recovery: record %d (%a): %s" (idx + 1) Wal.pp_op op e)))
    in
    let* replayed = replay 0 result.Wal.records in
    Ok
      {
        snapshot_nodes;
        wal_records = List.length result.Wal.records;
        replayed;
        synced_prefix = result.Wal.synced_prefix;
        torn_bytes;
        truncated;
      }

let replay_wal ?labels ?truncate store ~root wal_path =
  Trace.with_span "recover.replay"
    ~attrs:[ ("wal", wal_path) ]
    (fun () ->
      Result.map publish (replay_wal_inner ?labels ?truncate store ~root wal_path))

let recover ?truncate ~snapshot ?wal () =
  let ( let* ) = Result.bind in
  let* store, root, labels, _meta =
    Trace.with_span "recover.snapshot" ~attrs:[ ("path", snapshot) ] (fun () ->
        Result.map_error (fun m -> Failed m) (Snapshot.load ~path:snapshot))
  in
  let* stats =
    match wal with
    | None -> Ok (publish (empty_stats (Store.subtree_size store root)))
    | Some wal_path -> replay_wal ?labels ?truncate store ~root wal_path
  in
  Ok (store, root, labels, stats)
