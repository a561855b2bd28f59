(* A submission's way through the two stages *)
type 'res state =
  | Queued
  | Applied of 'res  (* its batch applied; waiting for a sync to cover it *)
  | Synced of 'res * (int64 * int64)  (* the covering sync's interval *)
  | Failed of exn

type ('req, 'res) t = {
  m : Mutex.t;
  changed : Condition.t;  (* a stage finished: waiters look at their cell again *)
  q : ('req * 'res state ref) Queue.t;  (* submitted, not yet applied *)
  unsynced : 'res state ref list Queue.t;  (* applied batches, oldest first *)
  mutable applying : bool;
  mutable syncing : bool;
  apply : 'req list -> 'res list;
  sync : unit -> unit;
  limit : int;  (* max submissions per apply and per sync; 1 = commit-per-request *)
  mutable submissions : int;
  mutable batches : int;
  mutable max_batch : int;
}

type stats = { submissions : int; batches : int; max_batch : int }

let create ?(limit = max_int) ~apply ~sync () =
  if limit < 1 then invalid_arg "Commit.create: limit must be >= 1";
  {
    m = Mutex.create ();
    changed = Condition.create ();
    q = Queue.create ();
    unsynced = Queue.create ();
    applying = false;
    syncing = false;
    apply;
    sync;
    limit;
    submissions = 0;
    batches = 0;
    max_batch = 0;
  }

let drain q limit =
  let rec go acc n =
    if n = 0 || Queue.is_empty q then List.rev acc else go (Queue.pop q :: acc) (n - 1)
  in
  go [] limit

(* Both stages are entered and left with [t.m] held, and release it
   while they run.  The apply stage runs one batch off the queue; the
   batch's cells then wait for a sync. *)
let apply_stage t =
  t.applying <- true;
  let batch = drain t.q t.limit in
  Mutex.unlock t.m;
  let outcome =
    match t.apply (List.map fst batch) with
    | results when List.length results = List.length batch -> Ok results
    | _ -> Error (Invalid_argument "Commit.apply: result count mismatch")
    | exception e -> Error e
  in
  Mutex.lock t.m;
  (match outcome with
  | Ok results ->
    List.iter2 (fun (_, c) r -> c := Applied r) batch results;
    Queue.push (List.map snd batch) t.unsynced
  | Error e -> List.iter (fun (_, c) -> c := Failed e) batch);
  t.applying <- false;
  Condition.broadcast t.changed

(* The oldest applied batches, whole, up to [limit] submissions (at
   least one batch): everything they appended precedes the sync *)
let take_unsynced t =
  let rec go acc n =
    match Queue.peek_opt t.unsynced with
    | Some b when acc = [] || n + List.length b <= t.limit ->
      ignore (Queue.pop t.unsynced);
      go (List.rev_append b acc) (n + List.length b)
    | _ -> List.rev acc
  in
  go [] 0

let sync_stage t =
  t.syncing <- true;
  let covered = take_unsynced t in
  Mutex.unlock t.m;
  let start = Xsm_obs.Clock.now_ns () in
  let outcome =
    match t.sync () with () -> Ok (start, Xsm_obs.Clock.now_ns ()) | exception e -> Error e
  in
  Mutex.lock t.m;
  List.iter
    (fun c ->
      match (outcome, !c) with
      | Ok interval, Applied r -> c := Synced (r, interval)
      | Error e, _ -> c := Failed e
      | Ok _, (Queued | Synced _ | Failed _) -> assert false)
    covered;
  t.batches <- t.batches + 1;
  t.max_batch <- max t.max_batch (List.length covered);
  t.syncing <- false;
  Condition.broadcast t.changed

let submit t req =
  let cell = ref Queued in
  Mutex.lock t.m;
  Queue.push (req, cell) t.q;
  t.submissions <- t.submissions + 1;
  (* take whichever stage this submission needs next if it is free,
     otherwise wait for the stage to finish; never wait for a batch
     applied after this one *)
  let rec step () =
    match !cell with
    | Synced (r, interval) -> Ok (r, interval)
    | Failed e -> Error e
    | Queued when not t.applying ->
      apply_stage t;
      step ()
    | Applied _ when not t.syncing ->
      sync_stage t;
      step ()
    | Queued | Applied _ ->
      Condition.wait t.changed t.m;
      step ()
  in
  let outcome = step () in
  Mutex.unlock t.m;
  match outcome with Ok v -> v | Error e -> raise e

let stats t =
  Mutex.lock t.m;
  let s = { submissions = t.submissions; batches = t.batches; max_batch = t.max_batch } in
  Mutex.unlock t.m;
  s
