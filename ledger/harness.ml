(* Shared machinery of the ledger benchmark: child processes with a
   readiness pipe, peak RSS, percentiles that carry their sample
   counts, the seeded input generators, and the result lines.

   Every measured workload runs its system under test in a child
   process re-executed from this binary.  The child's stdin and stdout
   are pipes to the parent: the child writes "ready" once it can take
   work (that instant ends set-up), and its later stdout lines are its
   results.  Peak RSS is VmHWM, a per-process
   high-water mark, which is why the working side of each workload is
   its own process. *)

module Json = Xsm_obs.Json
module Clock = Xsm_obs.Clock
module Tree = Xsm_xml.Tree

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)

type child = { pid : int; from_child : in_channel; to_child : out_channel }

(* children still running, killed on any exit path so a failed run
   never leaves a daemon behind *)
let live : int list ref = ref []

let forget pid = live := List.filter (fun p -> p <> pid) !live

let kill_all () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !live;
  List.iter
    (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

(* CPU placement.  The daemon and the load generator each get a CPU of
   their own, so they never compete for one and the scheduler does not
   move them about: on a two-CPU machine that halves the run-to-run
   spread of the serve workloads.  Placement goes through [taskset];
   without it, or with fewer than two CPUs allowed, nothing is pinned. *)
let allowed_cpus () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | l when String.length l > 18 && String.sub l 0 18 = "Cpus_allowed_list:" ->
      String.trim (String.sub l 18 (String.length l - 18))
    | _ -> scan ()
    | exception End_of_file -> ""
  in
  let list = scan () in
  close_in ic;
  String.split_on_char ',' list
  |> List.concat_map (fun r ->
         match String.split_on_char '-' r with
         | [ a ] -> ( match int_of_string_opt a with Some a -> [ a ] | None -> [])
         | [ a; b ] -> (
           match (int_of_string_opt a, int_of_string_opt b) with
           | Some a, Some b when b >= a -> List.init (b - a + 1) (fun i -> a + i)
           | _ -> [])
         | _ -> [])

let on_path prog =
  List.exists
    (fun d -> d <> "" && Sys.file_exists (Filename.concat d prog))
    (String.split_on_char ':' (Option.value ~default:"" (Sys.getenv_opt "PATH")))

(* (daemon CPU, load generator CPU), chosen once per run: a process
   re-executed onto the generator CPU finds it in the environment *)
let placement_var = "LEDGER_CPUS"

let placement =
  lazy
    (match Option.map (String.split_on_char ',') (Sys.getenv_opt placement_var) with
    | Some [ a; b ] -> Some (int_of_string a, int_of_string b)
    | Some _ -> None
    | None -> (
      match allowed_cpus () with a :: b :: _ when on_path "taskset" -> Some (a, b) | _ -> None))

let pinned cpu argv =
  match cpu with Some c -> "taskset" :: "-c" :: string_of_int c :: argv | None -> argv

let spawn ?cpu args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let argv = pinned cpu (Sys.executable_name :: args) in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  live := pid :: !live;
  { pid; from_child = Unix.in_channel_of_descr out_r; to_child = Unix.out_channel_of_descr in_w }

let read_line c = try Some (input_line c.from_child) with End_of_file -> None

let await_ready c =
  match read_line c with
  | Some "ready" -> ()
  | Some l -> failwith (Printf.sprintf "child %d: expected ready, got %S" c.pid l)
  | None -> failwith (Printf.sprintf "child %d exited before it was ready" c.pid)

let rec waitpid_noeintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

(* Reap a child and close its pipes; a non-zero exit is a failed run. *)
let wait c =
  close_out_noerr c.to_child;
  let status = waitpid_noeintr c.pid in
  forget c.pid;
  close_in_noerr c.from_child;
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> failwith (Printf.sprintf "child %d exited with %d" c.pid n)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    failwith (Printf.sprintf "child %d stopped by signal %d" c.pid s)

let kill c =
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (waitpid_noeintr c.pid);
  forget c.pid;
  close_out_noerr c.to_child;
  close_in_noerr c.from_child

(* Child side of the handshake. *)
let signal_ready () =
  print_endline "ready";
  flush stdout

(* ------------------------------------------------------------------ *)
(* Peak RSS                                                            *)

let vmhwm_kb_of path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> scan ()
        | exception End_of_file -> failwith (path ^ ": no VmHWM line")
      in
      scan ())

let vmhwm_kb_self () = vmhwm_kb_of "/proc/self/status"
let vmhwm_kb pid = vmhwm_kb_of (Printf.sprintf "/proc/%d/status" pid)

(* ------------------------------------------------------------------ *)
(* Samples and percentiles                                             *)

(* A growable float buffer: latency samples are pushed on the hot path
   of the load generator, so no list consing per request. *)
module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.; n = 0 }

  let push t x =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0. in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.data 0 t.n

  let concat ts =
    let out = create () in
    List.iter (fun t -> for i = 0 to t.n - 1 do push out t.data.(i) done) ts;
    out
end

(* Nearest-rank quantile of an ascending array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sorted_of samples =
  let a = Samples.to_array samples in
  Array.sort Float.compare a;
  a

let median_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles the way Python's statistics.quantiles(n=4) computes them
   (the "exclusive" method), so ledger spreads match the ones an
   outside check computes from the same values. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let at i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (at 1, at 3)

(* ------------------------------------------------------------------ *)
(* Metrics and result lines                                            *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

(* Median, p90 and p99 over every sample of the run, each with its
   sample count.  The p99 is left out below [min_p99] samples. *)
let latency_rows ~min_p99 prefix samples =
  let a = sorted_of samples in
  let n = Array.length a in
  if n = 0 then []
  else
    metric (prefix ^ "p50_ms") "ms" (quantile a 0.5) ~samples:n
    :: metric (prefix ^ "p90_ms") "ms" (quantile a 0.9) ~samples:n
    :: (if n >= min_p99 then [ metric (prefix ^ "p99_ms") "ms" (quantile a 0.99) ~samples:n ] else [])

(* What one workload run hands back: every row it measured, the
   operations it attempted and saw fail, and any failed check. *)
type outcome = { rows : metric list; attempted : int; failed : int; errors : string list }

let metric_json m =
  Json.Obj
    [
      ("name", Json.Str m.name);
      ("unit", Json.Str m.unit_);
      ("value", Json.Num m.value);
      ("samples", Json.int m.samples);
    ]

let metric_of_json j =
  let field k = Json.member k j in
  match (field "name", field "unit", field "value", field "samples") with
  | Some (Json.Str name), Some (Json.Str unit_), Some (Json.Num value), Some (Json.Num s) ->
    Some { name; unit_; value; samples = int_of_float s }
  | _ -> None

let rows_prefix = "ledger-rows "

(* Human-readable rows, then one machine line the orchestrator parses;
   both precede the result object, which must be the last line. *)
let print_rows ~workload rows =
  List.iter
    (fun m ->
      Printf.printf "%-12s %-32s %16.6g %-6s (n=%d)\n" workload m.name m.value m.unit_ m.samples)
    rows;
  print_string rows_prefix;
  print_endline (Json.to_string (Json.Arr (List.map metric_json rows)))

let print_result ~correct ~attempted ~failed metrics =
  let body =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.int attempted);
        ("failed", Json.int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m -> (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string body);
  flush stdout

(* ------------------------------------------------------------------ *)
(* Work directory                                                      *)

(* Everything a run writes lives under one directory inside the
   current directory, removed when the run ends. *)
let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let work_root = "_ledger"

let with_workdir tag f =
  if not (Sys.file_exists work_root) then Unix.mkdir work_root 0o755;
  let dir = Filename.concat work_root (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  remove_tree dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      remove_tree dir;
      (* left in place while another run still works in it *)
      try Unix.rmdir work_root with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let file_size path = (Unix.stat path).Unix.st_size

let since_ns t0 = Int64.to_float (Int64.sub (Clock.now_ns ()) t0)

(* ------------------------------------------------------------------ *)
(* Seeded record corpus (the E16 shape)                                *)

module Ast = Xsm_schema.Ast

let record_fields = 5

(* doc = rec*;  rec = @id, k0..k4 : xs:string *)
let record_schema =
  let field i =
    Ast.elem_p (Ast.element (Printf.sprintf "k%d" i) (Ast.named_type "xs:string"))
  in
  let rec_type =
    Ast.complex
      ~attributes:[ Ast.attribute "id" "xs:string" ]
      (Some (Ast.sequence (List.init record_fields field)))
  in
  Ast.schema
    (Ast.element "doc"
       (Ast.Anonymous
          (Ast.complex
             (Some
                (Ast.sequence
                   [ Ast.elem_p (Ast.element ~repetition:Ast.many "rec" (Ast.Anonymous rec_type)) ])))))

(* Records of a few hundred bytes until [target_bytes]; returns the
   record count.  Payload words come from the seeded generator, so
   text runs differ per seed and per corpus. *)
let write_corpus path ~seed ~corpus ~target_bytes =
  let rng = Random.State.make [| seed; 0x16; corpus |] in
  let oc = open_out_bin path in
  let word () = Printf.sprintf "w%06x" (Random.State.bits rng land 0xFFFFFF) in
  output_string oc "<doc>";
  let n = ref 0 in
  while pos_out oc < target_bytes do
    incr n;
    Printf.fprintf oc "<rec id=\"r%d\">" !n;
    for i = 0 to record_fields - 1 do
      Printf.fprintf oc "<k%d>%s %s %s %s</k%d>" i (word ()) (word ()) (word ()) (word ()) i
    done;
    output_string oc "</rec>"
  done;
  output_string oc "</doc>";
  close_out oc;
  !n

(* Descriptors a bulk load of [records] records creates: the document
   node and <doc>, then per record the element, its id attribute and
   five fields with one text each. *)
let corpus_descriptors records = 2 + (records * (2 + (2 * record_fields)))

(* ------------------------------------------------------------------ *)
(* Seeded library documents (valid against Samples.library_schema)     *)

type book = { title : string; authors : string list; issue : (string * int) option }
type paper = { p_title : string; p_author : string }
type library = { books : book array; papers : paper array }

let publishers =
  [| "Addison-Wesley"; "Springer"; "Morgan Kaufmann"; "Elsevier"; "MIT Press"; "ACM"; "IEEE"; "Wiley" |]

let author_pool books = max 4 (books / 4)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let permutation rng n =
  let a = Array.init n Fun.id in
  shuffle rng a;
  a

(* Book [i] (1-based, its position among the <book> children) is
   titled "Volume i".  The seed decides which book gets what, never how
   much of it there is: exactly half the books carry an issue, with
   years spread evenly over 1950-2019 and publishers in turn; a third
   each have one, two and three authors, dealt round a shuffled pool
   so every author writes about as many books.  Documents of one size
   therefore cost the same to load and query whatever the seed. *)
let library ~seed ~books ~papers =
  let rng = Random.State.make [| seed; 0x1b |] in
  let pool = author_pool books in
  let deal = permutation rng pool in
  let dealt = ref 0 in
  let author () =
    let a = deal.(!dealt mod pool) in
    incr dealt;
    Printf.sprintf "Author %d" a
  in
  let placement = permutation rng books in
  let issues = books / 2 in
  let book i =
    let rank = placement.(i) in
    let authors = List.init (1 + (rank mod 3)) (fun _ -> author ()) in
    {
      title = Printf.sprintf "Volume %d" (i + 1);
      authors;
      issue =
        (if rank < issues then
           Some (publishers.(rank mod Array.length publishers), 1950 + (rank * 70 / issues))
         else None);
    }
  in
  let paper i = { p_title = Printf.sprintf "Paper %d" (i + 1); p_author = author () } in
  { books = Array.init books book; papers = Array.init papers paper }

let leaf name value = Tree.element (Tree.elem name ~children:[ Tree.text value ])

let book_element b =
  Tree.elem "book"
    ~children:
      ([ leaf "title" b.title ]
      @ List.map (leaf "author") b.authors
      @
      match b.issue with
      | None -> []
      | Some (p, y) ->
        [
          Tree.element
            (Tree.elem "issue" ~children:[ leaf "publisher" p; leaf "year" (string_of_int y) ]);
        ])

let paper_element p = Tree.elem "paper" ~children:[ leaf "title" p.p_title; leaf "author" p.p_author ]

let library_tree lib =
  Tree.document
    (Tree.elem "library"
       ~children:
         (Array.to_list (Array.map (fun b -> Tree.element (book_element b)) lib.books)
         @ Array.to_list (Array.map (fun p -> Tree.element (paper_element p)) lib.papers)))

let write_library path lib =
  let oc = open_out_bin path in
  output_string oc (Xsm_xml.Printer.to_string (library_tree lib));
  close_out oc

(* The model's answers to the query templates the traffic mixes use. *)
let count p a = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 a
let books_by_author lib a = count (fun b -> List.mem a b.authors) lib.books
let papers_by_author lib a = count (fun p -> p.p_author = a) lib.papers
let books_with_issue lib = count (fun b -> b.issue <> None) lib.books

let books_year_below lib y =
  count (fun b -> match b.issue with Some (_, yr) -> yr < y | None -> false) lib.books

let books_by_publisher lib p =
  count (fun b -> match b.issue with Some (pb, _) -> pb = p | None -> false) lib.books

(* ------------------------------------------------------------------ *)
(* JSON lookups over stats replies                                     *)

let rec json_at path j =
  match path with
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (json_at rest)

let json_num path j = match json_at path j with Some (Json.Num f) -> f | _ -> 0.

let json_strings key j =
  match Json.member key j with
  | Some (Json.Arr es) -> List.filter_map (function Json.Str s -> Some s | _ -> None) es
  | _ -> []

let ok_or_fail = function Ok x -> x | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

type recovered = {
  store : Xsm_xdm.Store.t;
  root : Xsm_xdm.Store.node;
  replayed : int;
  snapshot_ms : float;
  replay_ms : float;
}

(* Snapshot base + WAL -> the state they describe, the two halves
   timed apart. *)
let recover ~snap ~wal =
  let t0 = Clock.now_ns () in
  let store, root, labels, _ = ok_or_fail (Xsm_persist.Snapshot.load ~path:snap) in
  let t1 = Clock.now_ns () in
  let stats =
    Xsm_persist.Recovery.replay_wal ?labels store ~root wal
    |> Result.map_error Xsm_persist.Recovery.error_message
    |> ok_or_fail
  in
  let t2 = Clock.now_ns () in
  let ms a b = Int64.to_float (Int64.sub b a) /. 1e6 in
  {
    store;
    root;
    replayed = stats.Xsm_persist.Recovery.replayed;
    snapshot_ms = ms t0 t1;
    replay_ms = ms t1 t2;
  }

let recovery_json r extra =
  Json.Obj
    ([
       ("snapshot_ms", Json.Num r.snapshot_ms);
       ("replay_ms", Json.Num r.replay_ms);
       ("replayed", Json.int r.replayed);
     ]
    @ extra)
