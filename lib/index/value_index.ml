module Decimal = Xsm_datatypes.Decimal
module Value = Xsm_datatypes.Value
module Label = Xsm_numbering.Sedna_label

module Key = struct
  type t = Number of Decimal.t | Text of string

  let of_string s =
    match Decimal.of_string (String.trim s) with
    | Ok d -> Number d
    | Error _ -> Text s

  let of_value = function
    | Value.Decimal d -> Number d
    | v -> of_string (Value.canonical_string v)

  let compare a b =
    match a, b with
    | Number a, Number b -> Decimal.compare a b
    | Number _, Text _ -> -1
    | Text _, Number _ -> 1
    | Text a, Text b -> String.compare a b

  let pp ppf = function
    | Number d -> Decimal.pp ppf d
    | Text s -> Format.fprintf ppf "%S" s
end

type op = Lt | Le | Gt | Ge

let same_family (a : Key.t) (b : Key.t) =
  match a, b with
  | Key.Number _, Key.Number _ | Key.Text _, Key.Text _ -> true
  | Key.Number _, Key.Text _ | Key.Text _, Key.Number _ -> false

let op_matches op a b =
  same_family a b
  &&
  let c = Key.compare a b in
  match op with Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0 | Ge -> c >= 0

(* One entry: a (key, exact string) value contributed by one target
   node, attributed to the owner extent entry the probe answers with.
   The ground truth is keyed by the target's numbering label, so
   differential maintenance can replace exactly the entries a mutated
   target contributed.  The probe structures (the sorted key array and
   the exact-string table) are built from memory on the first probe —
   a sort of what is already there, never a walk of the document — and
   from then on every maintenance step splices its entries in and out
   of them, so a probe after an update sorts nothing. *)
type centry = { key : Key.t; sval : string; owner : Label.t }

type summary = {
  s_rows : int;
  s_targets : int;
  s_distinct : int;
  s_numbers : int;
  s_buckets : (Key.t * int) list;
}

type t = {
  by_target : (string, centry list) Hashtbl.t;  (* raw target label -> entries *)
  mutable entry_count : int;
  mutable cached : bool;  (* probe structures built and kept current *)
  mutable probe : (Key.t * Label.t) array;  (* [0, probe_len) by key, then owner *)
  mutable probe_len : int;
  by_string : (string, Label.t list) Hashtbl.t;  (* exact string -> owners *)
  mutable first_text : int;  (* index of the first Text key in [probe] *)
  key_counts : (string, Key.t * int) Hashtbl.t;  (* canonical key -> count *)
  mutable number_count : int;  (* entries in the Number family *)
  mutable memo : (int * summary) option;  (* last summary, by bucket count *)
}

let create () =
  { by_target = Hashtbl.create 64;
    entry_count = 0;
    cached = false;
    probe = [||];
    probe_len = 0;
    by_string = Hashtbl.create 16;
    first_text = 0;
    key_counts = Hashtbl.create 64;
    number_count = 0;
    memo = None }

let size t = t.entry_count
let target_count t = Hashtbl.length t.by_target

(* hashtable-safe canonical spelling of a key; the N:/T: prefixes keep
   the families apart even when a text value spells a number *)
let canon = function
  | Key.Number d -> "N:" ^ Decimal.to_string d
  | Key.Text s -> "T:" ^ s

let count_key counts number_count key delta =
  let ck = canon key in
  (match Hashtbl.find_opt counts ck with
  | None -> if delta > 0 then Hashtbl.replace counts ck (key, delta)
  | Some (_, n) ->
    let n = n + delta in
    if n <= 0 then Hashtbl.remove counts ck else Hashtbl.replace counts ck (key, n));
  match key with Key.Number _ -> number_count + delta | Key.Text _ -> number_count

let compare_item (ka, oa) (kb, ob) =
  let c = Key.compare ka kb in
  if c <> 0 then c else Label.compare oa ob

(* first index of [probe] whose item compares >= the given one *)
let item_bound t item =
  let lo = ref 0 and hi = ref t.probe_len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_item t.probe.(mid) item < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let shift_family t key delta =
  match key with Key.Number _ -> t.first_text <- t.first_text + delta | Key.Text _ -> ()

let add_string t e =
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.by_string e.sval) in
  Hashtbl.replace t.by_string e.sval (e.owner :: prev)

let splice_out t e =
  let i = item_bound t (e.key, e.owner) in
  Array.blit t.probe (i + 1) t.probe i (t.probe_len - i - 1);
  t.probe_len <- t.probe_len - 1;
  shift_family t e.key (-1);
  match Hashtbl.find_opt t.by_string e.sval with
  | None -> ()
  | Some owners -> (
    let rec drop_one = function
      | [] -> []
      | o :: rest -> if Label.equal o e.owner then rest else o :: drop_one rest
    in
    match drop_one owners with
    | [] -> Hashtbl.remove t.by_string e.sval
    | owners -> Hashtbl.replace t.by_string e.sval owners)

let splice_in t e =
  let item = (e.key, e.owner) in
  if t.probe_len = Array.length t.probe then begin
    let bigger = Array.make (max 16 (2 * t.probe_len)) item in
    Array.blit t.probe 0 bigger 0 t.probe_len;
    t.probe <- bigger
  end;
  let i = item_bound t item in
  Array.blit t.probe i t.probe (i + 1) (t.probe_len - i);
  t.probe.(i) <- item;
  t.probe_len <- t.probe_len + 1;
  shift_family t e.key 1;
  add_string t e

let remove_target t target =
  let k = Label.to_raw target in
  match Hashtbl.find_opt t.by_target k with
  | None -> ()
  | Some old ->
    Hashtbl.remove t.by_target k;
    t.entry_count <- t.entry_count - List.length old;
    List.iter
      (fun e ->
        t.number_count <- count_key t.key_counts t.number_count e.key (-1);
        if t.cached then splice_out t e)
      old;
    t.memo <- None

let set_target t ~target ~owner kvs =
  remove_target t target;
  match kvs with
  | [] -> ()
  | kvs ->
    let es = List.map (fun (key, sval) -> { key; sval; owner }) kvs in
    Hashtbl.replace t.by_target (Label.to_raw target) es;
    t.entry_count <- t.entry_count + List.length es;
    List.iter
      (fun e ->
        t.number_count <- count_key t.key_counts t.number_count e.key 1;
        if t.cached then splice_in t e)
      es;
    t.memo <- None

let ensure_caches t =
  if not t.cached then begin
    let items = Hashtbl.fold (fun _ es acc -> List.rev_append es acc) t.by_target [] in
    let a = Array.of_list (List.map (fun e -> (e.key, e.owner)) items) in
    Array.sort compare_item a;
    (* first index holding a Text key: numbers sort before texts *)
    let n = Array.length a in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      match fst a.(mid) with
      | Key.Number _ -> lo := mid + 1
      | Key.Text _ -> hi := mid
    done;
    t.first_text <- !lo;
    List.iter (add_string t) items;
    t.probe <- a;
    t.probe_len <- n;
    t.cached <- true
  end

let owners ls = List.sort_uniq Label.compare ls

let eq t s =
  ensure_caches t;
  match Hashtbl.find_opt t.by_string s with None -> [] | Some ls -> owners ls

(* first index in [lo, hi) whose key compares >= (strict = false) or
   > (strict = true) the probe *)
let bound a ~strict ~lo ~hi probe =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Key.compare (fst a.(mid)) probe in
    if c < 0 || (strict && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* Statistics summaries                                                *)

(* equi-depth histogram over (key, count) pairs sorted by key: each
   bucket is (inclusive upper-bound key, entries in the bucket) *)
let build_buckets ~buckets ~rows pairs =
  if rows = 0 then []
  else begin
    let depth = max 1 (rows / max 1 buckets) in
    let out = ref [] and acc = ref 0 in
    List.iter
      (fun (key, n) ->
        acc := !acc + n;
        if !acc >= depth then begin
          out := (key, !acc) :: !out;
          acc := 0
        end)
      pairs;
    (if !acc > 0 then
       match List.rev pairs with
       | (last_key, _) :: _ -> out := (last_key, !acc) :: !out
       | [] -> ());
    List.rev !out
  end

let summary_of_counts ~buckets ~rows ~targets ~numbers counts =
  let pairs =
    Hashtbl.fold (fun _ kc acc -> kc :: acc) counts []
    |> List.sort (fun (a, _) (b, _) -> Key.compare a b)
  in
  { s_rows = rows;
    s_targets = targets;
    s_distinct = List.length pairs;
    s_numbers = numbers;
    s_buckets = build_buckets ~buckets ~rows pairs }

let summary ?(buckets = 8) t =
  match t.memo with
  | Some (b, s) when b = buckets -> s
  | _ ->
    let s =
      summary_of_counts ~buckets ~rows:t.entry_count ~targets:(target_count t)
        ~numbers:t.number_count t.key_counts
    in
    t.memo <- Some (buckets, s);
    s

let rebuilt_summary ?(buckets = 8) t =
  (* recompute the key statistics from the by-target ground truth —
     the reference the differentially maintained counts must match *)
  let counts = Hashtbl.create 64 in
  let numbers = ref 0 in
  Hashtbl.iter
    (fun _ es ->
      List.iter (fun e -> numbers := count_key counts !numbers e.key 1) es)
    t.by_target;
  summary_of_counts ~buckets ~rows:t.entry_count ~targets:(target_count t)
    ~numbers:!numbers counts

let count_eq t lit =
  match Hashtbl.find_opt t.key_counts (canon (Key.of_string lit)) with
  | None -> 0
  | Some (_, n) -> n

let est_eq s _lit =
  if s.s_distinct = 0 then 0.
  else float_of_int s.s_rows /. float_of_int s.s_distinct

let est_range s op probe =
  let family_total =
    match probe with
    | Key.Number _ -> s.s_numbers
    | Key.Text _ -> s.s_rows - s.s_numbers
  in
  if family_total = 0 then 0.
  else begin
    (* entries of the probe's family strictly below its bucket, plus
       half of the straddling bucket *)
    let in_family k = same_family k probe in
    let below = ref 0. and closed = ref false in
    List.iter
      (fun (ub, n) ->
        if in_family ub && not !closed then
          if Key.compare ub probe < 0 then below := !below +. float_of_int n
          else begin
            below := !below +. (float_of_int n /. 2.);
            closed := true
          end)
      s.s_buckets;
    let below = Float.min !below (float_of_int family_total) in
    match op with
    | Lt | Le -> below
    | Gt | Ge -> float_of_int family_total -. below
  end

let range t op probe =
  ensure_caches t;
  let a = t.probe and n = t.probe_len in
  (* the probe's own family only *)
  let family_lo, family_hi =
    match probe with Key.Number _ -> (0, t.first_text) | Key.Text _ -> (t.first_text, n)
  in
  let from_, to_ =
    match op with
    | Lt -> (family_lo, bound a ~strict:false ~lo:family_lo ~hi:family_hi probe)
    | Le -> (family_lo, bound a ~strict:true ~lo:family_lo ~hi:family_hi probe)
    | Gt -> (bound a ~strict:true ~lo:family_lo ~hi:family_hi probe, family_hi)
    | Ge -> (bound a ~strict:false ~lo:family_lo ~hi:family_hi probe, family_hi)
  in
  let out = ref [] in
  for i = from_ to to_ - 1 do
    out := snd a.(i) :: !out
  done;
  owners !out
