module Label = Xsm_numbering.Sedna_label

type 'n entry = { label : Label.t; node : 'n }

(* two parallel arrays: an extent holds the labels and nodes its
   backend already has, and allocates nothing per entry *)
type 'n t = { labels : Label.t array; nodes : 'n array }

let empty = { labels = [||]; nodes = [||] }

let of_nodes label l =
  let nodes = Array.of_list l in
  { labels = Array.map label nodes; nodes }

let of_rev_list rev =
  let a = Array.of_list rev in
  let n = Array.length a in
  { labels = Array.init n (fun i -> a.(n - 1 - i).label);
    nodes = Array.init n (fun i -> a.(n - 1 - i).node) }

let length t = Array.length t.labels
let get t i = { label = t.labels.(i); node = t.nodes.(i) }
let entries t = List.init (length t) (get t)
let nodes t = Array.to_list t.nodes

(* the sub-extent at the given increasing positions *)
let select t positions =
  let p = Array.of_list positions in
  { labels = Array.map (fun i -> t.labels.(i)) p; nodes = Array.map (fun i -> t.nodes.(i)) p }

(* the entries at positions [keep] accepts *)
let filter keep t =
  let out = ref [] in
  for i = length t - 1 downto 0 do
    if keep i then out := i :: !out
  done;
  select t !out

let select_by_labels t labels =
  (* both sides sorted by label: one merge scan *)
  let out = ref [] in
  let i = ref 0 in
  let n = length t in
  List.iter
    (fun l ->
      while !i < n && Label.compare t.labels.(!i) l < 0 do
        incr i
      done;
      if !i < n && Label.equal t.labels.(!i) l then out := !i :: !out)
    labels;
  select t (List.rev !out)

let inter a b =
  let out = ref [] in
  let i = ref 0 and j = ref 0 in
  while !i < length a && !j < length b do
    let c = Label.compare a.labels.(!i) b.labels.(!j) in
    if c = 0 then begin
      out := !i :: !out;
      incr i;
      incr j
    end
    else if c < 0 then incr i
    else incr j
  done;
  select a (List.rev !out)

(* one merge scan of two sorted extents; a label on both sides is kept
   once *)
let merge2 a b =
  let na = length a and nb = length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let labels = Array.make (na + nb) a.labels.(0) and nodes = Array.make (na + nb) a.nodes.(0) in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na || !j < nb do
      let c =
        if !i = na then 1 else if !j = nb then -1 else Label.compare a.labels.(!i) b.labels.(!j)
      in
      if c <= 0 then begin
        labels.(!k) <- a.labels.(!i);
        nodes.(!k) <- a.nodes.(!i);
        incr i;
        if c = 0 then incr j
      end
      else begin
        labels.(!k) <- b.labels.(!j);
        nodes.(!k) <- b.nodes.(!j);
        incr j
      end;
      incr k
    done;
    if !k = na + nb then { labels; nodes }
    else { labels = Array.sub labels 0 !k; nodes = Array.sub nodes 0 !k }
  end

(* pairwise rounds: each entry takes part in log(#extents) scans *)
let rec merge = function
  | [] -> empty
  | [ single ] -> single
  | ts ->
    let rec pairs = function a :: b :: rest -> merge2 a b :: pairs rest | short -> short in
    merge (pairs ts)

(* greatest index with label <= l, or -1.  In an antichain this is the
   only entry that can be an ancestor of l: any later entry exceeds l,
   and an earlier entry o < candidate <= l with o ancestor of l would
   make o comparable to the candidate, contradicting the antichain. *)
let find_le t l =
  let lo = ref 0 and hi = ref (length t - 1) and best = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if Label.compare t.labels.(mid) l <= 0 then begin
      best := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !best

let position t l =
  match find_le t l with
  | -1 -> None
  | i -> if Label.equal t.labels.(i) l then Some i else None

let mem t l = Option.is_some (position t l)

(* [t] with [len] entries from [pos] replaced by the given ones *)
let splice t pos len ~labels ~nodes =
  let n = length t and m = Array.length labels in
  let cut a fresh =
    let out = Array.make (n - len + m) (if m > 0 then fresh.(0) else a.(0)) in
    Array.blit a 0 out 0 pos;
    Array.blit fresh 0 out pos m;
    Array.blit a (pos + len) out (pos + m) (n - pos - len);
    out
  in
  if n - len + m = 0 then empty else { labels = cut t.labels labels; nodes = cut t.nodes nodes }

let insert t e =
  match find_le t e.label with
  | i when i >= 0 && Label.equal t.labels.(i) e.label ->
    splice t i 1 ~labels:[| e.label |] ~nodes:[| e.node |]
  | i ->
    (* i = greatest index with label < e.label, or -1: insert after it *)
    splice t (i + 1) 0 ~labels:[| e.label |] ~nodes:[| e.node |]

let split_off_descendants ?(or_self = false) t l =
  (* descendants of l sit in one contiguous run right after l: they are
     exactly the labels extending l with a separator, and the separator
     is the smallest alphabet symbol *)
  let n = length t in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Label.compare t.labels.(mid) l < 0 then lo := mid + 1 else hi := mid
  done;
  let start = !lo in
  let stop = ref start in
  while
    !stop < n
    &&
    let cl = t.labels.(!stop) in
    Label.is_ancestor l cl || (or_self && Label.equal cl l)
  do
    incr stop
  done;
  if !stop = start then (t, [])
  else
    let removed = List.init (!stop - start) (fun k -> get t (start + k)) in
    (splice t start (!stop - start) ~labels:[||] ~nodes:[||], removed)

let find_ancestor_pos ?(or_self = false) ~among l =
  match find_le among l with
  | -1 -> None
  | i ->
    let cand = among.labels.(i) in
    if (or_self && Label.equal cand l) || Label.is_ancestor cand l then Some i else None

let restrict_by_ancestor ?(or_self = false) ~among t =
  filter (fun i -> Option.is_some (find_ancestor_pos ~or_self ~among t.labels.(i))) t

let restrict_by_parent ~among t =
  filter
    (fun i ->
      let l = t.labels.(i) in
      match find_le among l with -1 -> false | j -> Label.is_parent among.labels.(j) l)
    t

let semijoin_containing ~targets owners =
  let marked = Array.make (length owners) false in
  List.iter
    (fun target ->
      Array.iter
        (fun l ->
          match find_ancestor_pos ~or_self:true ~among:owners l with
          | Some i -> marked.(i) <- true
          | None -> ())
        target.labels)
    targets;
  filter (fun i -> marked.(i)) owners
