module Store = Xsm_xdm.Store

type t = int list

let root = []

let rec compare a b =
  match a, b with
  | [], [] -> 0
  | [], _ :: _ -> -1 (* ancestor first *)
  | _ :: _, [] -> 1
  | x :: a', y :: b' -> if x <> y then Stdlib.compare x y else compare a' b'

let equal a b = compare a b = 0

let rec is_ancestor a b =
  match a, b with
  | [], _ :: _ -> true
  | x :: a', y :: b' -> x = y && is_ancestor a' b'
  | _, [] -> false

let is_parent a b = List.length b = List.length a + 1 && is_ancestor a b
let depth = List.length
let byte_size l = 4 * List.length l
let child parent i = parent @ [ i + 1 ]

let pp ppf l =
  Format.fprintf ppf "%s" (String.concat "." (List.map string_of_int l))

(* ------------------------------------------------------------------ *)

type forest = {
  labels : (int, t) Hashtbl.t;
  (* children of each node in current sibling order, for renumbering *)
  kids : (int, Store.node list) Hashtbl.t;
}

let label f node = Hashtbl.find f.labels (Store.node_id node)

let forest_of_tree store rootn =
  let f = { labels = Hashtbl.create 256; kids = Hashtbl.create 256 } in
  let rec go node l =
    Hashtbl.replace f.labels (Store.node_id node) l;
    let ordered = Store.attributes store node @ Store.children store node in
    Hashtbl.replace f.kids (Store.node_id node) ordered;
    List.iteri (fun i c -> go c (child l i)) ordered
  in
  go rootn root;
  f

(* relabel the subtree under [node]; returns how many labels were set *)
let rec relabel f node l =
  Hashtbl.replace f.labels (Store.node_id node) l;
  let kids = Option.value ~default:[] (Hashtbl.find_opt f.kids (Store.node_id node)) in
  List.fold_left (fun (i, count) c -> (i + 1, count + relabel f c (child l i))) (0, 1) kids
  |> snd

let insert_after f ~parent ~after node =
  let kids = Option.value ~default:[] (Hashtbl.find_opt f.kids (Store.node_id parent)) in
  let before, following =
    match after with
    | None -> ([], kids)
    | Some a ->
      let rec split acc = function
        | [] -> (List.rev acc, [])
        | k :: rest ->
          if Store.equal_node k a then (List.rev (k :: acc), rest) else split (k :: acc) rest
      in
      split [] kids
  in
  let new_kids = before @ [ node ] @ following in
  Hashtbl.replace f.kids (Store.node_id parent) new_kids;
  let parent_label = label f parent in
  let position = List.length before in
  let new_label = child parent_label position in
  Hashtbl.replace f.labels (Store.node_id node) new_label;
  Hashtbl.replace f.kids (Store.node_id node) [];
  (* renumber every following sibling subtree *)
  let changed =
    List.fold_left
      (fun (i, count) sib -> (i + 1, count + relabel f sib (child parent_label i)))
      (position + 1, 0) following
    |> snd
  in
  (new_label, changed)

