(* A node's position under its parent: attributes sort before element
   and text children, both by their sequence index.  A root has the
   empty path; any other node's path is its parent's path extended
   with its rank.  Lexicographic path comparison is exactly << because
   a prefix means ancestorship and §7 places an ancestor before its
   subtree. *)

let rank store n =
  match Store.parent store n with
  | None -> None
  | Some p ->
    let find xs =
      let rec go i = function
        | [] -> None
        | x :: rest -> if Store.equal_node x n then Some i else go (i + 1) rest
      in
      go 0 xs
    in
    (match find (Store.attributes store p) with
    | Some i -> Some (p, (0, i))
    | None -> (
      match find (Store.children store p) with
      | Some i -> Some (p, (1, i))
      | None -> invalid_arg "Order: node not reachable from its parent"))

let path store n =
  let rec go acc n =
    match rank store n with None -> acc | Some (p, r) -> go (r :: acc) p
  in
  go [] n

let compare store a b =
  if Store.equal_node a b then 0
  else begin
    let ra = Store.root store a and rb = Store.root store b in
    if not (Store.equal_node ra rb) then
      invalid_arg "Order.compare: nodes belong to different trees";
    Stdlib.compare (path store a) (path store b)
  end

let precedes store a b = compare store a b < 0
let nodes_in_order store n = Store.descendants_or_self store n

let is_ancestor store a d =
  let rec up n =
    match Store.parent store n with
    | None -> false
    | Some p -> Store.equal_node p a || up p
  in
  up d

let index_in_parent store n =
  match rank store n with Some (_, (1, i)) -> Some i | Some (_, _) | None -> None
