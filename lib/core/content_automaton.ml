module Name = Xsm_xml.Name

(* Regular expression over positions.  Each position carries the
   element declaration of the occurrence. *)
type re =
  | Eps
  | Pos of int
  | Cat of re * re
  | Alt of re * re
  | Star of re
  | Opt of re

exception Too_large of int

type glushkov = {
  decls : Ast.element_decl array;  (* position -> declaration *)
  names : Name.t array;  (* position -> element name (cache) *)
  nullable : bool;
  first : int list;
  follow : int list array;  (* position -> positions that may follow *)
  last : bool array;  (* position -> may end the word *)
  deterministic : bool;
}

(* the footnote-2 interleave ("all") groups: element particles only,
   each at most once, in any order — a bitmask matcher instead of a
   position automaton (whose expansion would be factorial) *)
type interleave = {
  i_decls : Ast.element_decl array;
  i_names : Name.t array;
  i_required : bool array;  (* min_occurs = 1 *)
  i_group_optional : bool;  (* the whole group may be absent *)
  i_deterministic : bool;  (* element names pairwise distinct *)
}

type t = Glushkov of glushkov | Interleave of interleave

(* Build the position regex for a group.  [fresh d] allocates a
   position for declaration [d].  Bounded repetitions are expanded and
   every expanded copy rebuilds its body with fresh positions, so the
   result really is a position regex (every [Pos] occurs once). *)
let rec re_of_group ~fresh (g : Ast.group_def) =
  let copy () =
    let combine =
      match g.combination with
      | Ast.Sequence -> fun a b -> Cat (a, b)
      | Ast.Choice -> fun a b -> Alt (a, b)
      | Ast.All -> invalid_arg "an all group may not be nested inside another group"
    in
    match g.particles with
    | [] -> Eps
    | p :: rest ->
      List.fold_left
        (fun acc q -> combine acc (re_of_particle ~fresh q))
        (re_of_particle ~fresh p) rest
  in
  repeat_with ~copy g.group_repetition

and re_of_particle ~fresh = function
  | Ast.Element_particle e ->
    repeat_with ~copy:(fun () -> Pos (fresh e)) e.repetition
  | Ast.Group_particle g -> re_of_group ~fresh g

and repeat_with ~copy (r : Ast.repetition) =
  if not (Ast.repetition_valid r) then invalid_arg "invalid repetition factor";
  match r.min_occurs, r.max_occurs with
  | 0, Some 0 -> Eps
  | 1, Some 1 -> copy ()
  | 0, None -> Star (copy ())
  | min, max ->
    let mandatory = List.init min (fun _ -> copy ()) in
    let head =
      match mandatory with
      | [] -> Eps
      | x :: rest -> List.fold_left (fun acc y -> Cat (acc, y)) x rest
    in
    (match max with
    | None -> Cat (head, Star (copy ()))
    | Some m ->
      (* (x (x (x)?)?)? nested optionals for the m - min optional copies *)
      let rec optional k = if k = 0 then Eps else Opt (Cat (copy (), optional (k - 1))) in
      let tail = optional (m - min) in
      if head = Eps then tail else if tail = Eps then head else Cat (head, tail))

(* Glushkov sets *)
let rec nullable = function
  | Eps -> true
  | Pos _ -> false
  | Cat (a, b) -> nullable a && nullable b
  | Alt (a, b) -> nullable a || nullable b
  | Star _ | Opt _ -> true

let rec first = function
  | Eps -> []
  | Pos p -> [ p ]
  | Cat (a, b) -> if nullable a then first a @ first b else first a
  | Alt (a, b) -> first a @ first b
  | Star a | Opt a -> first a

let rec last = function
  | Eps -> []
  | Pos p -> [ p ]
  | Cat (a, b) -> if nullable b then last a @ last b else last b
  | Alt (a, b) -> last a @ last b
  | Star a | Opt a -> last a

let rec fill_follow follow = function
  | Eps | Pos _ -> ()
  | Cat (a, b) ->
    fill_follow follow a;
    fill_follow follow b;
    let fb = first b in
    List.iter (fun p -> follow.(p) <- fb @ follow.(p)) (last a)
  | Alt (a, b) ->
    fill_follow follow a;
    fill_follow follow b
  | Star a ->
    fill_follow follow a;
    let fa = first a in
    List.iter (fun p -> follow.(p) <- fa @ follow.(p)) (last a)
  | Opt a -> fill_follow follow a

let dedup_sorted l = List.sort_uniq compare l

let deterministic_set names positions =
  (* no two distinct positions carry the same name *)
  let uniq = dedup_sorted positions in
  let sorted = List.sort (fun a b -> Name.compare names.(a) names.(b)) uniq in
  let rec ok = function
    | a :: (b :: _ as rest) ->
      if Name.equal names.(a) names.(b) then false else ok rest
    | [ _ ] | [] -> true
  in
  ok sorted

let make_interleave (g : Ast.group_def) =
  let decls =
    List.map
      (function
        | Ast.Element_particle e -> e
        | Ast.Group_particle _ ->
          invalid_arg "an all group contains element declarations only")
      g.Ast.particles
  in
  List.iter
    (fun (e : Ast.element_decl) ->
      if not (Ast.repetition_valid e.repetition) then invalid_arg "invalid repetition factor";
      match e.repetition.Ast.max_occurs with
      | Some m when m <= 1 -> ()
      | Some _ | None ->
        invalid_arg "elements of an all group may occur at most once")
    decls;
  (match g.Ast.group_repetition with
  | { Ast.min_occurs = 0 | 1; max_occurs = Some 1 } -> ()
  | _ -> invalid_arg "an all group itself occurs at most once");
  let arr = Array.of_list decls in
  let names = Array.map (fun (d : Ast.element_decl) -> d.Ast.elem_name) arr in
  let sorted = List.sort Name.compare (Array.to_list names) in
  let rec distinct = function
    | a :: (b :: _ as rest) -> (not (Name.equal a b)) && distinct rest
    | [ _ ] | [] -> true
  in
  {
    i_decls = arr;
    i_names = names;
    i_required = Array.map (fun (d : Ast.element_decl) -> d.Ast.repetition.Ast.min_occurs >= 1) arr;
    i_group_optional = g.Ast.group_repetition.Ast.min_occurs = 0;
    i_deterministic = distinct sorted;
  }

let make ?(max_positions = 20_000) (g : Ast.group_def) =
  if g.Ast.combination = Ast.All then
    match make_interleave g with
    | m -> Ok (Interleave m)
    | exception Invalid_argument e -> Error e
  else begin
  let decls = ref [] and count = ref 0 in
  let fresh d =
    if !count >= max_positions then raise (Too_large !count);
    decls := d :: !decls;
    incr count;
    !count - 1
  in
  match re_of_group ~fresh g with
  | exception Too_large n -> Error (Printf.sprintf "content model too large (%d positions)" n)
  | exception Invalid_argument m -> Error m
  | re ->
    let n = !count in
    let decls = Array.of_list (List.rev !decls) in
    let names = Array.map (fun (d : Ast.element_decl) -> d.Ast.elem_name) decls in
    let follow = Array.make n [] in
    fill_follow follow re;
    let follow = Array.map dedup_sorted follow in
    let first_set = dedup_sorted (first re) in
    let last_arr = Array.make n false in
    List.iter (fun p -> last_arr.(p) <- true) (last re);
    let deterministic =
      deterministic_set names first_set
      && Array.for_all (fun f -> deterministic_set names f) follow
    in
    Ok
      (Glushkov
         {
           decls;
           names;
           nullable = nullable re;
           first = first_set;
           follow;
           last = last_arr;
           deterministic;
         })
  end

let position_count = function
  | Glushkov a -> Array.length a.decls
  | Interleave m -> Array.length m.i_decls

let is_deterministic = function
  | Glushkov a -> a.deterministic
  | Interleave m -> m.i_deterministic

let decls = function Glushkov a -> a.decls | Interleave m -> m.i_decls

let step a current name =
  let targets = match current with None -> a.first | Some p -> a.follow.(p) in
  List.filter (fun p -> Name.equal a.names.(p) name) targets

(* ------------------------------------------------------------------ *)
(* UPA conflict witnesses                                              *)

type conflict = {
  conflict_name : Name.t;
  first_decl : Ast.element_decl;
  second_decl : Ast.element_decl;
  witness : Name.t list;
}

(* two distinct positions in [targets] carrying the same name *)
let clash_in names targets =
  let sorted =
    List.sort (fun a b -> Name.compare names.(a) names.(b)) (dedup_sorted targets)
  in
  let rec scan = function
    | a :: (b :: _ as rest) ->
      if Name.equal names.(a) names.(b) then Some (a, b) else scan rest
    | [ _ ] | [] -> None
  in
  scan sorted

let glushkov_conflict a =
  if a.deterministic then None
  else begin
    (* BFS over single positions (plus the initial state), tracking the
       reversed word that reaches each state; a conflict found at the
       earliest BFS layer yields a shortest witness.  Single-position
       exploration suffices: the clash is defined on first/follow sets,
       which are per-position. *)
    let n = Array.length a.decls in
    let visited = Array.make n false in
    let queue = Queue.create () in
    let found = ref None in
    let try_state targets word_rev =
      match !found with
      | Some _ -> ()
      | None -> (
        match clash_in a.names targets with
        | Some (p, q) ->
          found :=
            Some
              {
                conflict_name = a.names.(p);
                first_decl = a.decls.(p);
                second_decl = a.decls.(q);
                witness = List.rev (a.names.(p) :: word_rev);
              }
        | None ->
          List.iter
            (fun p ->
              if not visited.(p) then begin
                visited.(p) <- true;
                Queue.add (p, a.names.(p) :: word_rev) queue
              end)
            targets)
    in
    try_state a.first [];
    while !found = None && not (Queue.is_empty queue) do
      let p, word_rev = Queue.pop queue in
      try_state a.follow.(p) word_rev
    done;
    !found
  end

let interleave_conflict m =
  if m.i_deterministic then None
  else begin
    let indexed = Array.to_list (Array.mapi (fun i n -> (i, n)) m.i_names) in
    let sorted = List.sort (fun (_, a) (_, b) -> Name.compare a b) indexed in
    let rec scan = function
      | (i, a) :: ((j, b) :: _ as rest) ->
        if Name.equal a b then Some (i, j) else scan rest
      | [ _ ] | [] -> None
    in
    match scan sorted with
    | None -> None
    | Some (i, j) ->
      Some
        {
          conflict_name = m.i_names.(i);
          first_decl = m.i_decls.(i);
          second_decl = m.i_decls.(j);
          witness = [ m.i_names.(i) ];
        }
  end

let upa_conflict = function
  | Glushkov a -> glushkov_conflict a
  | Interleave m -> interleave_conflict m

(* ------------------------------------------------------------------ *)
(* Determinization: compiled transition tables                         *)

(* For a deterministic automaton every first/follow set has pairwise
   distinct names, so each state's outgoing transitions collapse to a
   hash table keyed by name — one probe per child instead of a scan of
   the follow list. *)
type table =
  | T_glushkov of {
      t_decls : Ast.element_decl array;
      t_nullable : bool;
      t_last : bool array;
      t_initial : (Name.t, int) Hashtbl.t;
      t_next : (Name.t, int) Hashtbl.t array;  (* per position *)
    }
  | T_interleave of {
      t_slots : (Name.t, int) Hashtbl.t;  (* name -> slot index *)
      t_idecls : Ast.element_decl array;
      t_required : bool array;
      t_group_optional : bool;
    }

let table_of_targets names targets =
  let h = Hashtbl.create (max 4 (List.length targets)) in
  List.iter (fun p -> Hashtbl.replace h names.(p) p) targets;
  h

let compile t =
  if not (is_deterministic t) then None
  else
    match t with
    | Glushkov a ->
      Some
        (T_glushkov
           {
             t_decls = a.decls;
             t_nullable = a.nullable;
             t_last = a.last;
             t_initial = table_of_targets a.names a.first;
             t_next = Array.map (table_of_targets a.names) a.follow;
           })
    | Interleave m ->
      let slots = Hashtbl.create (max 4 (Array.length m.i_names)) in
      Array.iteri (fun i n -> Hashtbl.replace slots n i) m.i_names;
      Some
        (T_interleave
           {
             t_slots = slots;
             t_idecls = m.i_decls;
             t_required = m.i_required;
             t_group_optional = m.i_group_optional;
           })

(* ------------------------------------------------------------------ *)
(* Incremental runners: one child step at a time, for the streaming
   validator's frame stack.  A glushkov state is the current position;
   an interleave state is the used-slot set, updated in place (each
   frame owns its state exclusively). *)

type state = S_glushkov of int option | S_interleave of bool array * bool ref

let start_run = function
  | T_glushkov _ -> S_glushkov None
  | T_interleave t -> S_interleave (Array.make (Array.length t.t_idecls) false, ref false)

let step_run table state name =
  match table, state with
  | T_glushkov t, S_glushkov current -> (
    let next =
      match current with
      | None -> Hashtbl.find_opt t.t_initial name
      | Some p -> Hashtbl.find_opt t.t_next.(p) name
    in
    match next with
    | None -> None
    | Some p -> Some (S_glushkov (Some p), p))
  | T_interleave t, S_interleave (used, any) -> (
    match Hashtbl.find_opt t.t_slots name with
    | Some i when not used.(i) ->
      used.(i) <- true;
      any := true;
      Some (state, i)
    | Some _ | None -> None)
  | T_glushkov _, S_interleave _ | T_interleave _, S_glushkov _ ->
    invalid_arg "Content_automaton.step_run: state from a different table"

let run_accepting table state =
  match table, state with
  | T_glushkov t, S_glushkov current -> (
    match current with None -> t.t_nullable | Some p -> t.t_last.(p))
  | T_interleave t, S_interleave (used, any) ->
    let n = Array.length t.t_idecls in
    let complete =
      Array.for_all Fun.id (Array.init n (fun i -> used.(i) || not t.t_required.(i)))
    in
    complete || ((not !any) && t.t_group_optional)
  | T_glushkov _, S_interleave _ | T_interleave _, S_glushkov _ ->
    invalid_arg "Content_automaton.run_accepting: state from a different table"

(* The non-deterministic stepper: position-set simulation over the raw
   automaton, for content models that violate UPA.  The verdict is
   exact (language-equivalent to the backtracking matcher); the
   declaration attributed to each child is the leftmost matching
   position's — the backtracking matcher's first choice. *)
type nfa_state = N_initial | N_set of int list | N_interleave of bool array * bool ref

let nfa_start = function
  | Glushkov _ -> N_initial
  | Interleave m -> N_interleave (Array.make (Array.length m.i_decls) false, ref false)

let nfa_step t state name =
  match t, state with
  | Glushkov a, (N_initial | N_set _) -> (
    let nexts =
      match state with
      | N_initial -> step a None name
      | N_set ps -> dedup_sorted (List.concat_map (fun p -> step a (Some p) name) ps)
      | N_interleave _ -> assert false
    in
    match nexts with
    | [] -> None
    | leftmost :: _ -> Some (N_set nexts, leftmost))
  | Interleave m, N_interleave (used, any) -> (
    let slot = ref (-1) in
    Array.iteri
      (fun i nm -> if !slot < 0 && Name.equal nm name && not used.(i) then slot := i)
      m.i_names;
    match !slot with
    | -1 -> None
    | i ->
      used.(i) <- true;
      any := true;
      Some (state, i))
  | Glushkov _, N_interleave _ | Interleave _, (N_initial | N_set _) ->
    invalid_arg "Content_automaton.nfa_step: state from a different automaton"

let nfa_accepting t state =
  match t, state with
  | Glushkov a, N_initial -> a.nullable
  | Glushkov a, N_set ps -> List.exists (fun p -> a.last.(p)) ps
  | Interleave m, N_interleave (used, any) ->
    let n = Array.length m.i_decls in
    let complete =
      Array.for_all Fun.id (Array.init n (fun i -> used.(i) || not m.i_required.(i)))
    in
    complete || ((not !any) && m.i_group_optional)
  | Glushkov _, N_interleave _ | Interleave _, (N_initial | N_set _) ->
    invalid_arg "Content_automaton.nfa_accepting: state from a different automaton"

(* Whole-word runs, one incremental step per name: the declarations
   attributed, or [None] when the word is rejected. *)
let run_with ~step ~accepting decls state word =
  let rec go st acc = function
    | [] -> if accepting st then Some (List.rev acc) else None
    | name :: rest -> (
      match step st name with
      | Some (st', p) -> go st' (decls.(p) :: acc) rest
      | None -> None)
  in
  go state [] word

let nfa_run t word =
  run_with ~step:(nfa_step t) ~accepting:(nfa_accepting t) (decls t) (nfa_start t) word

let matches t word = nfa_run t word <> None

let run t word =
  if not (is_deterministic t) then
    invalid_arg "Content_automaton.run: automaton is not deterministic";
  nfa_run t word

let table_run table word =
  let decls = match table with T_glushkov t -> t.t_decls | T_interleave t -> t.t_idecls in
  run_with ~step:(step_run table) ~accepting:(run_accepting table) decls (start_run table) word

let table_matches table word = table_run table word <> None

(* ------------------------------------------------------------------ *)
(* Language equivalence                                                *)

(* a uniform DFA view: states are canonical keys, transitions computed
   on the fly *)
type dfa_view = {
  v_start : string;
  v_step : string -> Name.t -> string option;  (* None = dead *)
  v_accept : string -> bool;
  v_alphabet : Name.t list;
}

let glushkov_view a =
  (* state key: sorted position list rendered as a string; "I" = initial *)
  let key = function
    | `Initial -> "I"
    | `Set ps -> String.concat "," (List.map string_of_int ps)
  in
  let parse k =
    if k = "I" then `Initial
    else `Set (List.map int_of_string (String.split_on_char ',' k))
  in
  let step_key k name =
    let nexts =
      match parse k with
      | `Initial -> step a None name
      | `Set ps -> dedup_sorted (List.concat_map (fun p -> step a (Some p) name) ps)
    in
    match nexts with [] -> None | ps -> Some (key (`Set ps))
  in
  let accept k =
    match parse k with
    | `Initial -> a.nullable
    | `Set ps -> List.exists (fun p -> a.last.(p)) ps
  in
  {
    v_start = "I";
    v_step = step_key;
    v_accept = accept;
    v_alphabet = List.sort_uniq Name.compare (Array.to_list a.names);
  }

let interleave_view m =
  (* state key: sorted list of used slot indices *)
  let key used = String.concat "," (List.map string_of_int used) in
  let parse k = if k = "" then [] else List.map int_of_string (String.split_on_char ',' k) in
  let step_key k name =
    let used = parse k in
    let slot = ref (-1) in
    Array.iteri
      (fun i nm -> if !slot < 0 && Name.equal nm name && not (List.mem i used) then slot := i)
      m.i_names;
    if !slot < 0 then None else Some (key (List.sort compare (!slot :: used)))
  in
  let accept k =
    let used = parse k in
    let complete =
      Array.for_all Fun.id
        (Array.init (Array.length m.i_decls) (fun i ->
             List.mem i used || not m.i_required.(i)))
    in
    complete || (used = [] && m.i_group_optional)
  in
  {
    v_start = "";
    v_step = step_key;
    v_accept = accept;
    v_alphabet = List.sort_uniq Name.compare (Array.to_list m.i_names);
  }

let view = function Glushkov a -> glushkov_view a | Interleave m -> interleave_view m

let equivalent t1 t2 =
  let v1 = view t1 and v2 = view t2 in
  let alphabet = List.sort_uniq Name.compare (v1.v_alphabet @ v2.v_alphabet) in
  (* BFS over pairs; "dead" is represented by None and is non-accepting *)
  let visited = Hashtbl.create 64 in
  let queue = Queue.create () in
  Queue.add (Some v1.v_start, Some v2.v_start) queue;
  let ok = ref true in
  while !ok && not (Queue.is_empty queue) do
    let s1, s2 = Queue.pop queue in
    let id =
      (match s1 with None -> "#" | Some k -> k)
      ^ "|"
      ^ match s2 with None -> "#" | Some k -> k
    in
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      let a1 = match s1 with None -> false | Some k -> v1.v_accept k in
      let a2 = match s2 with None -> false | Some k -> v2.v_accept k in
      if a1 <> a2 then ok := false
      else
        List.iter
          (fun name ->
            let n1 = Option.bind s1 (fun k -> v1.v_step k name) in
            let n2 = Option.bind s2 (fun k -> v2.v_step k name) in
            if n1 <> None || n2 <> None then Queue.add (n1, n2) queue)
          alphabet
    end
  done;
  !ok
