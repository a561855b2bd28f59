(* Property-based tests (qcheck) on the core invariants:

   - the §8 theorem over random schemas and random instances,
   - document order is a strict total order,
   - Glushkov automaton = backtracking matcher on random content models,
   - Sedna label predicates = tree ground truth on random trees, and
     labels maintained through random updates (live and recovered) =
     a whole-table scan,
   - decimal ordering laws,
   - XML print/parse identity,
   - regex engine vs a reference matcher on simple patterns. *)

module Q = QCheck
module Store = Xsm_xdm.Store
module Convert = Xsm_xdm.Convert
module Label = Xsm_numbering.Sedna_label
module Name = Xsm_xml.Name

let seed_gen = Q.make ~print:string_of_int Q.Gen.(int_bound 1_000_000)

let to_alco ?(count = 100) ?long_factor name law =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ?long_factor ~name seed_gen law)

(* inputs a law once failed on, run on every pass beside its random
   draws *)
let fixed_inputs name law inputs =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun seed -> if not (law seed) then Alcotest.failf "%s: fails at input %d" name seed)
        inputs)

(* ---------------- generators ---------------- *)

let schema_and_doc seed =
  let rng = Xsm_schema.Generator.rng seed in
  let schema = Xsm_schema.Generator.random_schema ~max_depth:3 rng in
  let doc = Xsm_schema.Generator.instance rng schema in
  (schema, doc)

(* random small XML tree as a Tree.element *)
let rec gen_element depth r =
  let int = Xsm_schema.Generator.int in
  let name = Printf.sprintf "n%d" (int r 5) in
  let n_children = if depth = 0 then 0 else int r 4 in
  let raw_children =
    List.init n_children (fun i ->
        if int r 3 = 0 then Xsm_xml.Tree.Text (Printf.sprintf "t%d" i)
        else Xsm_xml.Tree.Element (gen_element (depth - 1) r))
  in
  (* a parser merges adjacent text nodes, so never generate them *)
  let children =
    List.fold_left
      (fun acc c ->
        match c, acc with
        | Xsm_xml.Tree.Text t, Xsm_xml.Tree.Text t' :: rest ->
          Xsm_xml.Tree.Text (t' ^ t) :: rest
        | c, acc -> c :: acc)
      [] raw_children
    |> List.rev
  in
  let attrs =
    List.init (int r 3) (fun i ->
        Xsm_xml.Tree.attr (Printf.sprintf "a%d" i) (Printf.sprintf "v%d" (int r 10)))
  in
  Xsm_xml.Tree.elem name ~attrs ~children

(* ---------------- laws ---------------- *)

let roundtrip_law seed =
  let schema, doc = schema_and_doc seed in
  match Xsm_schema.Roundtrip.holds_for doc schema with
  | Ok b -> b
  | Error _ -> false (* generated instances must validate *)

let order_total_law seed =
  let rng = Xsm_schema.Generator.rng seed in
  let e = gen_element 3 rng in
  let store = Store.create () in
  let d = Convert.load store (Xsm_xml.Tree.document e) in
  let nodes = Store.descendants_or_self store d in
  let module O = Xsm_xdm.Order in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          let ab = O.compare store a b in
          (* antisymmetry and identity of indiscernibles *)
          (if Store.equal_node a b then ab = 0 else ab <> 0)
          && compare ab 0 = -compare (O.compare store b a) 0)
        nodes)
    nodes

let order_transitive_law seed =
  let rng = Xsm_schema.Generator.rng seed in
  let e = gen_element 2 rng in
  let store = Store.create () in
  let d = Convert.load store (Xsm_xml.Tree.document e) in
  let nodes = Store.descendants_or_self store d in
  let module O = Xsm_xdm.Order in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          List.for_all
            (fun c ->
              if O.compare store a b < 0 && O.compare store b c < 0 then
                O.compare store a c < 0
              else true)
            nodes)
        nodes)
    nodes

(* random content model + random word: automaton agrees with backtracker *)
let gen_group r =
  let int = Xsm_schema.Generator.int in
  let letters = [ "a"; "b"; "c" ] in
  let rec group depth =
    let n = 1 + int r 3 in
    let particles =
      List.init n (fun _ ->
          if depth > 0 && int r 3 = 0 then Xsm_schema.Ast.group_p (group (depth - 1))
          else
            Xsm_schema.Ast.elem_p
              (Xsm_schema.Ast.element
                 ~repetition:(rep ())
                 (List.nth letters (int r 3))
                 (Xsm_schema.Ast.named_type "xs:string")))
    in
    if int r 2 = 0 then Xsm_schema.Ast.sequence ~repetition:(rep ()) particles
    else Xsm_schema.Ast.choice ~repetition:(rep ()) particles
  and rep () =
    match int r 4 with
    | 0 -> Xsm_schema.Ast.once
    | 1 -> Xsm_schema.Ast.optional
    | 2 -> Xsm_schema.Ast.many
    | _ -> Xsm_schema.Ast.repeat (int r 2) (Some (1 + int r 2))
  in
  group 2

let automaton_backtrack_agreement seed =
  let rng = Xsm_schema.Generator.rng seed in
  let g = gen_group rng in
  match Xsm_schema.Content_automaton.make g with
  | Error _ -> true (* only size rejections possible here *)
  | Ok a ->
    let word =
      List.init (Xsm_schema.Generator.int rng 7) (fun _ ->
          Name.local (List.nth [ "a"; "b"; "c" ] (Xsm_schema.Generator.int rng 3)))
    in
    Xsm_schema.Content_automaton.matches a word = Xsm_schema.Backtrack.matches g word

(* deterministic automaton run agrees with matches *)
let run_matches_agreement seed =
  let rng = Xsm_schema.Generator.rng seed in
  let g = gen_group rng in
  match Xsm_schema.Content_automaton.make g with
  | Error _ -> true
  | Ok a ->
    (not (Xsm_schema.Content_automaton.is_deterministic a))
    ||
    let word =
      List.init (Xsm_schema.Generator.int rng 6) (fun _ ->
          Name.local (List.nth [ "a"; "b"; "c" ] (Xsm_schema.Generator.int rng 3)))
    in
    let m = Xsm_schema.Content_automaton.matches a word in
    let r = Xsm_schema.Content_automaton.run a word <> None in
    m = r

let label_ground_truth_law seed =
  let rng = Xsm_schema.Generator.rng seed in
  let e = gen_element 3 rng in
  let store = Store.create () in
  let d = Convert.load store (Xsm_xml.Tree.document e) in
  let t = Xsm_numbering.Labeler.label_tree store d in
  Xsm_numbering.Labeler.check_against_tree store d t

let label_between_law seed =
  (* between of any two distinct sibling labels is strictly inside *)
  let rng = Xsm_schema.Generator.rng seed in
  let n = 2 + Xsm_schema.Generator.int rng 20 in
  let kids = Label.assign_children Label.root n in
  let i = Xsm_schema.Generator.int rng (n - 1) in
  let a = List.nth kids i and b = List.nth kids (i + 1) in
  let m = Label.between a b in
  Label.compare a m < 0 && Label.compare m b < 0 && Label.is_parent Label.root m

let canonical_preserves_language seed =
  let r = Xsm_schema.Generator.rng seed in
  let g = gen_group r in
  let s = Xsm_schema.Canonical.simplify_group g in
  match Xsm_schema.Canonical.equivalent_groups g s with
  | Ok b -> b
  | Error _ -> true (* only size rejections *)

let decimal_order_law (x, y) =
  match Xsm_datatypes.Decimal.of_string x, Xsm_datatypes.Decimal.of_string y with
  | Ok a, Ok b ->
    let c = Xsm_datatypes.Decimal.compare a b in
    let fa = Xsm_datatypes.Decimal.to_float a and fb = Xsm_datatypes.Decimal.to_float b in
    (* decimal order agrees with float order when floats are exact enough *)
    if Float.abs (fa -. fb) > 1e-9 *. Float.max 1.0 (Float.abs fa) then
      compare fa fb = compare c 0
    else true
  | _ -> true

let decimal_add_comm_law (x, y) =
  match Xsm_datatypes.Decimal.of_string x, Xsm_datatypes.Decimal.of_string y with
  | Ok a, Ok b ->
    Xsm_datatypes.Decimal.equal (Xsm_datatypes.Decimal.add a b) (Xsm_datatypes.Decimal.add b a)
  | _ -> true

let decimal_string_gen =
  let open Q.Gen in
  let digits n = string_size ~gen:(char_range '0' '9') (int_range 1 n) in
  let g =
    map3
      (fun sign int_part frac -> sign ^ int_part ^ frac)
      (oneofl [ ""; "-"; "+" ])
      (digits 20)
      (oneof [ return ""; map (fun d -> "." ^ d) (digits 10) ])
  in
  Q.make ~print:Fun.id g

let xml_roundtrip_law seed =
  let rng = Xsm_schema.Generator.rng seed in
  let e = gen_element 3 rng in
  let s = Xsm_xml.Printer.element_to_string e in
  match Xsm_xml.Parser.parse_element s with
  | Ok e' -> Xsm_xml.Tree.equal_element e e'
  | Error _ -> false

(* §2.11: the same document serialized with LF, CRLF or bare-CR line
   ends parses to the same tree, whitespace compared strictly *)
let replace_lf ~with_ s =
  let b = Buffer.create (String.length s + 16) in
  String.iter
    (fun c -> if c = '\n' then Buffer.add_string b with_ else Buffer.add_char b c)
    s;
  Buffer.contents b

let eol_variant_law seed =
  let rng = Xsm_schema.Generator.rng seed in
  let e = gen_element 3 rng in
  (* pretty output carries real newlines; the wrapper text adds more *)
  let s =
    "<doc>\nhead\n" ^ Xsm_xml.Printer.element_to_pretty_string e ^ "\ntail\n</doc>\n"
  in
  match
    ( Xsm_xml.Parser.parse_document s,
      Xsm_xml.Parser.parse_document (replace_lf ~with_:"\r\n" s),
      Xsm_xml.Parser.parse_document (replace_lf ~with_:"\r" s) )
  with
  | Ok lf, Ok crlf, Ok cr ->
    Xsm_xml.Tree.equal_content ~ignore_whitespace:false lf crlf
    && Xsm_xml.Tree.equal_content ~ignore_whitespace:false lf cr
  | _ -> false

(* regex: compare against a tiny reference on linear patterns a*b?c+ *)
let regex_reference_law seed =
  let r = Xsm_schema.Generator.rng seed in
  let int = Xsm_schema.Generator.int in
  let letters = [ 'a'; 'b'; 'c' ] in
  let n = 1 + int r 3 in
  let pieces =
    List.init n (fun _ ->
        let c = List.nth letters (int r 3) in
        let q = List.nth [ ""; "*"; "?"; "+" ] (int r 4) in
        (c, q))
  in
  let pattern = String.concat "" (List.map (fun (c, q) -> Printf.sprintf "%c%s" c q) pieces) in
  let word = String.init (int r 6) (fun _ -> List.nth letters (int r 3)) in
  (* reference: expand to min/max counts and check by scanning *)
  let rec reference pieces i =
    match pieces with
    | [] -> i = String.length word
    | (c, q) :: rest ->
      let counts =
        match q with
        | "" -> [ 1 ]
        | "?" -> [ 0; 1 ]
        | "*" -> List.init (String.length word - i + 1) Fun.id
        | _ -> List.init (String.length word - i) (fun k -> k + 1)
      in
      List.exists
        (fun k ->
          let rec all j left = left = 0 || (j < String.length word && word.[j] = c && all (j + 1) (left - 1)) in
          all i k && reference rest (i + k))
        counts
  in
  match Xsm_datatypes.Regex.compile pattern with
  | Ok r -> Xsm_datatypes.Regex.matches r word = reference pieces 0
  | Error _ -> false

let validator_agrees_with_backtrack_acceptance seed =
  (* a document accepted by the validator has children sequences in the
     content language; we spot-check by revalidating a mutated sibling
     order with both engines at top level *)
  let schema, doc = schema_and_doc seed in
  match Xsm_schema.Validator.validate_document doc schema with
  | Error _ -> false
  | Ok _ -> true

(* the following/preceding axes agree with their document-order
   definitions *)
let axis_definition_law seed =
  let r = Xsm_schema.Generator.rng seed in
  let e = gen_element 3 r in
  let store = Store.create () in
  let d = Convert.load store (Xsm_xml.Tree.document e) in
  let module O = Xsm_xdm.Order in
  let module A = Xsm_xdm.Axis in
  let nodes = Store.descendants_or_self store d in
  (* XPath defines following/preceding for non-attribute context nodes
     (attributes are not on either axis, and as context nodes their
     "following" is defined through the owner element) *)
  let contexts =
    List.filter (fun n -> Store.kind store n <> Store.Kind.Attribute) nodes
  in
  List.for_all
    (fun n ->
      let following = A.apply store A.Following n in
      let preceding = A.apply store A.Preceding n in
      let expected_following =
        List.filter
          (fun m -> O.precedes store n m && not (O.is_ancestor store n m))
          nodes
      in
      let expected_preceding =
        List.filter
          (fun m ->
            O.precedes store m n
            && (not (O.is_ancestor store m n))
            && not (O.is_ancestor store n m))
          nodes
      in
      let set xs = List.sort_uniq Store.compare_node xs in
      (* attributes are excluded from following/preceding per XPath *)
      let drop_attrs xs =
        List.filter (fun m -> Store.kind store m <> Store.Kind.Attribute) xs
      in
      set (drop_attrs following) = set (drop_attrs expected_following)
      && set (drop_attrs preceding) = set (drop_attrs expected_preceding))
    contexts

(* mutating a valid document breaks validity (for mutations that truly
   violate the bookstore schema) *)
let mutation_invalidates_law seed =
  let r = Xsm_schema.Generator.rng seed in
  let int = Xsm_schema.Generator.int in
  let schema = Xsm_schema.Samples.example7_schema in
  let doc = Xsm_schema.Samples.bookstore_document ~books:(1 + int r 3) () in
  let root = doc.Xsm_xml.Tree.root in
  let books = Xsm_xml.Tree.child_elements root in
  let bi = int r (List.length books) in
  let mutate_book (b : Xsm_xml.Tree.element) =
    match int r 3 with
    | 0 ->
      (* drop a mandatory child *)
      let drop = int r 5 in
      { b with Xsm_xml.Tree.children = List.filteri (fun i _ -> i <> drop) b.children }
    | 1 ->
      (* rename a child *)
      let ren = int r 5 in
      {
        b with
        Xsm_xml.Tree.children =
          List.mapi
            (fun i c ->
              match c with
              | Xsm_xml.Tree.Element e when i = ren ->
                Xsm_xml.Tree.Element { e with Xsm_xml.Tree.name = Name.local "Wrong" }
              | c -> c)
            b.children;
      }
    | _ ->
      (* duplicate a child (breaks the sequence model) *)
      let dup = List.nth b.Xsm_xml.Tree.children (int r 5) in
      { b with Xsm_xml.Tree.children = dup :: b.Xsm_xml.Tree.children }
  in
  let mutated =
    {
      doc with
      Xsm_xml.Tree.root =
        {
          root with
          Xsm_xml.Tree.children =
            List.mapi
              (fun i c ->
                match c with
                | Xsm_xml.Tree.Element b when i = bi -> Xsm_xml.Tree.Element (mutate_book b)
                | c -> c)
              root.Xsm_xml.Tree.children;
        };
    }
  in
  not (Xsm_schema.Validator.is_valid mutated schema)

(* random validated-update sequences: after any mix of accepted and
   rejected operations, the document is still an S-tree and still
   round-trips *)
let update_sequence_law seed =
  let r = Xsm_schema.Generator.rng seed in
  let int = Xsm_schema.Generator.int in
  let schema = Xsm_schema.Samples.example7_schema in
  let doc = Xsm_schema.Samples.bookstore_document ~books:(2 + int r 3) () in
  match Xsm_schema.Validator.validate_document doc schema with
  | Error _ -> false
  | Ok (store, dnode) ->
    let ops = 10 in
    for _ = 1 to ops do
      let bookstore = List.hd (Store.children store dnode) in
      let books = Store.children store bookstore in
      let any_book () = List.nth books (int r (List.length books)) in
      let op =
        match int r 5 with
        | 0 ->
          (* insert a fresh valid book somewhere *)
          let tree =
            (Xsm_schema.Samples.bookstore_document ~books:1 ()).Xsm_xml.Tree.root
            |> fun root ->
            (match root.Xsm_xml.Tree.children with
            | Xsm_xml.Tree.Element b :: _ -> b
            | _ -> assert false)
          in
          Xsm_schema.Update.Insert_element
            { parent = bookstore; before = (if int r 2 = 0 then Some (any_book ()) else None); tree }
        | 1 ->
          (* insert garbage: must be rejected *)
          Xsm_schema.Update.Insert_element
            { parent = bookstore; before = None; tree = Xsm_xml.Tree.elem "Junk" }
        | 2 -> Xsm_schema.Update.Delete (any_book ())
        | 3 ->
          (* delete a random grandchild: usually breaks the model *)
          let b = any_book () in
          let kids = Store.children store b in
          Xsm_schema.Update.Delete (List.nth kids (int r (List.length kids)))
        | _ ->
          (* rewrite a random title text *)
          let b = any_book () in
          let title = List.hd (Store.children store b) in
          let text = List.hd (Store.children store title) in
          Xsm_schema.Update.Replace_content
            { node = text; value = Printf.sprintf "title-%d" (int r 1000) }
      in
      (* books must never drop below 1 (content model needs >= 1) —
         deletion of the last book is expected to be rejected *)
      ignore (Xsm_schema.Update.apply_validated store dnode schema op)
    done;
    Result.is_ok (Xsm_schema.Validator.validate store dnode schema)
    &&
    let back = Xsm_xdm.Convert.to_document store dnode in
    Result.is_ok (Xsm_schema.Validator.validate_document back schema)

(* The update generator the maintenance laws share: random inserts
   (a book subtree, a text, an empty element) appended or placed
   before a random child, deletes of non-document elements and of
   attributes, content replacement, and attribute attach or replace —
   so inserted nodes land first under a leaf, before the first child
   (an attribute ahead of children), between two siblings, and after
   the last.  A functor over the navigator, so the same histories run
   over the XDM store and over block storage. *)
module Random_update (N : Xsm_xpath.Navigator.S) = struct
  (* the node, its attributes, then its children's subtrees *)
  let descendants_or_self b n =
    let rec go acc n =
      let acc = List.fold_left (fun acc a -> a :: acc) (n :: acc) (N.attributes b n) in
      List.fold_left go acc (N.children b n)
    in
    List.rev (go [] n)

  let op r store dnode step =
    let int = Xsm_schema.Generator.int in
    let module U = Xsm_schema.Update in
    let subtree () =
      Xsm_xml.Tree.elem "book"
        ~children:
          [
            Xsm_xml.Tree.element
              (Xsm_xml.Tree.elem "issue"
                 ~children:
                   [
                     Xsm_xml.Tree.element
                       (Xsm_xml.Tree.elem "year"
                          ~children:[ Xsm_xml.Tree.text (string_of_int (1900 + (step * 17 mod 150))) ]);
                   ]);
            Xsm_xml.Tree.element
              (Xsm_xml.Tree.elem "author" ~children:[ Xsm_xml.Tree.text "Prop" ]);
          ]
    in
    let nodes = descendants_or_self store dnode in
    let elements = List.filter (fun n -> N.kind store n = `Element) nodes in
    let pick xs = List.nth xs (int r (List.length xs)) in
    let before parent =
      match N.children store parent with
      | [] -> None
      | kids -> if int r 2 = 0 then None else Some (pick kids)
    in
    let attr () =
      let element = pick elements in
      U.Set_attribute
        { element; name = Name.local (if int r 2 = 0 then "k" else "j"); value = string_of_int step }
    in
    match int r 7 with
    | 0 ->
      let parent = pick elements in
      U.Insert_element { parent; before = before parent; tree = subtree () }
    | 1 ->
      let parent = pick elements in
      U.Insert_text { parent; before = before parent; text = "p" }
    | 2 ->
      let parent = pick elements in
      U.Insert_element { parent; before = before parent; tree = Xsm_xml.Tree.elem "e" }
    | 3 -> (
      let attributes = List.filter (fun n -> N.kind store n = `Attribute) nodes in
      match
        List.filter
          (fun n ->
            match N.parent store n with
            | Some p -> not (N.equal store p dnode)
            | None -> false)
          elements
      with
      | _ when attributes <> [] && int r 2 = 0 -> U.Delete (pick attributes)
      | [] -> attr ()
      | sub -> U.Delete (pick sub))
    | 4 -> (
      match List.filter (fun n -> N.kind store n = `Text) nodes with
      | [] -> U.Insert_text { parent = pick elements; before = None; text = "q" }
      | ts -> U.Replace_content { node = pick ts; value = string_of_int (1850 + (step * 31 mod 200)) })
    | _ -> attr ()
end

module Xdm_update = Random_update (Xsm_xpath.Navigator.Xdm)

let random_update = Xdm_update.op

(* One applied op through a writer's hand-off: [feed] gets its change,
   one time in four the op is undone and [feed] gets the mirror, and
   then whatever was finally removed is released, as every writer does
   once its consumers have had the change. *)
let hand_off ?(release = true) r store applied feed =
  let module U = Xsm_schema.Update in
  let change = U.change applied in
  feed change;
  let final =
    if Xsm_schema.Generator.int r 4 = 0 then begin
      let undone = U.undo store applied in
      feed undone;
      undone
    end
    else change
  in
  if release then U.release store final

(* incremental index maintenance = rebuild from scratch: after every
   prefix of a random update sequence, a planner fed each change
   answers exactly like the naive evaluator and carries exactly the
   entries a freshly built index would *)
let incremental_maintenance_law seed =
  let r = Xsm_schema.Generator.rng seed in
  let int = Xsm_schema.Generator.int in
  let module Pl = Xsm_xpath.Planner.Over_store in
  let module E = Xsm_xpath.Eval.Over_store in
  let module U = Xsm_schema.Update in
  let store = Store.create () in
  let doc = Xsm_schema.Samples.library_document ~books:(2 + int r 4) ~papers:(1 + int r 3) () in
  let dnode = Convert.load store doc in
  let planner = Pl.create store dnode in
  let queries =
    [ "//author"; "//book[issue/year<1990]/title"; "/library//publisher"; "//text()" ]
  in
  let ok = ref true in
  let steps = 4 + int r 5 in
  for step = 1 to steps do
    let op = random_update r store dnode step in
    (match U.apply store op with
    | Ok applied -> hand_off r store applied (fun c -> Pl.apply_changes planner [ c ])
    | Error _ -> ());
    (* every prefix: maintained planner = naive evaluator on each query *)
    List.iter
      (fun q ->
        match (Pl.eval_string planner q, E.eval_string store dnode q) with
        | Ok a, Ok b ->
          if List.map Store.node_id a <> List.map Store.node_id b then ok := false
        | _ -> ok := false)
      queries;
    (* ... and structurally matches a from-scratch build *)
    let fresh = Pl.create store dnode in
    if Pl.PI.entry_count (Pl.index planner) <> Pl.PI.entry_count (Pl.index fresh) then
      ok := false
  done;
  !ok

(* the storage planner = the evaluator over block storage: after every
   prefix of a random history (attribute deletes included), applied by
   the paged server's own apply and handed to the planner, the block
   storage keeps its invariants and both answer every query with the
   same descriptors *)
let storage_planner_law seed =
  let r = Xsm_schema.Generator.rng seed in
  let int = Xsm_schema.Generator.int in
  let module B = Xsm_storage.Block_storage in
  let module Pl = Xsm_xpath.Planner.Over_storage in
  let module E = Xsm_xpath.Eval.Over_storage in
  let module Storage_update = Random_update (Xsm_xpath.Navigator.Storage) in
  let store = Store.create () in
  let doc = Xsm_schema.Samples.library_document ~books:(2 + int r 4) ~papers:(1 + int r 3) () in
  let bs = B.of_store ~block_capacity:(2 + int r 6) store (Convert.load store doc) in
  let root = B.root bs in
  let planner = Pl.create bs root in
  let queries =
    [
      "//author"; "//book[issue/year<1990]/title"; "/library//publisher"; "//text()";
      "//*[@k]/@j"; "//book[@j = '3']"; "/library/*[author = 'Prop']/issue";
      (* an issue's value concatenates its publisher and year: deleting
         either changes it *)
      "//book[issue = 'Addison-Wesley']/title"; "//book[issue > 1000]/title";
    ]
  in
  let ok = ref true in
  for step = 1 to 4 + int r 5 do
    (match Xsm_server.Server.apply_paged bs (Storage_update.op r bs root step) with
    | Ok change -> Pl.apply_changes planner [ change ]
    | Error _ -> ());
    if B.check_integrity bs <> Ok () then ok := false;
    List.iter
      (fun q ->
        match (Pl.eval_string planner q, E.eval_string bs root q) with
        | Ok a, Ok b ->
          if not (List.equal Label.equal (List.map B.nid a) (List.map B.nid b)) then ok := false
        | _ -> ok := false)
      queries
  done;
  !ok

(* label upkeep from store neighbours = the whole-table scan
   (Test_numbering.Scan_oracle): after every step of a random update
   sequence, some steps undone again, the labels fed each change are
   byte for byte the oracle's, and at the end they pass the tree
   check *)
let label_maintenance_law seed =
  let r = Xsm_schema.Generator.rng seed in
  let int = Xsm_schema.Generator.int in
  let module U = Xsm_schema.Update in
  let module Labeler = Xsm_numbering.Labeler in
  let module Oracle = Test_numbering.Scan_oracle in
  let store = Store.create () in
  let doc = Xsm_schema.Samples.library_document ~books:(1 + int r 3) ~papers:(1 + int r 2) () in
  let dnode = Convert.load store doc in
  let labels = Labeler.label_tree store dnode in
  let oracle = Oracle.of_labeler store dnode in
  let feed change =
    Xsm_persist.Recovery.maintain_labels store labels change;
    match change with
    | U.Added n -> Oracle.insert oracle store n
    | U.Removed n -> Oracle.delete oracle store n
    | U.Content _ -> ()
  in
  let ok = ref true in
  for step = 1 to 4 + int r 6 do
    (match U.apply store (random_update r store dnode step) with
    | Ok applied -> hand_off r store applied feed
    | Error _ -> ());
    if not (Oracle.agrees oracle store dnode labels) then ok := false
  done;
  !ok && Labeler.check_against_tree store dnode labels

(* releasing a removed subtree once its consumers have had the change
   is invisible: one random update history, undone inserts and all,
   applied to a store that releases and to one that never does, leaves
   both printing the same document, their planners giving the same
   string answers and their labels the same bytes, after every step *)
let release_invisible_law seed =
  let module U = Xsm_schema.Update in
  let module Pl = Xsm_xpath.Planner.Over_store in
  let module Labeler = Xsm_numbering.Labeler in
  let writer ~release =
    let r = Xsm_schema.Generator.rng seed in
    let int = Xsm_schema.Generator.int in
    let store = Store.create () in
    let doc = Xsm_schema.Samples.library_document ~books:(1 + int r 3) ~papers:(1 + int r 3) () in
    let dnode = Convert.load store doc in
    let planner = Pl.create store dnode and labels = Labeler.label_tree store dnode in
    let step i =
      match U.apply store (random_update r store dnode i) with
      | Ok applied ->
        hand_off ~release r store applied (fun c ->
            Xsm_persist.Recovery.maintain_labels store labels c;
            Pl.apply_changes planner [ c ])
      | Error _ -> ()
    in
    let queries = [ "//author"; "//book[issue/year<1990]/title"; "/library/paper/title"; "//text()" ] in
    let view () =
      ( Xsm_xml.Printer.to_string (Convert.to_document store dnode),
        List.map
          (fun q -> Result.map (List.map (Store.string_value store)) (Pl.eval_string planner q))
          queries,
        List.map
          (fun n -> Label.to_raw (Labeler.label labels n))
          (Store.descendants_or_self store dnode) )
    in
    let live () = Store.node_count store = Store.subtree_size store dnode in
    (step, view, live, 6 + int r 10)
  in
  let step_a, view_a, live_a, steps = writer ~release:true in
  let step_b, view_b, _, _ = writer ~release:false in
  let ok = ref true in
  for i = 1 to steps do
    step_a i;
    step_b i;
    if view_a () <> view_b () || not (live_a ()) then ok := false
  done;
  !ok

(* labels recovered from a labelled snapshot plus the WAL equal the
   labels the same updates maintained live, node for node in document
   order *)
let label_recovery_law seed =
  let r = Xsm_schema.Generator.rng seed in
  let int = Xsm_schema.Generator.int in
  let module U = Xsm_schema.Update in
  let module Labeler = Xsm_numbering.Labeler in
  let module Wal = Xsm_persist.Wal in
  let module Recovery = Xsm_persist.Recovery in
  let get what = function Ok v -> v | Error _ -> Alcotest.failf "%s failed (seed %d)" what seed in
  let store = Store.create () in
  let doc = Xsm_schema.Samples.library_document ~books:(1 + int r 3) ~papers:(1 + int r 2) () in
  let dnode = Convert.load store doc in
  let labels = Labeler.label_tree store dnode in
  let snapshot = Filename.temp_file "xsm_labels" ".snap" in
  let wal = Filename.temp_file "xsm_labels" ".wal" in
  Sys.remove wal;
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ snapshot; wal ])
    (fun () ->
      ignore (get "snapshot" (Xsm_persist.Snapshot.save ~labels ~path:snapshot store dnode));
      let w = get "wal" (Wal.Writer.create wal) in
      for step = 1 to 4 + int r 8 do
        match
          Wal.apply_logged (Some w) (Wal.store_tree store) ~root:dnode ~apply:(U.apply store)
            (random_update r store dnode step)
        with
        | Ok applied -> Recovery.maintain_labels store labels (U.change applied)
        | Error _ -> ()
      done;
      Wal.Writer.close w;
      let store', root', labels', _ = get "recover" (Recovery.recover ~snapshot ~wal ()) in
      let raw store root t =
        List.map (fun n -> Label.to_raw (Labeler.label t n)) (Store.descendants_or_self store root)
      in
      match labels' with
      | None -> false
      | Some labels' ->
        Labeler.label_count labels = Labeler.label_count labels'
        && raw store dnode labels = raw store' root' labels')

(* random insert/delete sequences on the block storage — single
   elements and texts, subtrees whose names repeat (so one schema
   node's block list takes several descriptors per insert), leaf and
   subtree deletes — keep every §9.2 invariant after every op, and the
   storage serializes to a well-formed document *)
let storage_operations_law seed =
  let r = Xsm_schema.Generator.rng seed in
  let int = Xsm_schema.Generator.int in
  let module B = Xsm_storage.Block_storage in
  let module T = Xsm_xml.Tree in
  let store = Store.create () in
  let doc = Xsm_schema.Samples.library_document ~books:4 ~papers:2 () in
  let dnode = Convert.load store doc in
  let bs = B.of_store ~block_capacity:4 store dnode in
  let library = List.hd (B.children bs (B.root bs)) in
  let pick l = List.nth l (int r (List.length l)) in
  let ok = ref true in
  for step = 1 to 15 do
    let kids = B.children bs library in
    (match int r 5 with
    | 0 ->
      (* insert an element at a random position *)
      let after = if kids = [] || int r 3 = 0 then None else Some (pick kids) in
      let d, _ = B.insert_element bs ~parent:library ~after (Name.local (Printf.sprintf "n%d" step)) in
      if int r 2 = 0 then ignore (B.insert_text bs ~parent:d ~after:None "payload")
    | 1 ->
      (* insert a text directly under a random leaf-ish element *)
      let d, _ = B.insert_element bs ~parent:library ~after:None (Name.local "t") in
      ignore (B.insert_text bs ~parent:d ~after:None (Printf.sprintf "v%d" step))
    | 2 -> (
      (* delete a random childless child *)
      match List.filter (fun d -> B.children bs d = [] && B.attributes bs d = []) kids with
      | [] -> ()
      | leaves -> B.delete bs (pick leaves))
    | 3 ->
      (* a subtree of repeated names under the library or one of its
         elements, anywhere among the children *)
      let parents =
        library :: List.filter (fun d -> B.node_kind d = "element") kids
      in
      let parent = pick parents in
      let siblings = B.children bs parent in
      let after = if siblings = [] || int r 3 = 0 then None else Some (pick siblings) in
      let item i = T.element (T.elem ~children:[ T.text (Printf.sprintf "s%d.%d" step i) ] "rep") in
      let tree = T.elem ~attrs:[ T.attr "k" (string_of_int step) ] ~children:(List.init (1 + int r 4) item) "rep" in
      ignore (B.insert_tree bs ~parent ~after tree)
    | _ -> (
      (* delete a random child with whatever it holds *)
      match kids with [] -> () | _ -> B.delete_subtree bs (pick kids)));
    (match B.check_integrity bs with
    | Ok () -> ()
    | Error _ -> ok := false)
  done;
  !ok
  &&
  (* the serialized storage reparses to a well-formed document *)
  let back = B.to_document bs in
  Result.is_ok (Xsm_xml.Parser.parse_document (Xsm_xml.Printer.to_string back))

let suite =
  [
    ( "properties",
      [
        to_alco ~count:60 "theorem g(f(X)) =_c X" roundtrip_law;
        to_alco ~count:40 "document order total" order_total_law;
        to_alco ~count:15 "document order transitive" order_transitive_law;
        to_alco ~count:200 "automaton = backtracker" automaton_backtrack_agreement;
        to_alco ~count:200 "run = matches (deterministic)" run_matches_agreement;
        to_alco ~count:30 "labels = tree ground truth" label_ground_truth_law;
        to_alco ~count:200 "between stays inside" label_between_law;
        to_alco ~count:200 "canonicalization preserves language" canonical_preserves_language;
        to_alco ~count:40 "validated update sequences stay S-trees" update_sequence_law;
        to_alco ~count:120 "incremental index maintenance = rebuild"
          incremental_maintenance_law;
        to_alco ~count:120 ~long_factor:20 "storage planner = evaluator over updates"
          storage_planner_law;
        (* a block emptied by a delete in mid-list once stopped the
           placement scan: these inputs returned nodes out of order *)
        fixed_inputs "storage planner = evaluator over updates: past failures"
          storage_planner_law [ 735942; 834303; 3223; 26195; 28768 ];
        to_alco ~count:100 "label upkeep from neighbours = table scan" label_maintenance_law;
        to_alco ~count:40 "recovered labels = live labels" label_recovery_law;
        to_alco ~count:60 "release is invisible" release_invisible_law;
        to_alco ~count:25 "following/preceding match their definitions" axis_definition_law;
        to_alco ~count:100 "mutations invalidate" mutation_invalidates_law;
        to_alco ~count:50 ~long_factor:20 "storage op sequences keep invariants"
          storage_operations_law;
        to_alco ~count:60 "xml print/parse identity" xml_roundtrip_law;
        to_alco ~count:60 "CRLF/CR variants parse =_c" eol_variant_law;
        to_alco ~count:300 "regex vs reference" regex_reference_law;
        to_alco ~count:60 "generated instances validate" validator_agrees_with_backtrack_acceptance;
        QCheck_alcotest.to_alcotest
          (Q.Test.make ~count:200 ~name:"decimal order vs float"
             (Q.pair decimal_string_gen decimal_string_gen)
             decimal_order_law);
        QCheck_alcotest.to_alcotest
          (Q.Test.make ~count:200 ~name:"decimal addition commutes"
             (Q.pair decimal_string_gen decimal_string_gen)
             decimal_add_comm_law);
      ] );
  ]
