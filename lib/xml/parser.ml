type error = Sax.error = { line : int; column : int; offset : int; message : string }

exception Syntax = Sax.Syntax

let pp_error ppf e =
  Format.fprintf ppf "line %d, column %d: %s" e.line e.column e.message

let error_to_string e = Format.asprintf "%a" pp_error e

let fail (p : Sax.position) message =
  raise (Syntax { line = p.line; column = p.column; offset = p.offset; message })

(* The element whose [Start_element] was just returned: its attributes,
   then its content up to the matching [End_element].  Sax delivers a
   run of character data as one [Text] event, so no two text children
   are adjacent. *)
let rec element sax name : Tree.element =
  let rec attrs acc =
    match Sax.next sax with
    | Some (Sax.Attr (name, value)) -> attrs ({ Tree.name; value } :: acc)
    | ev -> { Tree.name; attributes = List.rev acc; children = content [] ev }
  and content acc = function
    | Some (Sax.End_element _) -> List.rev acc
    | Some (Sax.Text s) -> content (Tree.Text s :: acc) (Sax.next sax)
    | Some (Sax.Cdata s) -> content (Tree.Cdata s :: acc) (Sax.next sax)
    | Some (Sax.Comment s) -> content (Tree.Comment s :: acc) (Sax.next sax)
    | Some (Sax.Pi (target, data)) -> content (Tree.Pi { target; data } :: acc) (Sax.next sax)
    | Some (Sax.Start_element n) ->
      let child = element sax n in
      content (Tree.Element child :: acc) (Sax.next sax)
    | Some (Sax.Attr _) | None -> assert false (* Sax closes every element it opens *)
  in
  attrs []

let open_root sax =
  match Sax.next sax with
  | Some (Sax.Start_element name) -> name
  | _ -> assert false (* Sax opens the root or raises *)

let finish sax = match Sax.next sax with None -> () | Some _ -> assert false

let run f input =
  match f (Sax.of_string input) with v -> Ok v | exception Syntax e -> Error e

let parse_document ?base_uri input =
  run
    (fun sax ->
      let root = element sax (open_root sax) in
      finish sax;
      let { Sax.version; encoding; standalone } = Sax.declaration sax in
      { Tree.version; encoding; standalone; base_uri; root })
    input

(* A fragment is one element with only whitespace around it: markup
   that Sax skips outside the root is an error here. *)
let parse_element input =
  run
    (fun sax ->
      let name = open_root sax in
      Option.iter (fun p -> fail p "markup before the element") (Sax.skipped_markup sax);
      let e = element sax name in
      finish sax;
      Option.iter (fun p -> fail p "trailing content after element") (Sax.skipped_markup sax);
      e)
    input
