(* the reference a character is escaped to, or "" when it stands as
   itself *)
let escape_of ~attribute = function
  | '&' -> "&amp;"
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '"' when attribute -> "&quot;"
  | '\n' when attribute -> "&#10;"
  | '\t' when attribute -> "&#9;"
  (* a literal CR (it survived parsing via "&#13;") must leave as a
     reference too, or §2.11 normalization would eat it on reparse *)
  | '\r' -> "&#13;"
  | _ -> ""

(* runs of characters that need no escaping are copied in one blit *)
let add_escaped buf ~attribute s =
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let esc = escape_of ~attribute (String.unsafe_get s i) in
    if String.length esc > 0 then begin
      Buffer.add_substring buf s !start (i - !start);
      Buffer.add_string buf esc;
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (String.length s - !start)

let escape_text s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf ~attribute:false s;
  Buffer.contents buf

let escape_attribute s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf ~attribute:true s;
  Buffer.contents buf

let add_attribute buf name value =
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Name.to_string name);
  Buffer.add_string buf "=\"";
  add_escaped buf ~attribute:true value;
  Buffer.add_char buf '"'

let add_attributes buf attrs =
  List.iter (fun (a : Tree.attribute) -> add_attribute buf a.name a.value) attrs

let rec add_element buf (e : Tree.element) =
  Buffer.add_char buf '<';
  Buffer.add_string buf (Name.to_string e.name);
  add_attributes buf e.attributes;
  match e.children with
  | [] -> Buffer.add_string buf "/>"
  | children ->
    Buffer.add_char buf '>';
    List.iter (add_node buf) children;
    Buffer.add_string buf "</";
    Buffer.add_string buf (Name.to_string e.name);
    Buffer.add_char buf '>'

and add_node buf = function
  | Tree.Element e -> add_element buf e
  | Tree.Text s -> add_escaped buf ~attribute:false s
  | Tree.Cdata s ->
    Buffer.add_string buf "<![CDATA[";
    Buffer.add_string buf s;
    Buffer.add_string buf "]]>"
  | Tree.Comment s ->
    Buffer.add_string buf "<!--";
    Buffer.add_string buf s;
    Buffer.add_string buf "-->"
  | Tree.Pi { target; data } ->
    Buffer.add_string buf "<?";
    Buffer.add_string buf target;
    if data <> "" then begin
      Buffer.add_char buf ' ';
      Buffer.add_string buf data
    end;
    Buffer.add_string buf "?>"

let element_to_string e =
  let buf = Buffer.create 256 in
  add_element buf e;
  Buffer.contents buf

let add_decl buf (d : Tree.t) =
  Buffer.add_string buf "<?xml version=\"";
  Buffer.add_string buf d.version;
  Buffer.add_char buf '"';
  Option.iter
    (fun e ->
      Buffer.add_string buf " encoding=\"";
      Buffer.add_string buf e;
      Buffer.add_char buf '"')
    d.encoding;
  Option.iter
    (fun s ->
      Buffer.add_string buf (if s then " standalone=\"yes\"" else " standalone=\"no\""))
    d.standalone;
  Buffer.add_string buf "?>\n"

let to_string d =
  let buf = Buffer.create 256 in
  add_decl buf d;
  add_element buf d.Tree.root;
  Buffer.contents buf

(* Pretty printing: an element is "simple" when its children are only
   text (printed inline) and "complex" when element-only (printed with
   one child per line).  True mixed content is printed inline to keep
   the text intact. *)
let has_text_child (e : Tree.element) =
  List.exists (function Tree.Text _ | Tree.Cdata _ -> true | _ -> false) e.children

let rec add_pretty buf ~indent ~level (e : Tree.element) =
  let pad = String.make (indent * level) ' ' in
  Buffer.add_string buf pad;
  if e.children = [] || has_text_child e then begin
    add_element buf e;
    Buffer.add_char buf '\n'
  end
  else begin
    Buffer.add_char buf '<';
    Buffer.add_string buf (Name.to_string e.name);
    add_attributes buf e.attributes;
    Buffer.add_string buf ">\n";
    List.iter
      (function
        | Tree.Element c -> add_pretty buf ~indent ~level:(level + 1) c
        | other ->
          Buffer.add_string buf (String.make (indent * (level + 1)) ' ');
          add_node buf other;
          Buffer.add_char buf '\n')
      e.children;
    Buffer.add_string buf pad;
    Buffer.add_string buf "</";
    Buffer.add_string buf (Name.to_string e.name);
    Buffer.add_string buf ">\n"
  end

let element_to_pretty_string ?(indent = 2) e =
  let buf = Buffer.create 256 in
  add_pretty buf ~indent ~level:0 e;
  Buffer.contents buf

let to_pretty_string ?indent d =
  let buf = Buffer.create 256 in
  add_decl buf d;
  Buffer.add_string buf (element_to_pretty_string ?indent d.Tree.root);
  Buffer.contents buf
