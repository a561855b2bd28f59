type segment = Compiled.segment =
  | In_type of Ast.Name.t
  | In_element of Ast.Name.t
  | In_attribute of Ast.Name.t
  | In_group

type location = segment list

let pp_segment ppf = function
  | In_type n -> Ast.Name.pp ppf n
  | In_element n -> Ast.Name.pp ppf n
  | In_attribute n -> Format.fprintf ppf "@@%a" Ast.Name.pp n
  | In_group -> Format.pp_print_string ppf "(group)"

let pp_location ppf = function
  | [] -> Format.pp_print_string ppf "(schema)"
  | segs ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_char ppf '/')
      pp_segment ppf segs

let location_to_string loc = Format.asprintf "%a" pp_location loc

type error = Compiled.error = { loc : location; message : string }

let pp_error ppf e = Format.fprintf ppf "%a: %s" pp_location e.loc e.message

let check s = match Compiled.errors (Compiled.make s) with [] -> Ok () | es -> Error es
