(** Writer: abstract syntax back to the concrete [<xsd:schema>]
    notation.  Reading the printed text back
    ([Reader.schema_of_document]) reproduces the schema up to
    representation of simple types (a tested invariant for the subset
    both directions support). *)

val to_string : Xsm_schema.Ast.schema -> string
(** Pretty-printed XSD text. *)
