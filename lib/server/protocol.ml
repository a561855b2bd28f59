module Json = Xsm_obs.Json

(* v2 added trace-context propagation, [Introspect] and the
   OpenMetrics stats flag; the handshake rejects mismatched peers, so
   client and server upgrade together *)
let version = 2

type trace_ctx = { trace_id : string; parent_span : int }

type introspect_what = Flight | Trace_events of string

type request =
  | Hello of { client : string }
  | Query of { id : int; path : string; trace : trace_ctx option }
  | Update of { id : int; command : string; trace : trace_ctx option }
  | Validate of { id : int; doc : string; trace : trace_ctx option }
  | Stats of { id : int; openmetrics : bool }
  | Introspect of { id : int; what : introspect_what }
  | Shutdown of { id : int }
  | Bye

type response =
  | Welcome of { session : int; version : int }
  | Nodes of { id : int; epoch : int; values : string list }
  | Applied of { id : int; epoch : int }
  | Validity of { id : int; valid : bool; errors : string list }
  | Stats_reply of { id : int; body : Xsm_obs.Json.t }
  | Introspect_reply of { id : int; body : Xsm_obs.Json.t }
  | Stopping of { id : int }
  | Failed of { id : int; message : string }

(* ------------------------------------------------------------------ *)
(* Decoding helpers: missing/mistyped fields are protocol errors with
   the field name in the message, never exceptions. *)

let str_field name j =
  match Json.member name j with
  | Some (Json.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "protocol: field %S must be a string" name)
  | None -> Error (Printf.sprintf "protocol: missing field %S" name)

let int_field name j =
  match Json.member name j with
  | Some (Json.Num f) when Float.is_integer f -> Ok (int_of_float f)
  | Some _ -> Error (Printf.sprintf "protocol: field %S must be an integer" name)
  | None -> Error (Printf.sprintf "protocol: missing field %S" name)

let bool_field name j =
  match Json.member name j with
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "protocol: field %S must be a boolean" name)
  | None -> Error (Printf.sprintf "protocol: missing field %S" name)

let str_list_field name j =
  match Json.member name j with
  | Some (Json.Arr items) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Json.Str s :: rest -> go (s :: acc) rest
      | _ -> Error (Printf.sprintf "protocol: field %S must hold strings" name)
    in
    go [] items
  | Some _ -> Error (Printf.sprintf "protocol: field %S must be an array" name)
  | None -> Error (Printf.sprintf "protocol: missing field %S" name)

let ( let* ) = Result.bind

(* The traceparent-style context rides as an optional sub-object so
   untraced requests pay no extra bytes. *)
let trace_fields = function
  | None -> []
  | Some { trace_id; parent_span } ->
    [
      ( "trace",
        Json.Obj [ ("id", Json.Str trace_id); ("parent", Json.int parent_span) ] );
    ]

let trace_of_json j =
  match Json.member "trace" j with
  | None | Some Json.Null -> Ok None
  | Some t ->
    let* trace_id = str_field "id" t in
    let* parent_span = int_field "parent" t in
    Ok (Some { trace_id; parent_span })

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let request_to_json = function
  | Hello { client } -> Json.Obj [ ("op", Json.Str "hello"); ("client", Json.Str client) ]
  | Query { id; path; trace } ->
    Json.Obj
      ([ ("op", Json.Str "query"); ("id", Json.int id); ("path", Json.Str path) ]
      @ trace_fields trace)
  | Update { id; command; trace } ->
    Json.Obj
      ([ ("op", Json.Str "update"); ("id", Json.int id); ("command", Json.Str command) ]
      @ trace_fields trace)
  | Validate { id; doc; trace } ->
    Json.Obj
      ([ ("op", Json.Str "validate"); ("id", Json.int id); ("doc", Json.Str doc) ]
      @ trace_fields trace)
  | Stats { id; openmetrics } ->
    Json.Obj
      ([ ("op", Json.Str "stats"); ("id", Json.int id) ]
      @ if openmetrics then [ ("openmetrics", Json.Bool true) ] else [])
  | Introspect { id; what } ->
    Json.Obj
      ([ ("op", Json.Str "introspect"); ("id", Json.int id) ]
      @
      match what with
      | Flight -> [ ("what", Json.Str "flight") ]
      | Trace_events trace_id ->
        [ ("what", Json.Str "trace"); ("trace_id", Json.Str trace_id) ])
  | Shutdown { id } -> Json.Obj [ ("op", Json.Str "shutdown"); ("id", Json.int id) ]
  | Bye -> Json.Obj [ ("op", Json.Str "bye") ]

let request_of_json j =
  let* op = str_field "op" j in
  match op with
  | "hello" ->
    let* client = str_field "client" j in
    Ok (Hello { client })
  | "query" ->
    let* id = int_field "id" j in
    let* path = str_field "path" j in
    let* trace = trace_of_json j in
    Ok (Query { id; path; trace })
  | "update" ->
    let* id = int_field "id" j in
    let* command = str_field "command" j in
    let* trace = trace_of_json j in
    Ok (Update { id; command; trace })
  | "validate" ->
    let* id = int_field "id" j in
    let* doc = str_field "doc" j in
    let* trace = trace_of_json j in
    Ok (Validate { id; doc; trace })
  | "stats" ->
    let* id = int_field "id" j in
    let* openmetrics =
      match Json.member "openmetrics" j with
      | None -> Ok false
      | Some _ -> bool_field "openmetrics" j
    in
    Ok (Stats { id; openmetrics })
  | "introspect" ->
    let* id = int_field "id" j in
    let* what = str_field "what" j in
    let* what =
      match what with
      | "flight" -> Ok Flight
      | "trace" ->
        let* trace_id = str_field "trace_id" j in
        Ok (Trace_events trace_id)
      | other -> Error (Printf.sprintf "protocol: unknown introspect target %S" other)
    in
    Ok (Introspect { id; what })
  | "shutdown" ->
    let* id = int_field "id" j in
    Ok (Shutdown { id })
  | "bye" -> Ok Bye
  | other -> Error (Printf.sprintf "protocol: unknown request op %S" other)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let response_to_json = function
  | Welcome { session; version } ->
    Json.Obj
      [ ("re", Json.Str "welcome"); ("session", Json.int session); ("version", Json.int version) ]
  | Nodes { id; epoch; values } ->
    Json.Obj
      [
        ("re", Json.Str "nodes");
        ("id", Json.int id);
        ("epoch", Json.int epoch);
        ("values", Json.Arr (List.map (fun v -> Json.Str v) values));
      ]
  | Applied { id; epoch } ->
    Json.Obj [ ("re", Json.Str "applied"); ("id", Json.int id); ("epoch", Json.int epoch) ]
  | Validity { id; valid; errors } ->
    Json.Obj
      [
        ("re", Json.Str "validity");
        ("id", Json.int id);
        ("valid", Json.Bool valid);
        ("errors", Json.Arr (List.map (fun e -> Json.Str e) errors));
      ]
  | Stats_reply { id; body } ->
    Json.Obj [ ("re", Json.Str "stats"); ("id", Json.int id); ("body", body) ]
  | Introspect_reply { id; body } ->
    Json.Obj [ ("re", Json.Str "introspect"); ("id", Json.int id); ("body", body) ]
  | Stopping { id } -> Json.Obj [ ("re", Json.Str "stopping"); ("id", Json.int id) ]
  | Failed { id; message } ->
    Json.Obj [ ("re", Json.Str "failed"); ("id", Json.int id); ("message", Json.Str message) ]

let response_of_json j =
  let* re = str_field "re" j in
  match re with
  | "welcome" ->
    let* session = int_field "session" j in
    let* version = int_field "version" j in
    Ok (Welcome { session; version })
  | "nodes" ->
    let* id = int_field "id" j in
    let* epoch = int_field "epoch" j in
    let* values = str_list_field "values" j in
    Ok (Nodes { id; epoch; values })
  | "applied" ->
    let* id = int_field "id" j in
    let* epoch = int_field "epoch" j in
    Ok (Applied { id; epoch })
  | "validity" ->
    let* id = int_field "id" j in
    let* valid = bool_field "valid" j in
    let* errors = str_list_field "errors" j in
    Ok (Validity { id; valid; errors })
  | "stats" ->
    let* id = int_field "id" j in
    let body = Option.value ~default:Json.Null (Json.member "body" j) in
    Ok (Stats_reply { id; body })
  | "introspect" ->
    let* id = int_field "id" j in
    let body = Option.value ~default:Json.Null (Json.member "body" j) in
    Ok (Introspect_reply { id; body })
  | "stopping" ->
    let* id = int_field "id" j in
    Ok (Stopping { id })
  | "failed" ->
    let* id = int_field "id" j in
    let* message = str_field "message" j in
    Ok (Failed { id; message })
  | other -> Error (Printf.sprintf "protocol: unknown response kind %S" other)
