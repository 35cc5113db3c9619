module Fingerprint = Hgp_util.Fingerprint
module Graph = Hgp_graph.Graph
module Hierarchy = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Instance_io = Hgp_core.Instance_io
module Solver = Hgp_core.Solver
module Hgp_error = Hgp_resilience.Hgp_error

(* ---- minimal JSON ---- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Json_error of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m -> raise (Json_error (Printf.sprintf "%s at offset %d" m !pos)))
      fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail "expected '%c'" c
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail "invalid literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
        incr pos;
        Buffer.contents buf
      | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated escape";
        (match s.[!pos] with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          let code =
            match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
            | Some c -> c
            | None -> fail "bad \\u escape"
          in
          pos := !pos + 4;
          (* UTF-8 encode; surrogate pairs unsupported (never emitted). *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | c -> fail "bad escape '\\%c'" c);
        incr pos;
        go ()
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some f -> f
    | None -> fail "bad number %S" tok
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((k, v) :: acc)
          | Some '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elements (v :: acc)
          | Some ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok v
  with Json_error m -> Error m

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* ---- requests ---- *)

type source = Inline of string | Path of string

type request = {
  id : string;
  source : source;
  trees : int;
  seed : int;
  eps : float;
  resolution : int option;
  deadline_ms : float option;
  priority : int;
  session : string option;
}

let request ~id ?(trees = 4) ?(seed = 42) ?(eps = 0.25) ?resolution ?deadline_ms
    ?(priority = 0) ?session source =
  { id; source; trees; seed; eps; resolution; deadline_ms; priority; session }

let inline_request ~id ?trees ?seed ?eps ?resolution ?deadline_ms ?priority ?session
    inst =
  request ~id ?trees ?seed ?eps ?resolution ?deadline_ms ?priority ?session
    (Inline (Instance_io.to_string inst))

let as_int = function
  | Num f when Float.is_integer f && Float.abs f <= 1e15 -> Some (int_of_float f)
  | _ -> None

(* Typed field access with defaults: a missing or [null] field defaults, a
   present field of the wrong type is a hard parse error — silent coercion
   would corrupt cache keys. *)
let get kvs k coerce ~default ~what =
  match List.assoc_opt k kvs with
  | None | Some Null -> Ok default
  | Some v -> (
    match coerce v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S must be %s" k what))

let ( let* ) = Result.bind

(* The fields every request kind carries. *)
let id_field kvs =
  match List.assoc_opt "id" kvs with
  | Some (Str id) -> Ok id
  | _ -> Error "request is missing the string field \"id\""

let num = function Num f -> Some f | _ -> None

let deadline_field kvs =
  get kvs "deadline_ms" (fun v -> Option.map Option.some (num v)) ~default:None
    ~what:"a number"

let solve_of_fields ~id kvs =
  let* source =
    match (List.assoc_opt "instance" kvs, List.assoc_opt "path" kvs) with
    | Some (Str text), None -> Ok (Inline text)
    | None, Some (Str p) -> Ok (Path p)
    | Some _, Some _ -> Error "request has both \"instance\" and \"path\""
    | Some _, None -> Error "field \"instance\" must be a string"
    | None, Some _ -> Error "field \"path\" must be a string"
    | None, None -> Error "request needs \"instance\" (inline text) or \"path\""
  in
  let* trees = get kvs "trees" as_int ~default:4 ~what:"an integer" in
  let* seed = get kvs "seed" as_int ~default:42 ~what:"an integer" in
  let* eps = get kvs "eps" num ~default:0.25 ~what:"a number" in
  let* resolution =
    get kvs "resolution"
      (fun v -> Option.map Option.some (as_int v))
      ~default:None ~what:"an integer"
  in
  let* deadline_ms = deadline_field kvs in
  let* priority = get kvs "priority" as_int ~default:0 ~what:"an integer" in
  let* session =
    get kvs "session"
      (function Str s -> Some (Some s) | _ -> None)
      ~default:None ~what:"a string"
  in
  if trees < 1 then Error "field \"trees\" must be >= 1"
  else if not (Float.is_finite eps) || eps <= 0. then
    Error "field \"eps\" must be a finite positive number"
  else Ok { id; source; trees; seed; eps; resolution; deadline_ms; priority; session }

(* [{"id":ID<fields>}] *)
let to_line ~size id fields =
  let buf = Buffer.create size in
  Buffer.add_string buf "{\"id\":";
  add_json_string buf id;
  fields buf;
  Buffer.add_char buf '}';
  Buffer.contents buf

let add_string_field buf k v =
  Printf.bprintf buf ",\"%s\":" k;
  add_json_string buf v

let add_deadline buf = Option.iter (Printf.bprintf buf ",\"deadline_ms\":%.17g")

let request_to_line r =
  to_line ~size:512 r.id (fun buf ->
      (match r.source with
      | Inline text -> add_string_field buf "instance" text
      | Path p -> add_string_field buf "path" p);
      Printf.bprintf buf ",\"trees\":%d,\"seed\":%d,\"eps\":%.17g" r.trees r.seed r.eps;
      Option.iter (Printf.bprintf buf ",\"resolution\":%d") r.resolution;
      add_deadline buf r.deadline_ms;
      Printf.bprintf buf ",\"priority\":%d" r.priority;
      Option.iter (add_string_field buf "session") r.session)

(* ---- update requests ---- *)

type update_request = {
  u_id : string;
  u_session : string;
  u_delta : string;
  u_deadline_ms : float option;
}

let update_request ~id ~session ?deadline_ms delta =
  { u_id = id; u_session = session; u_delta = delta; u_deadline_ms = deadline_ms }

let update_of_fields ~id kvs =
  let* u_session =
    match List.assoc_opt "session" kvs with
    | Some (Str s) -> Ok s
    | _ -> Error "update request needs the string field \"session\""
  in
  let* u_delta =
    match List.assoc_opt "delta" kvs with
    | Some (Str d) -> Ok d
    | _ -> Error "field \"delta\" must be a string"
  in
  let* u_deadline_ms = deadline_field kvs in
  Ok { u_id = id; u_session; u_delta; u_deadline_ms }

type any_request = Solve of request | Update of update_request

let parse_any line =
  match parse_json line with
  | Error m -> Error m
  | Ok (Obj kvs) ->
    let* id = id_field kvs in
    if List.mem_assoc "delta" kvs then
      let* u = update_of_fields ~id kvs in
      Ok (Update u)
    else
      let* r = solve_of_fields ~id kvs in
      Ok (Solve r)
  | Ok _ -> Error "request line is not a JSON object"

let update_to_line u =
  to_line ~size:256 u.u_id (fun buf ->
      add_string_field buf "session" u.u_session;
      add_string_field buf "delta" u.u_delta;
      add_deadline buf u.u_deadline_ms)

(* ---- resolution ---- *)

type resolved = {
  request : request;
  inst : Instance.t;
  key : Fingerprint.t;
  options : Solver.options;
}

let key_of ~inst (r : request) =
  Graph.fingerprint inst.Instance.graph
  |> Fun.flip Fingerprint.add_float_array inst.Instance.demands
  |> Fun.flip Fingerprint.combine (Hierarchy.fingerprint inst.Instance.hierarchy)
  |> Fun.flip Fingerprint.add_int r.trees
  |> Fun.flip Fingerprint.add_int r.seed
  |> Fun.flip Fingerprint.add_float r.eps
  |> Fun.flip (Fingerprint.add_option Fingerprint.add_int) r.resolution

let options_of_request (r : request) =
  {
    Solver.default_options with
    ensemble_size = r.trees;
    seed = r.seed;
    eps = r.eps;
    resolution = r.resolution;
  }

let resolve r =
  try
    let inst =
      match r.source with
      | Inline text -> Instance_io.of_string text
      | Path p -> Instance_io.load p
    in
    Ok { request = r; inst; key = key_of ~inst r; options = options_of_request r }
  with
  | Hgp_error.Error e -> Error e
  | exn ->
    Error (Hgp_error.Internal { stage = "resolve"; msg = Hgp_error.message_of_exn exn })

(* ---- responses ---- *)

type solved = {
  cost : float;
  violation : float;
  rung : string;
  degraded : bool;
  tree_failures : int;
  cache_hit : bool;
  dp_states : int;
  cached_dp_states : int;
  assignment : int array;
}

type updated = {
  up_cost : float;
  up_violation : float;
  up_churn : float;
  up_resolved_subtrees : int;
  up_reused_subtrees : int;
  up_incremental : bool;
  up_certified : bool;
  up_assignment : int array;
}

type outcome = Solved of solved | Updated of updated | Failed of Hgp_error.t

type response = { id : string; outcome : outcome; queue_ms : float; solve_ms : float }

let failed id e = { id; outcome = Failed e; queue_ms = 0.; solve_ms = 0. }

let response_to_line resp =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"id\":";
  add_json_string buf resp.id;
  (match resp.outcome with
  | Solved s ->
    Printf.bprintf buf ",\"status\":\"ok\",\"cost\":%.17g,\"violation\":%.17g" s.cost
      s.violation;
    Buffer.add_string buf ",\"rung\":";
    add_json_string buf s.rung;
    Printf.bprintf buf
      ",\"degraded\":%b,\"tree_failures\":%d,\"cache_hit\":%b,\"dp_states\":%d,\"cached_dp_states\":%d"
      s.degraded s.tree_failures s.cache_hit s.dp_states s.cached_dp_states
  | Updated u ->
    Printf.bprintf buf
      ",\"status\":\"updated\",\"cost\":%.17g,\"violation\":%.17g,\"churn\":%.17g,\"resolved_subtrees\":%d,\"reused_subtrees\":%d,\"incremental\":%b,\"certified\":%b"
      u.up_cost u.up_violation u.up_churn u.up_resolved_subtrees u.up_reused_subtrees
      u.up_incremental u.up_certified
  | Failed e ->
    Printf.bprintf buf ",\"status\":\"error\",\"error\":\"%s\"" (Hgp_error.label e);
    Buffer.add_string buf ",\"message\":";
    add_json_string buf (Hgp_error.to_string e));
  Printf.bprintf buf ",\"queue_ms\":%.3f,\"solve_ms\":%.3f" resp.queue_ms resp.solve_ms;
  let add_assignment assignment =
    Buffer.add_string buf ",\"assignment\":[";
    Array.iteri
      (fun i leaf ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int leaf))
      assignment;
    Buffer.add_char buf ']'
  in
  (match resp.outcome with
  | Solved s -> add_assignment s.assignment
  | Updated u -> add_assignment u.up_assignment
  | Failed _ -> ());
  Buffer.add_char buf '}';
  Buffer.contents buf
