(* JSON-lines protocol of the batch solve service (lib/server/protocol.ml).

   The load-bearing property: serializing a request with [request_to_line]
   and re-parsing it must resolve to the SAME affinity fingerprint — the
   scheduler's shard placement and the artifact caches key on it, so a
   drifting float rendering would silently turn warm duplicates into cold
   solves.  Floats travel as %.17g, which round-trips bit-exactly; the
   property pins that across generator presets and quantization edge
   cases. *)

module Gen = Hgp_graph.Generators
module H = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Prng = Hgp_util.Prng
module Protocol = Hgp_server.Protocol
module Scheduler = Hgp_server.Scheduler
module Fingerprint = Hgp_util.Fingerprint
module Hgp_error = Hgp_resilience.Hgp_error

let hy () = H.create ~degs:[| 2; 2 |] ~cm:[| 10.; 3.; 0. |] ~leaf_capacity:1.0

let mk_instance ?(n = 12) seed =
  let rng = Prng.create seed in
  let g = Gen.gnp_connected rng n (5.0 /. float_of_int n) in
  Instance.uniform_demands g (hy ()) ~load_factor:0.6

let key_of_request r =
  match Protocol.resolve r with
  | Ok res -> res.Protocol.key
  | Error e -> Alcotest.failf "resolve failed: %s" (Hgp_error.to_string e)

(* ---- json parser ---- *)

let test_parse_json_values () =
  let ok s = Result.get_ok (Protocol.parse_json s) in
  Alcotest.(check bool) "null" true (ok "null" = Protocol.Null);
  Alcotest.(check bool) "true" true (ok "true" = Protocol.Bool true);
  Alcotest.(check bool) "int" true (ok "42" = Protocol.Num 42.);
  Alcotest.(check bool) "negative exp" true (ok "-2.5e2" = Protocol.Num (-250.));
  Alcotest.(check bool) "string escapes" true
    (ok {|"a\"b\\c\n\tA"|} = Protocol.Str "a\"b\\c\n\tA");
  Alcotest.(check bool) "nested" true
    (ok {|{"a":[1,null,{"b":""}],"c":false}|}
    = Protocol.Obj
        [
          ("a", Protocol.Arr [ Protocol.Num 1.; Protocol.Null; Protocol.Obj [ ("b", Protocol.Str "") ] ]);
          ("c", Protocol.Bool false);
        ]);
  Alcotest.(check bool) "whitespace" true
    (ok " { \"a\" : 1 } " = Protocol.Obj [ ("a", Protocol.Num 1.) ])

let test_parse_json_errors () =
  List.iter
    (fun s ->
      match Protocol.parse_json s with
      | Ok _ -> Alcotest.failf "accepted malformed json %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\"}"; "tru"; "1 2"; "\"unterminated"; "{\"a\":}"; "nan" ]

(* ---- request round-trip ---- *)

(* A solve line parsed through the one request parser. *)
let parse_solve line =
  match Protocol.parse_any line with
  | Ok (Protocol.Solve r) -> Ok r
  | Ok (Protocol.Update _) -> Error "classified as an update"
  | Error e -> Error e

let test_request_roundtrip_record () =
  let inst = mk_instance 3 in
  let r =
    Protocol.inline_request ~id:"req \"quoted\"\n" ~trees:3 ~seed:9 ~eps:0.125
      ~resolution:17 ~deadline_ms:250.5 ~priority:(-2) inst
  in
  let line = Protocol.request_to_line r in
  Alcotest.(check bool) "one line" true (not (String.contains line '\n'));
  (match parse_solve line with
  | Ok r' -> Alcotest.(check bool) "record round-trips" true (r = r')
  | Error e -> Alcotest.failf "re-parse failed: %s" e);
  (* Path-sourced request too, with a path that needs escaping. *)
  let rp = Protocol.request ~id:"p1" (Protocol.Path "dir\\file \"x\".hgp") in
  match parse_solve (Protocol.request_to_line rp) with
  | Ok rp' -> Alcotest.(check bool) "path round-trips" true (rp = rp')
  | Error e -> Alcotest.failf "path re-parse failed: %s" e

let test_request_defaults_and_unknown_fields () =
  let inst_text = String.concat "" [ "not parsed here" ] in
  match
    parse_solve
      (Printf.sprintf
         {|{"id":"d","instance":%s,"future_field":[1,2],"priority":3}|}
         (let b = Buffer.create 32 in
          Buffer.add_char b '"';
          String.iter
            (fun c -> if c = '"' then Buffer.add_string b "\\\"" else Buffer.add_char b c)
            inst_text;
          Buffer.add_char b '"';
          Buffer.contents b))
  with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok r ->
    Alcotest.(check int) "default trees" 4 r.Protocol.trees;
    Alcotest.(check int) "default seed" 42 r.Protocol.seed;
    Alcotest.(check bool) "default eps" true (r.Protocol.eps = 0.25);
    Alcotest.(check bool) "no resolution" true (r.Protocol.resolution = None);
    Alcotest.(check bool) "no deadline" true (r.Protocol.deadline_ms = None);
    Alcotest.(check int) "priority" 3 r.Protocol.priority

let test_request_rejects () =
  List.iter
    (fun s ->
      match parse_solve s with
      | Ok _ -> Alcotest.failf "accepted bad request %S" s
      | Error _ -> ())
    [
      "{}";
      {|{"id":"x"}|};
      {|{"id":"x","instance":"i","path":"p"}|};
      {|{"id":"x","instance":"i","trees":0}|};
      {|{"id":"x","instance":"i","eps":-1}|};
      {|{"id":"x","instance":"i","trees":2.5}|};
      {|{"id":1,"instance":"i"}|};
      "[]";
      "not json";
    ]

(* ---- resolution & the affinity key ---- *)

let test_resolve_errors_are_structured () =
  (match Protocol.resolve (Protocol.request ~id:"x" (Protocol.Inline "garbage")) with
  | Error (Hgp_error.Parse _) -> ()
  | Error e -> Alcotest.failf "expected Parse, got %s" (Hgp_error.to_string e)
  | Ok _ -> Alcotest.fail "resolved garbage");
  match Protocol.resolve (Protocol.request ~id:"x" (Protocol.Path "/nonexistent/f.hgp")) with
  | Error (Hgp_error.Io_error _) -> ()
  | Error e -> Alcotest.failf "expected Io_error, got %s" (Hgp_error.to_string e)
  | Ok _ -> Alcotest.fail "resolved missing path"

let test_key_excludes_deadline_and_priority () =
  let inst = mk_instance 5 in
  let base = Protocol.inline_request ~id:"a" ~trees:2 ~seed:1 inst in
  let k = key_of_request base in
  Alcotest.(check string) "deadline excluded"
    (Fingerprint.to_hex k)
    (Fingerprint.to_hex
       (key_of_request { base with Protocol.deadline_ms = Some 5.; priority = 9; id = "b" }));
  Alcotest.(check bool) "seed included" true
    (k <> key_of_request { base with Protocol.seed = 2 });
  Alcotest.(check bool) "trees included" true
    (k <> key_of_request { base with Protocol.trees = 3 });
  Alcotest.(check bool) "eps included" true
    (k <> key_of_request { base with Protocol.eps = 0.5 });
  Alcotest.(check bool) "resolution included" true
    (k <> key_of_request { base with Protocol.resolution = Some 3 })

let test_options_from_request () =
  (* A request's solve options are the solver defaults with the request's
     own fields laid over them, and nothing else. *)
  let inst = mk_instance 5 in
  let r =
    {
      (Protocol.inline_request ~id:"a" inst) with
      Protocol.trees = 3;
      seed = 17;
      eps = 0.5;
      resolution = Some 40;
    }
  in
  match Protocol.resolve r with
  | Error e -> Alcotest.failf "resolve: %s" (Hgp_error.to_string e)
  | Ok res ->
    Alcotest.(check bool) "defaults under the request's fields" true
      (res.Protocol.options
      = {
          Hgp_core.Solver.default_options with
          ensemble_size = 3;
          seed = 17;
          eps = 0.5;
          resolution = Some 40;
        })

(* ---- response rendering ---- *)

let test_response_lines () =
  let ok_line =
    Protocol.response_to_line
      {
        Protocol.id = "r1";
        outcome =
          Protocol.Solved
            {
              Protocol.cost = 12.5;
              violation = 0.;
              rung = "ensemble";
              degraded = false;
              tree_failures = 0;
              cache_hit = true;
              dp_states = 0;
              cached_dp_states = 7;
              assignment = [| 0; 3; 1 |];
            };
        queue_ms = 1.5;
        solve_ms = 0.25;
      }
  in
  Alcotest.(check string) "ok line"
    {|{"id":"r1","status":"ok","cost":12.5,"violation":0,"rung":"ensemble","degraded":false,"tree_failures":0,"cache_hit":true,"dp_states":0,"cached_dp_states":7,"queue_ms":1.500,"solve_ms":0.250,"assignment":[0,3,1]}|}
    ok_line;
  let err_line =
    Protocol.response_to_line
      {
        Protocol.id = "r2";
        outcome = Protocol.Failed (Hgp_error.Overloaded { queued = 8; limit = 8 });
        queue_ms = 0.;
        solve_ms = 0.;
      }
  in
  Alcotest.(check string) "error line"
    {|{"id":"r2","status":"error","error":"overloaded","message":"server overloaded: 8 requests queued (admission limit 8)","queue_ms":0.000,"solve_ms":0.000}|}
    err_line;
  (* Every response line is itself valid JSON. *)
  List.iter
    (fun l ->
      match Protocol.parse_json l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "response line is not json (%s): %s" e l)
    [ ok_line; err_line ]

(* ---- update requests ---- *)

let test_update_roundtrip_and_parse_any () =
  let u =
    Protocol.update_request ~id:"u \"q\"" ~session:"sess-1" ~deadline_ms:12.5
      "%hgp-delta 1\nreweight 0 1 2.5\n"
  in
  let line = Protocol.update_to_line u in
  Alcotest.(check bool) "one line" true (not (String.contains line '\n'));
  (match Protocol.parse_any line with
  | Ok (Protocol.Update u') -> Alcotest.(check bool) "update round-trips" true (u = u')
  | Ok (Protocol.Solve _) -> Alcotest.fail "classified as solve"
  | Error e -> Alcotest.failf "re-parse failed: %s" e);
  (* A line without "delta" is a solve; the session field rides along. *)
  (match Protocol.parse_any {|{"id":"s","instance":"txt","session":"sess-1"}|} with
  | Ok (Protocol.Solve r) ->
    Alcotest.(check bool) "session parsed" true (r.Protocol.session = Some "sess-1")
  | Ok (Protocol.Update _) -> Alcotest.fail "classified as update"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* Session survives the solve-request round trip. *)
  let r = Protocol.request ~id:"s" ~session:"sx" (Protocol.Path "p.hgp") in
  (match parse_solve (Protocol.request_to_line r) with
  | Ok r' -> Alcotest.(check bool) "session round-trips" true (r = r')
  | Error e -> Alcotest.failf "session re-parse failed: %s" e);
  (* Malformed updates reject with a reason. *)
  List.iter
    (fun s ->
      match Protocol.parse_any s with
      | Ok _ -> Alcotest.failf "accepted bad update %S" s
      | Error _ -> ())
    [
      {|{"id":"u","delta":"d"}|} (* no session *);
      {|{"session":"s","delta":"d"}|} (* no id *);
      {|{"id":"u","session":"s","delta":42}|};
    ]

let test_updated_response_line () =
  let line =
    Protocol.response_to_line
      {
        Protocol.id = "u1";
        outcome =
          Protocol.Updated
            {
              Protocol.up_cost = 7.25;
              up_violation = 1.;
              up_churn = 0.125;
              up_resolved_subtrees = 3;
              up_reused_subtrees = 11;
              up_incremental = true;
              up_certified = true;
              up_assignment = [| 2; 0 |];
            };
        queue_ms = 0.5;
        solve_ms = 1.25;
      }
  in
  Alcotest.(check string) "updated line"
    {|{"id":"u1","status":"updated","cost":7.25,"violation":1,"churn":0.125,"resolved_subtrees":3,"reused_subtrees":11,"incremental":true,"certified":true,"queue_ms":0.500,"solve_ms":1.250,"assignment":[2,0]}|}
    line;
  match Protocol.parse_json line with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "updated line is not json: %s" e

(* ---- properties ---- *)

(* Instances across the CLI's generator presets, demands with non-round
   floats, eps/resolution at quantization edge cases. *)
let gen_request =
  let open QCheck2.Gen in
  let* preset = oneofl [ `Mesh; `Gnp; `Tree; `Path ] in
  let* seed = int_bound 100_000 in
  let rng = Prng.create seed in
  let g =
    match preset with
    | `Mesh -> Gen.grid2d ~rows:3 ~cols:4
    | `Gnp -> Gen.gnp_connected rng 10 0.4
    | `Tree -> Gen.random_tree rng 9
    | `Path -> Gen.path 8
  in
  let g = Gen.randomize_weights rng g ~lo:0.1 ~hi:9.7 in
  let* load = float_range 0.3 0.95 in
  let* uniform = bool in
  let inst =
    if uniform then Instance.uniform_demands g (hy ()) ~load_factor:load
    else Instance.random_demands rng g (hy ()) ~load_factor:load
  in
  let* trees = int_range 1 5 in
  let* rseed = int_bound 1_000_000 in
  let* eps = oneofl [ 0.25; 0.1; 0.3333333333333333; 1e-3; 2.5; 0.7071067811865476 ] in
  let* resolution = oneofl [ None; Some 1; Some 7; Some 64 ] in
  let* deadline_ms = oneofl [ None; Some 0.1; Some 1234.5678901234567 ] in
  let* priority = int_range (-3) 3 in
  return
    {
      Protocol.id = "prop";
      source = Protocol.Inline (Hgp_core.Instance_io.to_string inst);
      trees;
      seed = rseed;
      eps;
      resolution;
      deadline_ms;
      priority;
      session = None;
    }

let prop_fingerprint_stable_over_wire =
  Test_support.qtest ~count:60
    "serialize/re-parse preserves the affinity fingerprint" gen_request (fun r ->
      let k = key_of_request r in
      match parse_solve (Protocol.request_to_line r) with
      | Error _ -> false
      | Ok r' ->
        r = r' && k = key_of_request r'
        && Scheduler.shard_of_fingerprint k ~shards:5
           = Scheduler.shard_of_fingerprint (key_of_request r') ~shards:5)

let prop_double_roundtrip_fixpoint =
  Test_support.qtest ~count:30 "request_to_line is a fixpoint after one round trip"
    gen_request (fun r ->
      match parse_solve (Protocol.request_to_line r) with
      | Error _ -> false
      | Ok r' -> Protocol.request_to_line r' = Protocol.request_to_line r)

let () =
  Alcotest.run "protocol"
    [
      ( "unit",
        [
          Alcotest.test_case "parse json values" `Quick test_parse_json_values;
          Alcotest.test_case "parse json errors" `Quick test_parse_json_errors;
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip_record;
          Alcotest.test_case "request defaults" `Quick test_request_defaults_and_unknown_fields;
          Alcotest.test_case "request rejects" `Quick test_request_rejects;
          Alcotest.test_case "resolve errors" `Quick test_resolve_errors_are_structured;
          Alcotest.test_case "key excludes qos fields" `Quick test_key_excludes_deadline_and_priority;
          Alcotest.test_case "options from request" `Quick test_options_from_request;
          Alcotest.test_case "response lines" `Quick test_response_lines;
          Alcotest.test_case "update roundtrip / parse_any" `Quick
            test_update_roundtrip_and_parse_any;
          Alcotest.test_case "updated response line" `Quick test_updated_response_line;
        ] );
      ( "property",
        [ prop_fingerprint_stable_over_wire; prop_double_roundtrip_fixpoint ] );
    ]
