(* Golden-file tests for the CLI's machine-readable output schemas:
   --metrics=json, --cache-stats, and the batch service's response lines.

   Each scenario runs the real hgp_cli binary, normalizes the volatile
   fields (wall-clock milliseconds, steal counts), and compares against a
   snapshot under test/golden/.  To (re)record snapshots:

     dune build && HGP_GOLDEN_PROMOTE=1 ./_build/default/test/test_golden.exe

   (or set HGP_GOLDEN_DIR to write them somewhere else).  A schema change
   that shows up here is an interface change for every downstream consumer
   of these streams — promote deliberately. *)

module Gen = Hgp_graph.Generators
module H = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Instance_io = Hgp_core.Instance_io
module Prng = Hgp_util.Prng
module Protocol = Hgp_server.Protocol

(* ---- locations ---- *)

let base_dir =
  let d = Filename.dirname Sys.executable_name in
  if Filename.is_relative d then Filename.concat (Sys.getcwd ()) d else d

let cli = Filename.concat base_dir (Filename.concat ".." (Filename.concat "bin" "hgp_cli.exe"))
let build_golden_dir = Filename.concat base_dir "golden"

let find_substring hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i =
    if i + nl > hl then None
    else if String.sub hay i nl = needle then Some i
    else go (i + 1)
  in
  go 0

(* .../_build/default/test -> .../test (where the committed goldens live). *)
let source_golden_dir () =
  match Sys.getenv_opt "HGP_GOLDEN_DIR" with
  | Some d -> d
  | None -> (
    let marker = "_build/default/" in
    match find_substring base_dir marker with
    | Some i ->
      let src =
        String.sub base_dir 0 i
        ^ String.sub base_dir
            (i + String.length marker)
            (String.length base_dir - i - String.length marker)
      in
      Filename.concat src "golden"
    | None -> build_golden_dir)

let promote = Sys.getenv_opt "HGP_GOLDEN_PROMOTE" <> None

(* ---- small io helpers ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* [run_cli args] returns (exit code, stdout, stderr).  The child runs with
   the fault plan variable unset: the goldens pin fault-free output, so a
   suite run under a chaos profile must not leak its plan into the CLI. *)
let run_cli args =
  let out = Filename.temp_file "hgp_golden" ".out" in
  let err = Filename.temp_file "hgp_golden" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let cmd =
        Printf.sprintf "unset %s; %s %s > %s 2> %s" Hgp_resilience.Faults.env_var
          (Filename.quote cli)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote out) (Filename.quote err)
      in
      let code = Sys.command cmd in
      (code, read_file out, read_file err))

(* ---- normalization ---- *)

(* Replace the value of every ["field":<scalar>] with ["field":"<X>"]. *)
let normalize_json_field field s =
  let pat = "\"" ^ field ^ "\":" in
  let b = Buffer.create (String.length s) in
  let n = String.length s and pn = String.length pat in
  let i = ref 0 in
  while !i < n do
    if !i + pn <= n && String.sub s !i pn = pat then begin
      Buffer.add_string b pat;
      Buffer.add_string b "\"<X>\"";
      i := !i + pn;
      while !i < n && s.[!i] <> ',' && s.[!i] <> '}' && s.[!i] <> '\n' do
        incr i
      done
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* Replace the value of every [key=<token>] with [key=<X>]. *)
let normalize_kv key s =
  let pat = key ^ "=" in
  let b = Buffer.create (String.length s) in
  let n = String.length s and pn = String.length pat in
  let i = ref 0 in
  while !i < n do
    if !i + pn <= n && String.sub s !i pn = pat then begin
      Buffer.add_string b pat;
      Buffer.add_string b "<X>";
      i := !i + pn;
      while !i < n && s.[!i] <> ' ' && s.[!i] <> '\n' do
        incr i
      done
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let map_lines f s =
  String.split_on_char '\n' s |> List.map f |> String.concat "\n"

(* "stage embed     12.345 ms" -> "stage embed    <MS> ms" *)
let normalize_stage_line line =
  if String.length line >= 6 && String.sub line 0 6 = "stage " then
    match
      String.split_on_char ' ' line |> List.filter (fun t -> t <> "")
    with
    | [ "stage"; name; _ms; "ms" ] -> Printf.sprintf "stage %-8s <MS> ms" name
    | _ -> line
  else line

let normalize_metrics_json s =
  List.fold_left
    (fun s f -> normalize_json_field f s)
    s
    [ "total_ms"; "self_ms"; "max_ms" ]
  |> map_lines (fun line ->
         match find_substring line "\"type\":\"gauge\"" with
         | Some _ -> normalize_json_field "value" line
         | None -> (
             (* Allocation volume depends on compiler version and GC
                settings, unlike the content-determined DP counters. *)
             match find_substring line "\"name\":\"tree_dp.bytes_allocated\"" with
             | Some _ -> normalize_json_field "value" line
             | None -> (
                 match find_substring line "\"name\":\"multilevel.csr_build_bytes\"" with
                 | Some _ -> normalize_json_field "value" line
                 | None -> (
                     match find_substring line "\"name\":\"refine.fm.bytes_allocated\"" with
                     | Some _ -> normalize_json_field "value" line
                     | None -> line))))

let normalize_cache_stats s = map_lines normalize_stage_line s

let normalize_batch_stdout s =
  normalize_json_field "queue_ms" (normalize_json_field "solve_ms" s)

let normalize_server_stats s = normalize_kv "steals" s

(* ---- golden comparison ---- *)

let mkdir_if_missing d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let check_golden name actual =
  let file = name ^ ".golden" in
  if promote then begin
    let dir = source_golden_dir () in
    mkdir_if_missing dir;
    write_file (Filename.concat dir file) actual;
    Printf.printf "promoted %s\n" (Filename.concat dir file)
  end
  else begin
    let path = Filename.concat build_golden_dir file in
    if not (Sys.file_exists path) then
      Alcotest.failf
        "missing golden %s — record it with:\n\
        \  dune build && HGP_GOLDEN_PROMOTE=1 ./_build/default/test/test_golden.exe"
        file;
    let expected = read_file path in
    if expected <> actual then
      Alcotest.failf
        "golden mismatch for %s\n---- expected ----\n%s\n---- actual ----\n%s\n\
         (re-record with HGP_GOLDEN_PROMOTE=1 if the change is intended)"
        file expected actual
  end

(* ---- fixtures ---- *)

let fixture_instance () =
  let rng = Prng.create 7 in
  let g = Gen.gnp_connected rng 20 0.3 in
  Instance.uniform_demands g
    (H.create ~degs:[| 2; 2 |] ~cm:[| 10.; 3.; 0. |] ~leaf_capacity:1.0)
    ~load_factor:0.6

let with_fixture_file f =
  let path = Filename.temp_file "hgp_golden_inst" ".hgp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path (Instance_io.to_string (fixture_instance ()));
      f path)

(* ---- scenarios ---- *)

let test_cache_stats_schema () =
  with_fixture_file @@ fun inst ->
  let code, _out, err =
    run_cli [ "solve"; inst; "--seed"; "3"; "--trees"; "2"; "--repeat"; "2"; "--cache-stats" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_golden "solve_cache_stats" (normalize_cache_stats err)

let test_metrics_json_schema () =
  with_fixture_file @@ fun inst ->
  let code, _out, err =
    run_cli [ "solve"; inst; "--seed"; "3"; "--trees"; "2"; "--metrics=json" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_golden "solve_metrics_json" (normalize_metrics_json err)

let test_multilevel_schema () =
  with_fixture_file @@ fun inst ->
  (* --multilevel=8 forces real coarsening on the 20-vertex fixture; stdout
     carries the V-cycle header lines (# multilevel / # coarse-certified /
     # refine) plus the assignment, all seed-determined.  Stderr interleaves
     the metrics stream with the cache report, which now includes the
     "cache hierarchy" line registered by the multilevel front-end. *)
  let code, out, err =
    run_cli
      [
        "solve"; inst; "--seed"; "3"; "--trees"; "2"; "--multilevel=8";
        "--cache-stats"; "--metrics=json";
      ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_golden "solve_multilevel_stdout" out;
  check_golden "solve_multilevel_stderr" (normalize_cache_stats (normalize_metrics_json err))

let test_multilevel_fm_schema () =
  with_fixture_file @@ fun inst ->
  (* The FM path: stdout gains the "# multilevel-refine"
     describe line (emitted ONLY in FM modes — the greedy golden above pins
     that the default output is untouched) and stderr gains the refine.fm.*
     counters and per-level cost-delta gauges. *)
  let code, out, err =
    run_cli
      [
        "solve"; inst; "--seed"; "3"; "--trees"; "2"; "--multilevel=8";
        "--multilevel-refine=fm"; "--cache-stats"; "--metrics=json";
      ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_golden "solve_multilevel_fm_stdout" out;
  check_golden "solve_multilevel_fm_stderr"
    (normalize_cache_stats (normalize_metrics_json err))

(* The demand-resolution clamp note describes the exact solve that ran.
   Under --multilevel that is the coarse instance: on a ~2.7e4-vertex
   stream DAG the fine instance is clamped (the control below), the
   ~128-vertex coarse one is not, so the run prints no note. *)
let test_multilevel_clamp_note () =
  let path = Filename.temp_file "hgp_clamp" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, _, _ =
        run_cli [ "generate"; "--kind"; "stream"; "-n"; "40000"; "--seed"; "7"; "-o"; path ]
      in
      Alcotest.(check int) "generate exit 0" 0 code;
      let fine =
        Instance.uniform_demands (Hgp_graph.Io.of_string (read_file path)) H.Presets.dual_socket
          ~load_factor:0.7
      in
      Alcotest.(check bool) "the fine instance is clamped" true
        (Hgp_core.Solver.resolution_clamped fine Hgp_core.Solver.default_options);
      let code, _out, err = run_cli [ "solve"; path; "--trees"; "1"; "--multilevel" ] in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "no clamp note" true
        (find_substring err "resolution clamped" = None))

(* A structural delta that disconnects the graph is solved as given, on
   the exact and the multilevel delta paths alike: exit 0 with a certified
   update.  Removing vertex 7 of this instance cuts a neighbour off. *)
let test_disconnecting_delta_certified () =
  let path = Filename.temp_file "hgp_disc" ".graph" in
  let dpath = Filename.temp_file "hgp_disc" ".delta" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove dpath)
    (fun () ->
      let code, _, _ =
        run_cli [ "generate"; "--kind"; "gnp"; "-n"; "300"; "--seed"; "3"; "-o"; path ]
      in
      Alcotest.(check int) "generate exit 0" 0 code;
      write_file dpath "%hgp-delta 1\nremove-vertex 7\n";
      List.iter
        (fun extra ->
          let what = String.concat " " ("solve --delta" :: extra) in
          let code, out, _ = run_cli ([ "solve"; path; "--delta"; dpath ] @ extra) in
          Alcotest.(check int) (what ^ ": exit 0") 0 code;
          Alcotest.(check bool) (what ^ ": certified") true
            (find_substring out "certified=true" <> None))
        [ []; [ "--multilevel" ] ])

(* [solve --multilevel] honours [--deadline-ms] as the delta path does: an
   already-expired budget exits 75 naming the stage that noticed it, with
   or without [--delta]. *)
let test_multilevel_deadline_exit_75 () =
  with_fixture_file @@ fun inst ->
  let delta = Filename.temp_file "hgp_ml_deadline" ".delta" in
  Fun.protect
    ~finally:(fun () -> Sys.remove delta)
    (fun () ->
      write_file delta "%hgp-delta 1\n";
      List.iter
        (fun (what, extra) ->
          let code, out, err =
            run_cli ([ "solve"; inst; "--multilevel=8"; "--deadline-ms"; "0" ] @ extra)
          in
          Alcotest.(check int) (what ^ ": exit 75") 75 code;
          Alcotest.(check string) (what ^ ": no stdout") "" out;
          Alcotest.(check bool) (what ^ ": names the stage") true
            (find_substring err "exceeded in multilevel" <> None))
        [ ("cold", []); ("with --delta", [ "--delta"; delta ]) ])

(* Two disjoint triangles: the task graph is solved as given.  An instance
   file takes the Theorem-1 path through [solve] (rung ensemble, no lost
   tree), [solve --multilevel] and an inline [batch] request; a METIS file
   gets no phantom edge, so its printed cost is its cost on its own six
   edges. *)
let two_triangles_spec = "[10,[3,1,1],[3,1,1]]"

let two_triangles () =
  Hgp_graph.Graph.of_edges 6
    [ (0, 1, 1.); (0, 2, 1.); (1, 2, 1.); (3, 4, 1.); (3, 5, 1.); (4, 5, 1.) ]

(* The value of the "# key value" header line of [solve]'s stdout. *)
let header out key =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "#"; k; v ] when k = key -> Some v
      | _ -> None)
    (String.split_on_char '\n' out)

let assignment_lines out =
  List.filter (fun l -> l <> "" && l.[0] <> '#') (String.split_on_char '\n' out)

let check_ensemble_answer what out =
  List.iter
    (fun (key, v) ->
      Alcotest.(check (option string)) (what ^ ": " ^ key) (Some v) (header out key))
    [ ("rung", "ensemble"); ("degraded", "false"); ("tree-failures", "0") ];
  Alcotest.(check int) (what ^ ": one line per vertex") 6 (List.length (assignment_lines out))

let test_disconnected_task_graph () =
  let hy = Result.get_ok (Hgp_hierarchy.Topology.parse_result two_triangles_spec) in
  let g = two_triangles () in
  let ipath = Filename.temp_file "hgp_tri" ".hgp" in
  let gpath = Filename.temp_file "hgp_tri" ".graph" in
  let rpath = Filename.temp_file "hgp_tri" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ ipath; gpath; rpath ])
    (fun () ->
      let inst = Instance.create g ~demands:(Array.make 6 0.4) hy in
      write_file ipath (Instance_io.to_string inst);
      write_file gpath (Hgp_graph.Io.to_string g);
      let code, out, _ = run_cli [ "solve"; ipath ] in
      Alcotest.(check int) "solve: exit 0" 0 code;
      check_ensemble_answer "solve" out;
      let code, out, _ = run_cli [ "solve"; ipath; "--multilevel=2" ] in
      Alcotest.(check int) "--multilevel=2: exit 0" 0 code;
      Alcotest.(check bool) "--multilevel=2: coarse certificate within band" true
        (find_substring out "within-band=true" <> None);
      Alcotest.(check int) "--multilevel=2: one line per vertex" 6
        (List.length (assignment_lines out));
      write_file rpath (Protocol.request_to_line (Protocol.inline_request ~id:"tri" inst) ^ "\n");
      let code, out, _ = run_cli [ "batch"; rpath ] in
      Alcotest.(check int) "batch: exit 0" 0 code;
      List.iter
        (fun field ->
          Alcotest.(check bool) ("batch: " ^ field) true (find_substring out field <> None))
        [ "\"status\":\"ok\""; "\"rung\":\"ensemble\""; "\"degraded\":false"; "\"tree_failures\":0" ];
      let code, out, _ = run_cli [ "solve"; gpath; "-H"; two_triangles_spec ] in
      Alcotest.(check int) "METIS: exit 0" 0 code;
      check_ensemble_answer "METIS" out;
      let p = Array.make 6 (-1) in
      List.iter
        (fun l -> Scanf.sscanf l "%d %d" (fun v leaf -> p.(v) <- leaf))
        (assignment_lines out);
      let own = Instance.uniform_demands g hy ~load_factor:0.7 in
      Alcotest.(check (option string)) "METIS: cost on the given graph"
        (Some (Printf.sprintf "%.6g" (Hgp_core.Cost.assignment_cost own p)))
        (header out "cost"))

(* METIS input: an empty adjacency line is an isolated vertex (vertices 3
   and 4 below), and a file short of its vertex lines is invalid input —
   exit 65 naming the line, not an uncaught exception; so are demands the
   hierarchy cannot hold.  The small hierarchy keeps four uniform demands
   within a leaf. *)
let test_metis_isolated_and_truncated () =
  let path = Filename.temp_file "hgp_metis" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let solve () = run_cli [ "solve"; path; "-H"; "[10,[3,1,1],[3,1,1]]" ] in
      write_file path "4 1 001\n2 1\n1 1\n\n\n";
      let code, out, _ = solve () in
      Alcotest.(check int) "isolated vertices: exit 0" 0 code;
      Alcotest.(check int) "one assignment line per vertex" 4
        (List.length
           (List.filter
              (fun l -> l <> "" && l.[0] <> '#')
              (String.split_on_char '\n' out)));
      write_file path "4 1 001\n2 1\n1 1\n";
      let code, out, err = solve () in
      Alcotest.(check int) "truncated: exit 65" 65 code;
      Alcotest.(check string) "truncated: no stdout" "" out;
      Alcotest.(check bool) "truncated: names the line" true
        (find_substring err "(io.of_string): line 4:" <> None);
      (* under the default hierarchy four uniform demands overflow a leaf *)
      write_file path "4 1 001\n2 1\n1 1\n\n\n";
      List.iter
        (fun (what, args, needle) ->
          let code, out, err = run_cli ([ "solve"; path ] @ args) in
          Alcotest.(check int) (what ^ ": exit 65") 65 code;
          Alcotest.(check string) (what ^ ": no stdout") "" out;
          Alcotest.(check bool) (what ^ ": structured message") true
            (find_substring err needle <> None))
        [
          ( "oversized demand",
            [],
            "per-vertex demand 2.8 (load 0.7 x total capacity 16 over 4 vertices) "
            ^ "exceeds the leaf capacity 1" );
          ("--load 1.5", [ "--load"; "1.5" ], "load factor 1.5 is outside (0, 1]");
        ])

(* Every input file goes through one loader: a path the OS will not read
   (here a directory) is an io error, exit 66, naming the path, whichever
   command and argument reads it. *)
let test_unreadable_inputs_exit_66 () =
  let dir = Filename.temp_dir "hgp_dir" "" in
  let path = Filename.temp_file "hgp_io" ".graph" in
  Fun.protect
    ~finally:(fun () ->
      Sys.rmdir dir;
      Sys.remove path)
    (fun () ->
      let code, _, _ =
        run_cli [ "generate"; "--kind"; "gnp"; "-n"; "60"; "--seed"; "3"; "-o"; path ]
      in
      Alcotest.(check int) "generate exit 0" 0 code;
      List.iter
        (fun args ->
          let what = String.concat " " (List.map (fun a -> if a = dir then "DIR" else a) args) in
          let code, out, err = run_cli args in
          Alcotest.(check int) (what ^ ": exit 66") 66 code;
          Alcotest.(check string) (what ^ ": no stdout") "" out;
          Alcotest.(check bool) (what ^ ": io error naming the path") true
            (find_substring err ("io error on " ^ dir) <> None))
        [
          [ "solve"; dir ];
          [ "solve"; path; "--delta"; dir ];
          [ "batch"; dir ];
          [ "validate"; path; dir ];
        ])

(* A hierarchy too large to build is invalid input (exit 65), refused
   before anything is allocated: as a -H spec and as an instance file's
   hierarchy line, regular (10^10 leaves) or a deep ragged chain. *)
let test_oversized_hierarchy_exit_65 () =
  let expect_65 what args =
    let code, out, err = run_cli args in
    Alcotest.(check int) (what ^ ": exit 65") 65 code;
    Alcotest.(check string) (what ^ ": no stdout") "" out;
    Alcotest.(check bool) (what ^ ": names the limit") true
      (find_substring err "hierarchy too large" <> None)
  in
  expect_65 "describe -H" [ "describe"; "-H"; Test_support.huge_regular_spec ];
  let base = Instance_io.to_string (fixture_instance ()) in
  List.iter
    (fun (what, spec) ->
      let path = Filename.temp_file "hgp_huge" ".hgp" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          String.split_on_char '\n' base
          |> List.map (fun l ->
                 if String.starts_with ~prefix:"hierarchy " l then "hierarchy " ^ spec else l)
          |> String.concat "\n" |> write_file path;
          expect_65 what [ "solve"; path ]))
    [
      ("instance, regular spec", Test_support.huge_regular_spec);
      ("instance, ragged chain", Test_support.deep_chain_spec ());
    ]

(* [validate]'s assignment reader: a malformed field or a vertex the
   instance lacks is a parse error naming the line (exit 65); a leaf out of
   range is the certificate's to report (incomplete, exit 1). *)
let test_validate_bad_assignment () =
  let path = Filename.temp_file "hgp_val" ".graph" in
  let assignment = Filename.temp_file "hgp_val" ".assign" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove assignment)
    (fun () ->
      let code, _, _ =
        run_cli [ "generate"; "--kind"; "gnp"; "-n"; "60"; "--seed"; "3"; "-o"; path ]
      in
      Alcotest.(check int) "generate exit 0" 0 code;
      List.iter
        (fun (text, line) ->
          write_file assignment text;
          let code, _, err = run_cli [ "validate"; path; assignment ] in
          Alcotest.(check int) (String.escaped text ^ ": exit 65") 65 code;
          Alcotest.(check bool) (String.escaped text ^ ": parse error naming the line") true
            (find_substring err (Printf.sprintf "parse error at line %d (assignment)" line)
            <> None))
        [ ("0 x\n", 1); ("# header\n0 1\n999 2\n", 3) ];
      write_file assignment "0 999\n";
      let code, out, _ = run_cli [ "validate"; path; assignment ] in
      Alcotest.(check int) "leaf out of range: exit 1" 1 code;
      Alcotest.(check bool) "leaf out of range: incomplete" true
        (find_substring out "assignment complete : false" <> None))

let test_batch_response_schema () =
  with_fixture_file @@ fun inst ->
  let req ~id ~seed = Protocol.request ~id ~trees:2 ~seed (Protocol.Path inst) in
  let requests =
    [
      Protocol.request_to_line (req ~id:"a1" ~seed:11);
      Protocol.request_to_line (req ~id:"a2" ~seed:11);
      Protocol.request_to_line (req ~id:"b1" ~seed:12);
      Protocol.request_to_line (req ~id:"a3" ~seed:11);
      "this line is not json";
      Protocol.request_to_line (req ~id:"c1" ~seed:13);
    ]
  in
  let reqfile = Filename.temp_file "hgp_golden_reqs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove reqfile)
    (fun () ->
      write_file reqfile (String.concat "\n" requests ^ "\n");
      let code, out, err =
        run_cli
          [
            "batch"; reqfile; "--workers"; "2"; "--queue-limit"; "4"; "--server-stats";
          ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      check_golden "batch_responses" (normalize_batch_stdout out);
      check_golden "batch_server_stats" (normalize_server_stats err))

(* Updates through the CLI: one window holds an update submitted before the
   solve that opens its session and one after it (both answered "updated",
   in submission order), an update to an unknown session (invalid-input)
   and a malformed delta (rejected at admission as a parse error). *)
let test_batch_updates_schema () =
  with_fixture_file @@ fun inst ->
  let u, v, w = (Hgp_graph.Graph.edges (fixture_instance ()).Instance.graph).(0) in
  let delta k = Hgp_core.Delta.to_string [ Hgp_core.Delta.Reweight_edge (u, v, w *. k) ] in
  let update ~id ~session d = Protocol.update_to_line (Protocol.update_request ~id ~session d) in
  let requests =
    [
      update ~id:"u-before" ~session:"s1" (delta 2.);
      Protocol.request_to_line
        (Protocol.request ~id:"open" ~trees:2 ~seed:11 ~session:"s1" (Protocol.Path inst));
      update ~id:"u-after" ~session:"s1" (delta 5.);
      update ~id:"u-unknown" ~session:"s9" (delta 3.);
      update ~id:"u-bad" ~session:"s1" "not a delta";
    ]
  in
  let reqfile = Filename.temp_file "hgp_golden_upds" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove reqfile)
    (fun () ->
      write_file reqfile (String.concat "\n" requests ^ "\n");
      let code, out, err =
        run_cli [ "batch"; reqfile; "--workers"; "2"; "--server-stats" ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      check_golden "batch_updates_responses" (normalize_batch_stdout out);
      check_golden "batch_updates_server_stats" (normalize_server_stats err))

let () =
  Alcotest.run "golden"
    [
      ( "schemas",
        [
          Alcotest.test_case "--cache-stats" `Quick test_cache_stats_schema;
          Alcotest.test_case "--metrics=json" `Quick test_metrics_json_schema;
          Alcotest.test_case "--multilevel" `Quick test_multilevel_schema;
          Alcotest.test_case "--multilevel-refine=fm" `Quick
            test_multilevel_fm_schema;
          Alcotest.test_case "batch responses" `Quick test_batch_response_schema;
          Alcotest.test_case "batch updates" `Quick test_batch_updates_schema;
        ] );
      ( "cli",
        [
          Alcotest.test_case "--multilevel clamp note follows the coarse solve" `Quick
            test_multilevel_clamp_note;
          Alcotest.test_case "disconnecting --delta is certified" `Quick
            test_disconnecting_delta_certified;
          Alcotest.test_case "METIS isolated vertices; truncated file exits 65" `Quick
            test_metis_isolated_and_truncated;
          Alcotest.test_case "--multilevel honours --deadline-ms" `Quick
            test_multilevel_deadline_exit_75;
          Alcotest.test_case "two disjoint triangles" `Quick test_disconnected_task_graph;
          Alcotest.test_case "unreadable inputs exit 66" `Quick test_unreadable_inputs_exit_66;
          Alcotest.test_case "oversized hierarchy exits 65" `Quick
            test_oversized_hierarchy_exit_65;
          Alcotest.test_case "validate: bad assignment lines exit 65" `Quick
            test_validate_bad_assignment;
        ] );
    ]
