(* Resilience subsystem: error taxonomy, deadlines, fault injection, and the
   supervised solve's isolation + degradation ladder (docs/ROBUSTNESS.md).

   The fault-matrix test is the headline: every known site crossed with every
   action must end in either a certified assignment or one structured error —
   never an uncaught exception, never a hung domain. *)

module E = Hgp_resilience.Hgp_error
module Deadline = Hgp_resilience.Deadline
module Faults = Hgp_resilience.Faults
module Gen = Hgp_graph.Generators
module H = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Instance_io = Hgp_core.Instance_io
module Demand = Hgp_core.Demand
module Solver = Hgp_core.Solver
module Verify = Hgp_core.Verify
module B = Hgp_baselines
module Prng = Hgp_util.Prng
module Obs = Hgp_obs.Obs

(* ---- shared fixtures ---- *)

let mk_instance ?(n = 32) seed =
  let rng = Prng.create seed in
  let g = Gen.gnp_connected rng n (6.0 /. float_of_int n) in
  Instance.uniform_demands g H.Presets.dual_socket ~load_factor:0.6

(* The same ladder the CLI installs: refined heuristics below the pipeline. *)
let fallbacks seed =
  [
    ( "portfolio",
      fun inst ->
        (B.Portfolio.solve ~include_hgp:false (Prng.create seed) inst ~slack:1.25
           ~refine_passes:1)
          .best.B.Portfolio.assignment );
    ( "recursive-bisection",
      fun inst -> B.Recursive_bisection.assign (Prng.create seed) inst ~slack:1.25 );
  ]

let plan s =
  match Faults.parse s with
  | Ok p -> p
  | Error m -> Alcotest.failf "plan %S rejected: %s" s m

(* ---- taxonomy ---- *)

let all_errors : E.t list =
  [
    E.Parse { line = Some 3; context = "demands"; msg = "bad token" };
    E.Io_error { path = "/nope"; msg = "missing" };
    E.Invalid_input { context = "csr.of_arrays"; msg = "dangling endpoint" };
    E.Infeasible { resolution = 8; retried = true; msg = "overloaded" };
    E.Deadline_exceeded { budget_ms = 50.; elapsed_ms = 51.; stage = "tree_dp" };
    E.Tree_failure { tree_index = 2; stage = "dp"; msg = "boom" };
    E.Fault_injected { site = "feasible.pack"; msg = "armed" };
    E.Internal { stage = "ensemble"; msg = "surprise" };
  ]

let test_labels_and_exit_codes () =
  Alcotest.(check (list string))
    "labels"
    [ "parse"; "io"; "invalid-input"; "infeasible"; "deadline"; "tree-failure";
      "fault"; "internal" ]
    (List.map E.label all_errors);
  Alcotest.(check (list int))
    "exit codes" [ 65; 66; 65; 69; 75; 70; 70; 70 ]
    (List.map E.exit_code all_errors)

let test_rendering () =
  List.iter
    (fun e ->
      let s = E.to_string e in
      Alcotest.(check bool) "labelled message" true (String.length s > 0);
      (* The registered printer must render payloads, not a bare
         constructor name. *)
      let p = Printexc.to_string (E.Error e) in
      Alcotest.(check string) "printer used"
        (Printf.sprintf "Hgp_error.Error (%s)" s)
        p)
    all_errors;
  Alcotest.(check bool) "message_of_exn keeps the payload" true
    (E.message_of_exn (Failure "quantize blew up")
     |> String.split_on_char ' '
     |> List.exists (fun w -> w = "quantize"))

(* ---- deadlines ---- *)

let test_deadline_basics () =
  Alcotest.(check bool) "none never expires" false (Deadline.expired Deadline.none);
  Deadline.check Deadline.none ~stage:"unit";
  Alcotest.(check (option (float 0.)))
    "none has no budget" None
    (Deadline.budget_ms Deadline.none);
  let t = Deadline.of_ms 1e9 in
  Alcotest.(check bool) "fresh token live" false (Deadline.expired t);
  Alcotest.(check bool) "elapsed nonnegative" true (Deadline.elapsed_ms t >= 0.);
  (match Deadline.remaining_ms t with
  | Some r -> Alcotest.(check bool) "remaining positive" true (r > 0.)
  | None -> Alcotest.fail "budgeted token reported no remaining time");
  Deadline.cancel t;
  Alcotest.(check bool) "cancel trips" true
    (Deadline.cancelled t && Deadline.expired t);
  let z = Deadline.of_ms 0. in
  Alcotest.(check bool) "zero budget expires at once" true (Deadline.expired z);
  match Deadline.check z ~stage:"unit-test" with
  | () -> Alcotest.fail "check on an expired token did not raise"
  | exception E.Error (E.Deadline_exceeded { stage; budget_ms; _ }) ->
    Alcotest.(check string) "stage recorded" "unit-test" stage;
    Alcotest.(check (float 1e-9)) "budget recorded" 0. budget_ms

let test_deadline_tick_stride () =
  let z = Deadline.of_ms 0. in
  let count = ref 0 in
  (* mask 3: the clock is consulted only when the incremented count hits a
     multiple of 4, so three ticks pass even on an expired token. *)
  for _ = 1 to 3 do
    Deadline.tick z ~stage:"stride" ~count ~mask:3
  done;
  Alcotest.(check int) "counted" 3 !count;
  match Deadline.tick z ~stage:"stride" ~count ~mask:3 with
  | () -> Alcotest.fail "4th tick did not check"
  | exception E.Error (E.Deadline_exceeded _) -> ()

(* ---- fault plans ---- *)

let test_plan_parse () =
  let p = plan "seed=9;decomposition.build=crash@2;tree_dp.solve=delay:1.5" in
  Alcotest.(check int) "seed" 9 p.Faults.seed;
  (match p.Faults.sites with
  | [ a; b ] ->
    Alcotest.(check string) "site a" "decomposition.build" a.Faults.site;
    Alcotest.(check bool) "action a" true (a.Faults.action = Faults.Crash);
    Alcotest.(check (option int)) "nth a" (Some 2) a.Faults.nth;
    Alcotest.(check bool) "action b" true (b.Faults.action = Faults.Delay_ms 1.5);
    Alcotest.(check (option int)) "nth b" None b.Faults.nth
  | sites -> Alcotest.failf "expected 2 sites, got %d" (List.length sites));
  List.iter
    (fun bad ->
      match Faults.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed plan %S" bad
      | Error _ -> ())
    [
      "";
      "unknown.site=crash";
      "tree_dp.solve=explode";
      "tree_dp.solve=crash@x";
      "tree_dp.solve=delay:abc";
      "seed=notanint";
    ]

let test_with_plan_restores () =
  Faults.disarm ();
  let p = plan "seed=1;feasible.pack=crash" in
  (try
     Faults.with_plan p (fun () ->
         Alcotest.(check bool) "armed inside" true (Faults.armed () <> None);
         raise Exit)
   with Exit -> ());
  Alcotest.(check bool) "disarmed after an exception" true (Faults.armed () = None)

let test_fire_nth_and_counter () =
  Obs.enable ();
  Faults.with_plan
    (plan "seed=5;tree_dp.solve=crash@2")
    (fun () ->
      Faults.fire "tree_dp.solve" (* hit 1: armed for hit 2 only *);
      let before = Obs.counter_value "faults.fired.tree_dp.solve" in
      (match Faults.fire "tree_dp.solve" with
      | () -> Alcotest.fail "2nd hit did not crash"
      | exception E.Error (E.Fault_injected { site; _ }) ->
        Alcotest.(check string) "site in payload" "tree_dp.solve" site);
      Alcotest.(check bool) "telemetry bumped" true
        (Obs.counter_value "faults.fired.tree_dp.solve" > before);
      Faults.fire "tree_dp.solve" (* hit 3: disarmed again *))

let test_corrupt_index_deterministic () =
  let p = plan "seed=5;feasible.pack=corrupt" in
  let pick () = Faults.with_plan p (fun () -> Faults.corrupt_index "feasible.pack" ~len:10) in
  let i1 = pick () and i2 = pick () in
  Alcotest.(check bool) "same plan, same index" true (i1 = i2);
  (match i1 with
  | Some i -> Alcotest.(check bool) "in range" true (i >= 0 && i < 10)
  | None -> Alcotest.fail "corrupt plan produced no index");
  Alcotest.(check bool) "inert when disarmed" true
    (Faults.corrupt_index "feasible.pack" ~len:10 = None)

(* ---- instance IO errors ---- *)

let test_parse_errors_carry_lines () =
  let expect_parse text ~pred =
    match Instance_io.of_string text with
    | _ -> Alcotest.failf "accepted malformed input %S" text
    | exception E.Error (E.Parse { line; context; _ }) ->
      if not (pred line context) then
        Alcotest.failf "wrong location for %S: line=%s context=%s" text
          (match line with None -> "?" | Some l -> string_of_int l)
          context
  in
  (* A demand that is not a number: the error names the demands line. *)
  expect_parse "hierarchy 2@1,0 capacity 1\ndemands 0.5 oops\ngraph\n2 1\n2\n1\n"
    ~pred:(fun line ctx -> line = Some 2 && ctx = "demands");
  (* A broken graph edge line is located inside the graph section. *)
  expect_parse "hierarchy 2@1,0 capacity 1\ndemands 0.5 0.5\ngraph\n2 1\n2\nnope\n"
    ~pred:(fun line ctx -> (match line with Some l -> l >= 3 | None -> false) && ctx = "graph");
  (* Missing sections still produce a Parse with a section context. *)
  expect_parse "" ~pred:(fun _ ctx -> String.length ctx > 0);
  expect_parse "demands 0.5 0.5\ngraph\n2 1\n2\n1\n" ~pred:(fun _ _ -> true)

let test_load_missing_file_is_io_error () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "hgp-no-such-file.hgp" in
  match Instance_io.load path with
  | _ -> Alcotest.fail "loaded a nonexistent file"
  | exception E.Error (E.Io_error { path = p; _ }) ->
    Alcotest.(check string) "path in payload" path p

(* ---- resolution retry ---- *)

let test_retry_rescues_ceil_overshoot () =
  (* 4 jobs of 0.5 on 2 unit leaves.  At resolution 1 with Ceil each job
     rounds up to a whole leaf (4 needed, 2 exist) — spuriously infeasible.
     [Solver.solve] must retry once at 4x resolution with Floor and pack
     two jobs per leaf. *)
  let g = Gen.path 4 in
  let hy = H.create ~degs:[| 2 |] ~cm:[| 1.; 0. |] ~leaf_capacity:1.0 in
  let inst = Instance.create g ~demands:(Array.make 4 0.5) hy in
  let options =
    { Solver.default_options with
      ensemble_size = 1; seed = 2; resolution = Some 1; rounding = Demand.Ceil }
  in
  let sol = Solver.solve ~options inst in
  let report = Verify.certify inst sol.assignment ~eps:0.25 in
  Alcotest.(check bool) "complete after retry" true report.Verify.assignment_complete;
  Test_support.check_close "perfect balance" 1.0 report.Verify.max_violation

(* ---- supervised solve ---- *)

let supervised ?options ?deadline_ms ?(seed = 7) inst =
  let options =
    match options with
    | Some o -> o
    | None -> { Solver.default_options with ensemble_size = 2; seed }
  in
  Solver.solve_supervised ~options ?deadline_ms ~fallbacks:(fallbacks seed) inst

let test_fault_matrix () =
  let inst = mk_instance 42 in
  List.iter
    (fun site ->
      List.iter
        (fun action ->
          let spec = Printf.sprintf "seed=3;%s=%s" site action in
          match Faults.with_plan (plan spec) (fun () -> supervised inst) with
          | Ok s ->
            if not s.Solver.certificate.Verify.assignment_complete then
              Alcotest.failf "%s: Ok but certificate incomplete" spec;
            if not s.Solver.certificate.Verify.within_theorem_bound then
              Alcotest.failf "%s: Ok but outside the theorem bound" spec
          | Error _ -> () (* a structured error is an acceptable outcome *)
          | exception exn ->
            Alcotest.failf "%s: uncaught %s" spec (Printexc.to_string exn))
        [ "crash"; "delay:1"; "corrupt" ])
    Faults.known_sites

let test_per_tree_isolation () =
  let inst = mk_instance 44 in
  let options = { Solver.default_options with ensemble_size = 4; seed = 11 } in
  match
    Faults.with_plan
      (plan "seed=3;decomposition.build=crash@2")
      (fun () -> supervised ~options ~seed:11 inst)
  with
  | Error e -> Alcotest.failf "supervised failed: %s" (E.to_string e)
  | Ok s ->
    Alcotest.(check string) "survivors win at the top rung" "ensemble" s.Solver.rung;
    Alcotest.(check int) "exactly one tree lost" 1 (List.length s.Solver.tree_failures);
    Alcotest.(check bool) "flagged degraded" true s.Solver.degraded;
    Alcotest.(check bool) "certified" true
      s.Solver.certificate.Verify.assignment_complete

let test_parallel_domain_crash_is_isolated () =
  let inst = mk_instance 43 in
  let options =
    { Solver.default_options with ensemble_size = 3; seed = 9 }
  in
  match
    Faults.with_plan
      (plan "seed=3;tree_dp.solve=crash@2")
      (fun () -> supervised ~options ~seed:9 inst)
  with
  | Error e -> Alcotest.failf "supervised failed: %s" (E.to_string e)
  | Ok s ->
    Alcotest.(check bool) "at least one member lost" true
      (List.length s.Solver.tree_failures >= 1);
    Alcotest.(check bool) "certified on survivors" true
      s.Solver.certificate.Verify.assignment_complete

let test_all_rungs_down_to_fallbacks () =
  (* Crashing every decomposition build kills the ensemble AND the reduced
     rung; the heuristic fallbacks must still produce a certified answer. *)
  let inst = mk_instance 42 in
  match
    Faults.with_plan
      (plan "seed=3;decomposition.build=crash")
      (fun () -> supervised inst)
  with
  | Error e -> Alcotest.failf "ladder bottomed out: %s" (E.to_string e)
  | Ok s ->
    Alcotest.(check string) "portfolio rung wins" "portfolio" s.Solver.rung;
    Alcotest.(check bool) "degraded" true s.Solver.degraded;
    Alcotest.(check bool) "rungs descend in order" true
      (s.Solver.rungs_tried = [ "ensemble"; "reduced"; "portfolio" ])

let test_deadline_returns_promptly () =
  let rng = Prng.create 46 in
  let g = Gen.gnp_connected rng 300 0.02 in
  let inst = Instance.uniform_demands g H.Presets.dual_socket ~load_factor:0.7 in
  let options = { Solver.default_options with ensemble_size = 4; seed = 5 } in
  let t0 = Obs.now_ns () in
  match supervised ~options ~deadline_ms:50. ~seed:5 inst with
  | Error e -> Alcotest.failf "deadline solve failed: %s" (E.to_string e)
  | Ok s ->
    let elapsed_ms = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e6 in
    (* n=300 takes seconds unconstrained; a generous multiple of the 50ms
       budget keeps the assertion meaningful without CI flakiness. *)
    Alcotest.(check bool)
      (Printf.sprintf "returned in %.0fms" elapsed_ms)
      true (elapsed_ms < 2500.);
    Alcotest.(check bool) "winning rung was tried" true
      (List.mem s.Solver.rung s.Solver.rungs_tried);
    Alcotest.(check bool) "certified" true
      s.Solver.certificate.Verify.assignment_complete

(* ---- chaos profile (CI) ---- *)

(* Inert unless HGP_FAULT_PLAN is exported (the CI chaos job does); then the
   supervised solve must hold the same certified-or-structured contract
   under whatever profile the environment armed. *)
let test_chaos_profile_from_env () =
  match Sys.getenv_opt Faults.env_var with
  | None | Some "" -> ()
  | Some spec -> (
    let inst = mk_instance 45 in
    match Faults.with_plan (plan spec) (fun () -> supervised ~seed:3 inst) with
    | Ok s ->
      Alcotest.(check bool) "certified under chaos" true
        s.Solver.certificate.Verify.assignment_complete
    | Error _ -> ())

let () =
  Alcotest.run "resilience"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "labels and exit codes" `Quick test_labels_and_exit_codes;
          Alcotest.test_case "rendering" `Quick test_rendering;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "basics" `Quick test_deadline_basics;
          Alcotest.test_case "tick stride" `Quick test_deadline_tick_stride;
        ] );
      ( "faults",
        [
          Alcotest.test_case "plan parsing" `Quick test_plan_parse;
          Alcotest.test_case "with_plan restores" `Quick test_with_plan_restores;
          Alcotest.test_case "fire nth + counter" `Quick test_fire_nth_and_counter;
          Alcotest.test_case "corrupt index deterministic" `Quick
            test_corrupt_index_deterministic;
        ] );
      ( "instance-io",
        [
          Alcotest.test_case "parse errors carry lines" `Quick
            test_parse_errors_carry_lines;
          Alcotest.test_case "missing file is io error" `Quick
            test_load_missing_file_is_io_error;
        ] );
      ( "solver",
        [
          Alcotest.test_case "retry rescues ceil overshoot" `Quick
            test_retry_rescues_ceil_overshoot;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "fault matrix" `Slow test_fault_matrix;
          Alcotest.test_case "per-tree isolation" `Quick test_per_tree_isolation;
          Alcotest.test_case "parallel domain crash" `Quick
            test_parallel_domain_crash_is_isolated;
          Alcotest.test_case "ladder reaches fallbacks" `Quick
            test_all_rungs_down_to_fallbacks;
          Alcotest.test_case "deadline returns promptly" `Slow
            test_deadline_returns_promptly;
          Alcotest.test_case "chaos profile from env" `Quick
            test_chaos_profile_from_env;
        ] );
    ]
