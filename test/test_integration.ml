(* End-to-end integration: every workload preset x several hierarchies runs
   through the full pipeline and the result is independently certified. *)

module H = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Solver = Hgp_core.Solver
module Verify = Hgp_core.Verify
module Prng = Hgp_util.Prng

let hierarchies =
  [
    ("flat8", H.Presets.flat ~k:8);
    ("dual_socket", H.Presets.dual_socket);
    ("uniform-3x3", H.Presets.uniform ~branching:3 ~height:2);
    (* Heterogeneous fleets: irregular fan-out, per-leaf capacities,
       per-subtree multipliers. *)
    ("ragged_rack", H.Presets.ragged_rack);
    ("gpu_cpu_tier", H.Presets.gpu_cpu_tier);
  ]

let pipeline_case (spec : Hgp_workloads.Presets.spec) (hname, hy) () =
  let rng = Prng.create 4242 in
  let inst = spec.build rng hy in
  let sol =
    Solver.solve ~options:{ Solver.default_options with ensemble_size = 2; seed = 9 } inst
  in
  let r = Verify.certify inst sol.assignment ~eps:1.0 in
  Alcotest.(check bool) (hname ^ " complete") true r.assignment_complete;
  Alcotest.(check bool) (hname ^ " lemma2") true (r.lemma2_gap < 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "%s within Theorem 1 bound (got %.3f vs %.2f)" hname r.max_violation
       r.theorem_bound)
    true r.within_theorem_bound;
  Test_support.check_close (hname ^ " cost matches") sol.cost r.cost_eq1

let pipeline_tests =
  List.concat_map
    (fun (spec : Hgp_workloads.Presets.spec) ->
      List.map
        (fun hpair ->
          Alcotest.test_case
            (Printf.sprintf "%s on %s" spec.name (fst hpair))
            `Slow (pipeline_case spec hpair))
        hierarchies)
    Hgp_workloads.Presets.full_suite

(* The whole toolchain on one instance: serialize, reload, solve, refine,
   repair, certify, simulate. *)
let test_full_toolchain () =
  let rng = Prng.create 777 in
  let hy = H.Presets.dual_socket in
  let w =
    Hgp_workloads.Stream_dag.generate rng
      { Hgp_workloads.Stream_dag.default_params with n_sources = 6; pipeline_depth = 4 }
  in
  let inst = Hgp_workloads.Stream_dag.to_instance w hy ~load_factor:0.5 in
  (* Round-trip through the instance file format. *)
  let inst = Hgp_core.Instance_io.of_string (Hgp_core.Instance_io.to_string inst) in
  let sol = Solver.solve ~options:{ Solver.default_options with ensemble_size = 2 } inst in
  let repaired, _ = Hgp_baselines.Local_search.repair inst sol.assignment ~slack:1.3 in
  let refined, stats =
    Hgp_baselines.Local_search.refine inst repaired ~slack:1.3 ~max_passes:4
  in
  Alcotest.(check bool) "refinement not worse" true
    (stats.final_cost <= stats.initial_cost +. 1e-9);
  let r = Verify.certify inst refined ~eps:1.0 in
  Alcotest.(check bool) "certified" true
    (r.assignment_complete && r.within_theorem_bound);
  (* And it actually executes. *)
  let sim = Hgp_workloads.Stream_dag.to_sim_workload w ~demands:inst.demands in
  let m =
    Hgp_sim.Des.run sim hy ~assignment:refined
      { Hgp_sim.Des.default_config with duration = 5.0; warmup = 1.0; load = 0.5 }
  in
  Alcotest.(check bool) "tuples delivered" true (m.completed > 0)

let () =
  Alcotest.run "integration"
    [
      ("pipeline", pipeline_tests);
      ( "toolchain",
        [
          Alcotest.test_case "full toolchain" `Slow test_full_toolchain;
        ] );
    ]
