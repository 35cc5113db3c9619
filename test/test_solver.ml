module Graph = Hgp_graph.Graph
module Gen = Hgp_graph.Generators
module H = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Cost = Hgp_core.Cost
module Solver = Hgp_core.Solver
module Feasible = Hgp_core.Feasible
module Tree = Hgp_tree.Tree
module Prng = Hgp_util.Prng

let default = Solver.default_options

let small_hierarchy () = H.create ~degs:[| 2; 2 |] ~cm:[| 10.; 3.; 0. |] ~leaf_capacity:1.0

let test_end_to_end_valid () =
  let rng = Prng.create 1 in
  let g = Gen.gnp_connected rng 20 0.25 in
  let inst = Instance.uniform_demands g (small_hierarchy ()) ~load_factor:0.7 in
  let sol = Solver.solve inst in
  Alcotest.(check int) "assignment length" 20 (Array.length sol.assignment);
  Array.iter
    (fun l -> Alcotest.(check bool) "in range" true (l >= 0 && l < 4))
    sol.assignment;
  Test_support.check_close "cost recomputes" (Cost.assignment_cost inst sol.assignment)
    sol.cost;
  let h = H.height inst.hierarchy in
  Alcotest.(check bool) "violation within Theorem 1 bound" true
    (sol.max_violation
    <= Feasible.theoretical_violation_bound ~h ~eps:default.Solver.eps +. 0.2)

let test_deterministic () =
  let rng = Prng.create 2 in
  let g = Gen.grid2d ~rows:4 ~cols:4 in
  ignore rng;
  let inst = Instance.uniform_demands g (small_hierarchy ()) ~load_factor:0.8 in
  let s1 = Solver.solve inst and s2 = Solver.solve inst in
  Alcotest.(check (array int)) "same assignment" s1.assignment s2.assignment;
  Test_support.check_close "same cost" s1.cost s2.cost

let test_seed_changes_ensemble () =
  let g = Gen.grid2d ~rows:4 ~cols:4 in
  let inst = Instance.uniform_demands g (small_hierarchy ()) ~load_factor:0.8 in
  let s1 = Solver.solve ~options:{ default with seed = 1 } inst in
  let s2 = Solver.solve ~options:{ default with seed = 99 } inst in
  (* Different ensembles may agree on the solution but both must be valid. *)
  Alcotest.(check bool) "both valid" true
    (Array.length s1.assignment = 16 && Array.length s2.assignment = 16)

let test_flat_hierarchy_is_kbgp () =
  (* On a flat hierarchy the problem degenerates to k-BGP; the solver must
     produce a valid partition whose cost equals cm(0) * (flat cut). *)
  let rng = Prng.create 3 in
  let g = Gen.gnp_connected rng 12 0.4 in
  let hy = H.Presets.flat ~k:4 in
  let inst = Instance.uniform_demands g hy ~load_factor:0.9 in
  let sol = Solver.solve inst in
  let cut = Hgp_graph.Cuts.kway_cut g sol.assignment in
  Test_support.check_close "cost = flat cut" cut sol.cost

let test_single_leaf_everything_together () =
  let g = Gen.path 4 in
  let hy = H.create ~degs:[||] ~cm:[| 0. |] ~leaf_capacity:4.0 in
  let inst = Instance.uniform_demands g hy ~load_factor:0.9 in
  let sol = Solver.solve inst in
  Alcotest.(check (array int)) "all on the one leaf" [| 0; 0; 0; 0 |] sol.assignment;
  Test_support.check_close "zero cost" 0. sol.cost

let test_infeasible_raises () =
  (* Demands sum far over capacity after quantization.  The solver must
     surface a structured [Infeasible] error with [retried = true]: the
     higher-resolution retry ran and could not help, because the overload is
     real rather than a rounding artifact. *)
  let g = Gen.path 6 in
  let hy = H.create ~degs:[| 2 |] ~cm:[| 1.; 0. |] ~leaf_capacity:1.0 in
  Alcotest.(check bool) "rejected with a structured Infeasible error" true
    (try
       let inst = Instance.create g ~demands:(Array.make 6 0.9) hy in
       ignore (Solver.solve inst);
       false
     with
    | Hgp_resilience.Hgp_error.Error (Hgp_resilience.Hgp_error.Infeasible { retried; _ })
      -> retried
    | Invalid_argument _ -> true)

(* ---- differential tests against Hgp_baselines.Brute_force ---- *)

(* Exhaustive tiny instances: every labeled connected graph on [n] vertices
   (unit weights), n <= 5, against hierarchies of height 1 and 2.  The
   solver's cost must stay within the (1+eps)(1+h) factor of the exact
   optimum (on these instances the tree embedding is near-lossless, so the
   Theorem-1 violation budget is the binding slack). *)
let differential_factor ~eps ~h = (1. +. eps) *. (1. +. float_of_int h)

let check_vs_brute_force inst ~options ~label =
  match Hgp_baselines.Brute_force.exact inst ~slack:1.0 with
  | None -> () (* strictly infeasible: nothing to compare against *)
  | Some (_, opt) ->
    let sol = Solver.solve ~options inst in
    let h = H.height inst.Instance.hierarchy in
    let factor = differential_factor ~eps:options.Solver.eps ~h in
    if opt <= 1e-9 then
      Alcotest.(check bool) (label ^ ": zero-opt means zero-cost") true
        (sol.Solver.cost <= 1e-6)
    else if sol.Solver.cost > (factor *. opt) +. 1e-6 then
      Alcotest.failf "%s: cost %.6g exceeds %.3g x optimum %.6g" label sol.Solver.cost
        factor opt

let test_differential_exhaustive () =
  let hierarchies =
    [ ("flat2", H.Presets.flat ~k:2); ("2x2", small_hierarchy ()) ]
  in
  for n = 3 to 5 do
    let pairs = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        pairs := (u, v) :: !pairs
      done
    done;
    let pairs = Array.of_list (List.rev !pairs) in
    let m = Array.length pairs in
    for mask = 0 to (1 lsl m) - 1 do
      let edges = ref [] in
      Array.iteri
        (fun i (u, v) -> if mask land (1 lsl i) <> 0 then edges := (u, v, 1.) :: !edges)
        pairs;
      let g = Graph.of_edges n !edges in
      if Hgp_graph.Traversal.is_connected g then
        List.iter
          (fun (hname, hy) ->
            let inst = Instance.uniform_demands g hy ~load_factor:0.6 in
            let options = { default with ensemble_size = 3; seed = 7 } in
            check_vs_brute_force inst ~options
              ~label:(Printf.sprintf "n=%d mask=%d %s" n mask hname))
          hierarchies
    done
  done

(* Seeded regressions: one fixed instance per ensemble strategy; each must be
   deterministic and stay within the differential factor of the optimum. *)
let test_differential_strategies () =
  let rng = Prng.create 1234 in
  let g = Gen.gnp_connected rng 7 0.45 in
  let g = Gen.randomize_weights rng g ~lo:1.0 ~hi:5.0 in
  List.iter
    (fun strategy ->
      let label = "strategy " ^ Hgp_racke.Ensemble.strategy_name strategy in
      List.iter
        (fun (hname, hy) ->
          let inst = Instance.uniform_demands g hy ~load_factor:0.6 in
          let options = { default with strategy; ensemble_size = 3; seed = 99 } in
          check_vs_brute_force inst ~options ~label:(label ^ " " ^ hname);
          let s1 = Solver.solve ~options inst and s2 = Solver.solve ~options inst in
          Alcotest.(check (array int)) (label ^ ": deterministic") s1.Solver.assignment
            s2.Solver.assignment)
        [ ("flat2", H.Presets.flat ~k:2); ("2x2", small_hierarchy ()) ])
    Hgp_racke.Ensemble.
      [
        Pure Hgp_racke.Decomposition.Low_diameter;
        Pure Hgp_racke.Decomposition.Bfs_bisection;
        Pure Hgp_racke.Decomposition.Gomory_hu;
        Mixed;
      ]

(* On tiny instances: solver cost must be sandwiched between the exact
   optimum (it cannot beat it by more than the capacity slack it enjoys)
   and a big multiple of it. *)
let prop_vs_exact =
  Test_support.qtest ~count:25 "within a sane factor of the exact optimum"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 6 9))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Gen.gnp_connected rng n 0.45 in
      let g = Gen.randomize_weights rng g ~lo:1.0 ~hi:5.0 in
      let hy = small_hierarchy () in
      let inst = Instance.uniform_demands g hy ~load_factor:0.6 in
      match Hgp_baselines.Brute_force.exact inst ~slack:1.0 with
      | None -> true
      | Some (_, opt) ->
        let sol = Solver.solve inst in
        (* The solver may use its violation slack, so allow sub-optimal
           capacity trades; cost must stay within a generous factor. *)
        opt <= 1e-9 || (sol.cost <= 25. *. opt +. 1e-6))

let test_solve_tree_optimality () =
  (* HGPT: the relaxed DP cost lower-bounds the exact tree optimum
     (Theorem 2's cost-optimality) and the final cost is never below it
     minus numerical noise... the final assignment cost can actually beat
     the relaxed bound only through capacity violation; check both
     directions loosely and the violation bound strictly. *)
  let rng = Prng.create 7 in
  for _ = 1 to 10 do
    let n = 4 + Prng.int rng 4 in
    let g = Gen.random_tree rng n in
    let g = Gen.randomize_weights rng g ~lo:1.0 ~hi:9.0 in
    let t = Tree.of_graph g ~root:0 in
    let hy = small_hierarchy () in
    let demands = Array.init n (fun _ -> 0.25 +. Prng.float rng 0.5) in
    let options = { default with resolution = Some 8 } in
    let assignment, cost, relaxed, violation = Solver.solve_tree t ~demands hy ~options in
    Alcotest.(check int) "all nodes assigned" n (Array.length assignment);
    Alcotest.(check bool) "violation bounded" true
      (violation <= Feasible.theoretical_violation_bound ~h:2 ~eps:1.0);
    (* Conversion never increases cost over the relaxed solution. *)
    Alcotest.(check bool) "cost <= relaxed" true (cost <= relaxed +. 1e-6)
  done

let test_solve_on_decomposition () =
  let rng = Prng.create 11 in
  let g = Gen.grid2d ~rows:3 ~cols:4 in
  let d = Hgp_racke.Decomposition.build rng g in
  let inst = Instance.uniform_demands g (small_hierarchy ()) ~load_factor:0.7 in
  let sol = Solver.solve_on_decomposition inst d ~options:default in
  Alcotest.(check bool) "valid" true
    (Array.for_all (fun l -> l >= 0 && l < 4) sol.assignment)

let test_all_strategies_valid () =
  let rng = Prng.create 21 in
  let g = Gen.gnp_connected rng 18 0.3 in
  let inst = Instance.uniform_demands g (small_hierarchy ()) ~load_factor:0.7 in
  List.iter
    (fun strategy ->
      let sol =
        Solver.solve ~options:{ default with strategy; ensemble_size = 2 } inst
      in
      Alcotest.(check bool) "valid assignment" true
        (Array.for_all (fun l -> l >= 0 && l < 4) sol.assignment);
      Test_support.check_close "cost recomputes"
        (Cost.assignment_cost inst sol.assignment)
        sol.cost)
    Hgp_racke.Ensemble.
      [
        Pure Hgp_racke.Decomposition.Low_diameter;
        Pure Hgp_racke.Decomposition.Bfs_bisection;
        Pure Hgp_racke.Decomposition.Gomory_hu;
        Mixed;
      ]

let test_ceil_rounding_mode () =
  let rng = Prng.create 22 in
  let g = Gen.gnp_connected rng 12 0.35 in
  let inst = Instance.uniform_demands g (small_hierarchy ()) ~load_factor:0.5 in
  let sol =
    Solver.solve ~options:{ default with rounding = Hgp_core.Demand.Ceil } inst
  in
  (* Ceil rounding over-counts demand, so the real violation stays low. *)
  Alcotest.(check bool) "low violation under ceil" true (sol.max_violation <= 1.0 +. 0.05)

let test_resolution_adapts_to_tiny_demands () =
  (* Many tiny jobs: the default resolution must keep them above zero units
     rather than collapsing everything into one leaf. *)
  let rng = Prng.create 23 in
  let g = Gen.gnp_connected rng 60 0.1 in
  let hy = small_hierarchy () in
  let inst = Instance.uniform_demands g hy ~load_factor:0.6 in
  (* demand per job = 0.04: at 24 units/leaf this would floor to 0. *)
  let sol = Solver.solve ~options:{ default with ensemble_size = 2 } inst in
  Alcotest.(check bool) "violation stays bounded" true (sol.max_violation <= 1.3)

let test_parallel_matches_sequential () =
  (* The pooled relax runs the trees on every core; a plain per-tree loop
     must give the same answer. *)
  let rng = Prng.create 25 in
  let g = Gen.gnp_connected rng 20 0.3 in
  let inst = Instance.uniform_demands g (small_hierarchy ()) ~load_factor:0.7 in
  let options = { default with ensemble_size = 3 } in
  let pooled = Solver.solve ~options inst in
  match
    Test_support.per_tree_solve inst (Test_support.ensemble_of inst ~options) ~options
  with
  | None -> Alcotest.fail "per-tree loop found no feasible tree"
  | Some looped ->
    Alcotest.(check (array int)) "same assignment" looped.assignment pooled.assignment;
    Test_support.check_close "same cost" looped.cost pooled.cost

let test_bucketing_end_to_end () =
  let rng = Prng.create 24 in
  let g = Gen.gnp_connected rng 16 0.3 in
  let inst = Instance.uniform_demands g (small_hierarchy ()) ~load_factor:0.6 in
  let sol = Solver.solve ~options:{ default with bucketing = Some 0.25 } inst in
  Alcotest.(check bool) "completes and assigns" true
    (Array.for_all (fun l -> l >= 0 && l < 4) sol.assignment)

let () =
  Alcotest.run "solver"
    [
      ( "unit",
        [
          Alcotest.test_case "end to end" `Quick test_end_to_end_valid;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seed variation" `Quick test_seed_changes_ensemble;
          Alcotest.test_case "flat = k-BGP" `Quick test_flat_hierarchy_is_kbgp;
          Alcotest.test_case "single leaf" `Quick test_single_leaf_everything_together;
          Alcotest.test_case "infeasible" `Quick test_infeasible_raises;
          Alcotest.test_case "solve_tree" `Quick test_solve_tree_optimality;
          Alcotest.test_case "solve on decomposition" `Quick test_solve_on_decomposition;
          Alcotest.test_case "all strategies" `Quick test_all_strategies_valid;
          Alcotest.test_case "ceil rounding" `Quick test_ceil_rounding_mode;
          Alcotest.test_case "tiny demands resolution" `Quick test_resolution_adapts_to_tiny_demands;
          Alcotest.test_case "bucketing end to end" `Quick test_bucketing_end_to_end;
          Alcotest.test_case "parallel = sequential" `Quick test_parallel_matches_sequential;
        ] );
      ( "differential",
        [
          Alcotest.test_case "exhaustive tiny vs brute force" `Quick
            test_differential_exhaustive;
          Alcotest.test_case "per-strategy seeded regressions" `Quick
            test_differential_strategies;
        ] );
      ("property", [ prop_vs_exact ]);
    ]
