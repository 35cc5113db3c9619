module Graph = Hgp_graph.Graph
module Gen = Hgp_graph.Generators
module H = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Cost = Hgp_core.Cost
module B = Hgp_baselines
module Prng = Hgp_util.Prng
module Fp = Hgp_util.Fingerprint

let hy () = H.create ~degs:[| 2; 2 |] ~cm:[| 10.; 3.; 0. |] ~leaf_capacity:1.0

let mk_instance seed n =
  let rng = Prng.create seed in
  let g = Gen.gnp_connected rng n 0.3 in
  let g = Gen.randomize_weights rng g ~lo:1.0 ~hi:5.0 in
  (Instance.uniform_demands g (hy ()) ~load_factor:0.7, rng)

let test_random_placement_valid () =
  let inst, rng = mk_instance 1 16 in
  let p = B.Placement.random rng inst ~slack:1.2 in
  Alcotest.(check bool) "valid under slack" true (Cost.is_valid inst p ~slack:1.2)

let test_greedy_orders () =
  let inst, _ = mk_instance 2 16 in
  List.iter
    (fun order ->
      let p = B.Placement.greedy inst ~order ~slack:1.2 () in
      Alcotest.(check bool) "valid" true (Cost.is_valid inst p ~slack:1.2))
    [ B.Placement.Heavy_first; B.Placement.Bfs; B.Placement.Demand_first ]

let test_greedy_beats_random_usually () =
  let wins = ref 0 in
  for seed = 1 to 10 do
    let inst, rng = mk_instance seed 20 in
    let r = B.Placement.random rng inst ~slack:1.2 in
    let g = B.Placement.greedy inst ~slack:1.2 () in
    if Cost.assignment_cost inst g <= Cost.assignment_cost inst r then incr wins
  done;
  Alcotest.(check bool) "greedy wins >= 8/10" true (!wins >= 8)

let test_local_search_improves () =
  let inst, rng = mk_instance 3 20 in
  let p = B.Placement.random rng inst ~slack:1.2 in
  let refined, stats = B.Local_search.refine inst p ~slack:1.2 ~max_passes:10 in
  Alcotest.(check bool) "never worse" true (stats.final_cost <= stats.initial_cost +. 1e-9);
  Test_support.check_close "final cost recomputes" (Cost.assignment_cost inst refined)
    stats.final_cost;
  Alcotest.(check bool) "still valid" true (Cost.is_valid inst refined ~slack:1.2);
  (* Input not mutated. *)
  Test_support.check_close "input untouched" stats.initial_cost (Cost.assignment_cost inst p)

let test_multilevel_partition () =
  let rng = Prng.create 4 in
  let g = Gen.grid2d ~rows:6 ~cols:6 in
  let demands = Array.make 36 1.0 in
  let r = B.Multilevel.partition rng g ~demands ~k:4 ~capacity:10.0 in
  Alcotest.(check int) "parts length" 36 (Array.length r.parts);
  Array.iter (fun p -> Alcotest.(check bool) "part range" true (p >= 0 && p < 4)) r.parts;
  Test_support.check_close "cut recomputes" (Hgp_graph.Cuts.kway_cut g r.parts) r.cut;
  (* All four parts used on a balanced instance. *)
  let used = List.sort_uniq compare (Array.to_list r.parts) in
  Alcotest.(check int) "all parts used" 4 (List.length used)

(* Fixed-seed answers pinned at the commit before the partitioner moved onto
   [Coarsen.build]: the parts fingerprint, cut, level count and the next
   draw of the rng, on weighted gnp graphs and a mesh, uniform and
   heterogeneous part capacities. *)
let multilevel_pins =
  [
    (1, "gnp", "125eefdde138db3b", 0x1.c8d1a64e2b0d1p+7, 3, 185666);
    (2, "gnp", "8df9fd4c0a68d45b", 0x1.0d95687f131a8p+8, 3, 688466);
    (3, "mesh", "4a507984fc44bfc4", 0x1.38p+5, 3, 473901);
    (4, "mesh-ragged", "b959aad6ea307464", 0x1.ep+4, 3, 130691);
  ]

let test_multilevel_pinned () =
  List.iter
    (fun (seed, kind, parts_hex, cut, levels, next_draw) ->
      let rng = Prng.create seed in
      let g, capacities =
        match kind with
        | "gnp" ->
          (Gen.randomize_weights rng (Gen.gnp_connected rng 90 0.06) ~lo:1.0 ~hi:5.0, None)
        | "mesh" -> (Gen.grid2d ~rows:10 ~cols:10, None)
        | _ -> (Gen.grid2d ~rows:10 ~cols:10, Some [| 40.; 30.; 20.; 20. |])
      in
      let demands = Array.init (Graph.n g) (fun v -> 1.0 +. float_of_int (v mod 3) *. 0.25) in
      let r = B.Multilevel.partition rng ?capacities g ~demands ~k:4 ~capacity:36.0 in
      let hex = Fp.to_hex (Fp.add_int_array Fp.seed r.parts) in
      let draw = Prng.int rng 1_000_000 in
      let what = Printf.sprintf "%s seed %d" kind seed in
      Alcotest.(check string) (what ^ ": parts") parts_hex hex;
      Alcotest.(check (float 0.)) (what ^ ": cut") cut r.cut;
      Alcotest.(check int) (what ^ ": levels") levels r.levels;
      Alcotest.(check int) (what ^ ": rng afterwards") next_draw draw)
    multilevel_pins

let test_multilevel_k1 () =
  let rng = Prng.create 5 in
  let g = Gen.path 5 in
  let r = B.Multilevel.partition rng g ~demands:(Array.make 5 1.) ~k:1 ~capacity:10. in
  Test_support.check_close "no cut" 0. r.cut

let test_flat_refine_never_worse () =
  let rng = Prng.create 6 in
  let g = Gen.grid2d ~rows:5 ~cols:5 in
  let demands = Array.make 25 1.0 in
  let parts = Array.init 25 (fun v -> v mod 4) in
  let before = Hgp_graph.Cuts.kway_cut g parts in
  let _, after =
    B.Multilevel.flat_refine rng g ~demands ~k:4 ~caps:(Array.make 4 8.0) parts ~max_passes:6
  in
  Alcotest.(check bool) "refinement helps" true (after <= before)

let test_mapping_optimize_beats_identity () =
  let inst, rng = mk_instance 7 24 in
  let ml =
    B.Multilevel.partition rng inst.graph ~demands:inst.demands ~k:4
      ~capacity:(1.2 *. H.leaf_capacity inst.hierarchy)
  in
  let id_cost = Cost.assignment_cost inst (B.Mapping.identity ml.parts) in
  let mapped = B.Mapping.optimize inst ~parts:ml.parts ~k:4 in
  let mapped_cost = Cost.assignment_cost inst mapped in
  Alcotest.(check bool) "mapping never hurts" true (mapped_cost <= id_cost +. 1e-9);
  (* The mapping is a permutation of part labels: loads are preserved. *)
  let sorted a =
    let c = Array.copy a in
    Array.sort compare c;
    c
  in
  Alcotest.(check (array (float 1e-9))) "loads permuted"
    (sorted (Cost.leaf_loads inst ml.parts))
    (sorted (Cost.leaf_loads inst mapped))

let test_recursive_bisection () =
  let inst, rng = mk_instance 8 24 in
  let p = B.Recursive_bisection.assign rng inst ~slack:1.3 in
  Alcotest.(check bool) "complete assignment" true
    (Array.for_all (fun l -> l >= 0 && l < 4) p)

let test_brute_force_optimal () =
  let rng = Prng.create 9 in
  let g = Gen.gnp_connected rng 6 0.5 in
  let hy = H.create ~degs:[| 2 |] ~cm:[| 5.; 0. |] ~leaf_capacity:1.0 in
  let inst = Instance.create g ~demands:(Array.make 6 (1. /. 3.)) hy in
  match B.Brute_force.exact inst ~slack:1.0 with
  | None -> Alcotest.fail "feasible instance"
  | Some (p, c) ->
    Alcotest.(check bool) "valid" true (Cost.is_valid inst p ~slack:1.0);
    Test_support.check_close "cost recomputes" (Cost.assignment_cost inst p) c;
    (* No greedy solution may beat it. *)
    let gp = B.Placement.greedy inst ~slack:1.0 () in
    if Cost.is_valid inst gp ~slack:1.0 then
      Alcotest.(check bool) "optimal" true (c <= Cost.assignment_cost inst gp +. 1e-9)

let test_brute_force_infeasible () =
  let g = Gen.path 3 in
  let hy = H.create ~degs:[| 2 |] ~cm:[| 1.; 0. |] ~leaf_capacity:1.0 in
  let inst = Instance.create g ~demands:[| 0.9; 0.9; 0.9 |] hy in
  Alcotest.(check bool) "infeasible" true (B.Brute_force.exact inst ~slack:1.0 = None);
  Alcotest.(check bool) "slack helps" true (B.Brute_force.exact inst ~slack:2.0 <> None)

let test_spectral_bisect_balanced () =
  let g = Gen.grid2d ~rows:4 ~cols:4 in
  let demands = Array.make 16 1.0 in
  let side = B.Spectral.bisect g ~demands in
  let count = Array.fold_left (fun a s -> if s then a + 1 else a) 0 side in
  Alcotest.(check bool) "roughly balanced" true (count >= 6 && count <= 10);
  (* On a grid, spectral bisection should find a near-minimal balanced cut
     (4 for a 4x4 grid; allow a little noise). *)
  let cut = Hgp_graph.Cuts.cut_weight g (fun v -> side.(v)) in
  Alcotest.(check bool) "good cut" true (cut <= 8.)

let test_repair_restores_feasibility () =
  let inst, _ = mk_instance 12 16 in
  (* Pile everything on leaf 0: grossly overloaded. *)
  let p = Array.make 16 0 in
  let repaired, feasible = B.Local_search.repair inst p ~slack:1.1 in
  Alcotest.(check bool) "feasible after repair" true feasible;
  Alcotest.(check bool) "valid" true (Cost.is_valid inst repaired ~slack:1.1);
  (* Already-feasible inputs are untouched. *)
  let ok = B.Placement.greedy inst ~slack:1.1 () in
  let same, f2 = B.Local_search.repair inst ok ~slack:1.1 in
  Alcotest.(check bool) "still feasible" true f2;
  Alcotest.(check (array int)) "unchanged" ok same

let test_repair_impossible () =
  let g = Gen.path 4 in
  let hy4 = H.create ~degs:[| 2 |] ~cm:[| 1.; 0. |] ~leaf_capacity:1.0 in
  let inst = Hgp_core.Instance.create g ~demands:(Array.make 4 0.9) hy4 in
  let _, feasible = B.Local_search.repair inst (Array.make 4 0) ~slack:1.0 in
  Alcotest.(check bool) "cannot fit 3.6 demand in 2 leaves" false feasible

let test_portfolio () =
  let inst, rng = mk_instance 13 24 in
  let r = B.Portfolio.solve rng inst ~slack:1.25 ~refine_passes:4 in
  Alcotest.(check int) "four candidates" 4 (List.length r.entries);
  (* Entries sorted by cost. *)
  let costs = List.map (fun (e : B.Portfolio.entry) -> e.cost) r.entries in
  Alcotest.(check bool) "sorted" true (List.sort compare costs = costs);
  (* The winner is within slack (the instance is comfortably feasible). *)
  Alcotest.(check bool) "winner within slack" true (r.best.violation <= 1.25 +. 1e-9);
  (* The winner is never worse than any within-slack candidate. *)
  List.iter
    (fun (e : B.Portfolio.entry) ->
      if e.violation <= 1.25 +. 1e-9 then
        Alcotest.(check bool) "best is best" true (r.best.cost <= e.cost +. 1e-9))
    r.entries

let prop_repair_only_when_needed =
  Test_support.qtest ~count:30 "repair output always within slack on feasible instances"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 8 20))
    (fun (seed, n) ->
      let inst, rng = mk_instance seed n in
      let p = B.Placement.random rng inst ~slack:2.0 in
      let repaired, feasible = B.Local_search.repair inst p ~slack:1.3 in
      (not feasible) || Cost.is_valid inst repaired ~slack:1.3)

let prop_local_search_fixpoint_valid =
  Test_support.qtest ~count:40 "local search output always valid and no worse"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 6 16))
    (fun (seed, n) ->
      let inst, rng = mk_instance seed n in
      let p = B.Placement.random rng inst ~slack:1.25 in
      if not (Cost.is_valid inst p ~slack:1.25) then true
      else begin
        let refined, stats = B.Local_search.refine inst p ~slack:1.25 ~max_passes:6 in
        Cost.is_valid inst refined ~slack:1.25
        && stats.final_cost <= stats.initial_cost +. 1e-9
      end)

let prop_recursive_bisection_balance =
  Test_support.qtest ~count:30 "recursive bisection respects generous slack"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 8 24))
    (fun (seed, n) ->
      let inst, rng = mk_instance seed n in
      let p = B.Recursive_bisection.assign rng inst ~slack:1.3 in
      (* Loose sanity: no leaf carries more than half the total demand. *)
      let loads = Cost.leaf_loads inst p in
      let total = Instance.total_demand inst in
      Array.for_all (fun l -> l <= (total /. 2.) +. 1e-9) loads)

let () =
  Alcotest.run "baselines"
    [
      ( "unit",
        [
          Alcotest.test_case "random valid" `Quick test_random_placement_valid;
          Alcotest.test_case "greedy orders" `Quick test_greedy_orders;
          Alcotest.test_case "greedy beats random" `Quick test_greedy_beats_random_usually;
          Alcotest.test_case "local search improves" `Quick test_local_search_improves;
          Alcotest.test_case "multilevel partition" `Quick test_multilevel_partition;
          Alcotest.test_case "multilevel pinned answers" `Quick test_multilevel_pinned;
          Alcotest.test_case "multilevel k=1" `Quick test_multilevel_k1;
          Alcotest.test_case "flat refine" `Quick test_flat_refine_never_worse;
          Alcotest.test_case "mapping optimize" `Quick test_mapping_optimize_beats_identity;
          Alcotest.test_case "recursive bisection" `Quick test_recursive_bisection;
          Alcotest.test_case "brute force optimal" `Quick test_brute_force_optimal;
          Alcotest.test_case "brute force infeasible" `Quick test_brute_force_infeasible;
          Alcotest.test_case "spectral bisect" `Quick test_spectral_bisect_balanced;
          Alcotest.test_case "repair restores feasibility" `Quick test_repair_restores_feasibility;
          Alcotest.test_case "repair impossible" `Quick test_repair_impossible;
          Alcotest.test_case "portfolio" `Quick test_portfolio;
        ] );
      ( "property",
        [
          prop_local_search_fixpoint_valid;
          prop_recursive_bisection_balance;
          prop_repair_only_when_needed;
        ] );
    ]
