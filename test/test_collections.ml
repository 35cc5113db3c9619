module Tree = Hgp_tree.Tree
module Tree_dp = Hgp_core.Tree_dp
module Collections = Test_support.Collections
module Gen = Hgp_graph.Generators
module Prng = Hgp_util.Prng

(* Random solved instances: job-complete trees and solved DP labelings. *)
let gen_solved =
  let open QCheck2.Gen in
  let* seed = int_bound 1_000_000 in
  let* n = int_range 2 9 in
  let* h = int_range 1 3 in
  let rng = Prng.create seed in
  let g = Gen.randomize_weights rng (Gen.random_tree rng n) ~lo:1.0 ~hi:9.0 in
  let t, job_leaf = Tree.lift_internal_jobs (Tree.of_graph g ~root:0) in
  let demand_units = Array.make (Tree.n_nodes t) 0 in
  Array.iter (fun l -> demand_units.(l) <- 1 + Prng.int rng 2) job_leaf;
  let cm = Array.init (h + 1) (fun j -> float_of_int (2 * (h - j))) in
  let cp_units = Array.init (h + 1) (fun j -> 4 * (h + 1 - j) * max 1 (n / 2)) in
  let cfg = { Tree_dp.cm; cp_units; bucketing = None; prune = true; beam_width = None } in
  return (t, demand_units, cm, cp_units, h, cfg)

let prop_solver_output_is_definition4 =
  Test_support.qtest ~count:120 "DP output satisfies Definition 4 structure and capacities"
    gen_solved
    (fun (t, demand_units, _cm, cp_units, h, cfg) ->
      match Tree_dp.solve t ~demand_units cfg with
      | None -> true
      | Some r ->
        let c = Collections.of_kappa t ~kappa:r.kappa ~h in
        Collections.is_valid_relaxed c t
        && Collections.demand_ok c ~demand_units ~cp_units)

let prop_definition3_cost_dominated =
  Test_support.qtest ~count:120
    "Definition-3 (min-cut) cost never exceeds the edge-labeling cost"
    gen_solved
    (fun (t, demand_units, cm, _cp, h, cfg) ->
      match Tree_dp.solve t ~demand_units cfg with
      | None -> true
      | Some r ->
        let c = Collections.of_kappa t ~kappa:r.kappa ~h in
        let d3 = Collections.definition3_cost c t ~cm in
        let kc = Tree_dp.kappa_cost t ~kappa:r.kappa ~cm in
        d3 <= kc +. 1e-6)

let prop_random_labelings_laminar =
  Test_support.qtest ~count:120 "arbitrary labelings still produce Definition-4 families"
    QCheck2.Gen.(
      let* seed = int_bound 1_000_000 in
      let* n = int_range 2 12 in
      let* h = int_range 1 3 in
      return (seed, n, h))
    (fun (seed, n, h) ->
      let rng = Prng.create seed in
      let g = Gen.random_tree rng n in
      let t = Tree.of_graph g ~root:0 in
      let kappa = Array.init n (fun v -> if v = 0 then 0 else Prng.int rng (h + 1)) in
      let c = Collections.of_kappa t ~kappa ~h in
      Collections.is_valid_relaxed c t)

let test_refinement_widths () =
  (* Star of 4 leaves fully separated at level 1: the root set splits into 4
     level-1 sets — width 4, which Definition 3 would cap at DEG(0). *)
  let t =
    Tree.of_parents ~root:0 ~parents:[| -1; 0; 0; 0; 0 |]
      ~weights:[| 0.; 1.; 1.; 1.; 1. |]
  in
  let kappa = [| 0; 0; 0; 0; 0 |] in
  let c = Collections.of_kappa t ~kappa ~h:1 in
  Alcotest.(check (array int)) "width 4" [| 4 |] (Collections.refinement_widths c)

let test_definition3_star_example () =
  (* The star example from the development notes: cost with min cuts is half
     the boundary sum when regions do not tile. *)
  let t =
    Tree.of_parents ~root:0 ~parents:[| -1; 0; 0; 0 |] ~weights:[| 0.; 1.; 1.; 1. |]
  in
  let kappa = [| 0; 0; 0; 1 |] in
  (* leaves 1,2 separated; leaf 3 keeps its edge: level-1 sets {1},{2},{3}. *)
  let c = Collections.of_kappa t ~kappa ~h:1 in
  let d3 = Collections.definition3_cost c t ~cm:[| 2.; 0. |] in
  (* CUT({1}) = 1, CUT({2}) = 1, CUT({3}) = 1, each * (2-0)/2 = 1. *)
  Test_support.check_close "min-cut cost" 3. d3;
  let kc = Hgp_core.Tree_dp.kappa_cost t ~kappa ~cm:[| 2.; 0. |] in
  Test_support.check_close "labeling cost" 4. kc

let () =
  Alcotest.run "collections"
    [
      ( "unit",
        [
          Alcotest.test_case "refinement widths" `Quick test_refinement_widths;
          Alcotest.test_case "definition3 star" `Quick test_definition3_star_example;
        ] );
      ( "property",
        [
          prop_solver_output_is_definition4;
          prop_definition3_cost_dominated;
          prop_random_labelings_laminar;
        ] );
    ]
