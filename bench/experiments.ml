(* Experiment harness: one section per experiment of DESIGN.md section 5.

   The paper (SPAA 2014) is a theory paper with no empirical tables or
   figures, so each experiment here validates a theorem/claim empirically;
   EXPERIMENTS.md records the claim-versus-measurement ledger that these
   tables feed. *)

module Graph = Hgp_graph.Graph
module Gen = Hgp_graph.Generators
module H = Hgp_hierarchy.Hierarchy
module Tree = Hgp_tree.Tree
module Instance = Hgp_core.Instance
module Cost = Hgp_core.Cost
module Solver = Hgp_core.Solver
module Pipeline = Hgp_core.Pipeline
module Artifact_cache = Hgp_resilience.Artifact_cache
module Tree_dp = Hgp_core.Tree_dp
module Feasible = Hgp_core.Feasible
module Demand = Hgp_core.Demand
module Delta = Hgp_core.Delta
module B = Hgp_baselines
module Prng = Hgp_util.Prng
module Stats = Hgp_util.Stats
module Tablefmt = Hgp_util.Tablefmt
module Ensemble = Hgp_racke.Ensemble

let fmt = Tablefmt.fmt_float

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* E1 — Lemma 2: assignment cost (Eq. 1) = mirror cost (Eq. 3).        *)

let e1_cost_identity () =
  let rng = Prng.create 101 in
  let hierarchies =
    [ ("dual_socket", H.Presets.dual_socket); ("quad_socket", H.Presets.quad_socket);
      ("cluster", H.Presets.cluster) ]
  in
  let rows =
    List.concat_map
      (fun (hname, hy) ->
        List.map
          (fun spec ->
            let inst = spec.Hgp_workloads.Presets.build rng hy in
            let trials = 50 in
            let max_rel = ref 0. in
            for _ = 1 to trials do
              let p =
                Array.init (Instance.n inst) (fun _ -> Prng.int rng (H.num_leaves hy))
              in
              let a = Cost.assignment_cost inst p in
              let m = Cost.mirror_cost inst p in
              let rel = Float.abs (a -. m) /. (1. +. Float.abs a) in
              if rel > !max_rel then max_rel := rel
            done;
            [ spec.Hgp_workloads.Presets.name; hname; string_of_int trials;
              Printf.sprintf "%.2e" !max_rel;
              (if !max_rel < 1e-9 then "EQUAL" else "DIFFER") ])
          Hgp_workloads.Presets.small_suite)
      hierarchies
  in
  Tablefmt.print ~title:"E1  Lemma 2: Eq.1 vs Eq.3 cost identity (random assignments)"
    ~header:[ "workload"; "hierarchy"; "trials"; "max rel diff"; "verdict" ]
    rows

(* ------------------------------------------------------------------ *)
(* E2 — Lemma 1: normalizing cm preserves optimal solutions.           *)

let e2_normalization () =
  let rng = Prng.create 202 in
  let hy = H.create ~degs:[| 2; 2 |] ~cm:[| 12.; 5.; 2. |] ~leaf_capacity:1.0 in
  let hy_norm, offset = H.normalize hy in
  let rows =
    List.map
      (fun n ->
        let g = Gen.gnp_connected rng n 0.5 in
        let g = Gen.randomize_weights rng g ~lo:1.0 ~hi:5.0 in
        let w_total = Graph.total_weight g in
        let inst_raw = Instance.uniform_demands g hy ~load_factor:0.5 in
        let inst_norm = Instance.uniform_demands g hy_norm ~load_factor:0.5 in
        let p_raw, opt_raw =
          match B.Brute_force.exact inst_raw ~slack:1.0 with
          | Some r -> r
          | None -> ([||], nan)
        in
        let _, opt_norm =
          match B.Brute_force.exact inst_norm ~slack:1.0 with
          | Some r -> r
          | None -> ([||], nan)
        in
        let reconstructed = opt_norm +. (offset *. w_total) in
        let same_argmin =
          Array.length p_raw > 0
          && Float.abs (Cost.assignment_cost inst_norm p_raw +. (offset *. w_total) -. opt_raw)
             < 1e-6
        in
        [ string_of_int n; fmt opt_raw; fmt reconstructed;
          (if Float.abs (opt_raw -. reconstructed) < 1e-6 then "EQUAL" else "DIFFER");
          string_of_bool same_argmin ])
      [ 5; 6; 7; 8 ]
  in
  Tablefmt.print
    ~title:"E2  Lemma 1: OPT(raw cm) vs OPT(normalized cm) + cm(h).W (exact, gnp)"
    ~header:[ "n"; "OPT raw"; "OPT norm + off*W"; "verdict"; "optimum transfers" ]
    rows

(* ------------------------------------------------------------------ *)
(* E3 — Theorems 2-4: the tree DP is cost-optimal for RHGPT.           *)

let e3_tree_dp_optimal () =
  let rng = Prng.create 303 in
  let rows =
    List.map
      (fun (h, cm, cp) ->
        let trials = 60 in
        let matches = ref 0 and feasible = ref 0 in
        let max_gap = ref 0. in
        for _ = 1 to trials do
          let n = 3 + Prng.int rng 5 in
          let g = Gen.randomize_weights rng (Gen.random_tree rng n) ~lo:1.0 ~hi:9.0 in
          let t, job_leaf = Tree.lift_internal_jobs (Tree.of_graph g ~root:0) in
          let demand_units = Array.make (Tree.n_nodes t) 0 in
          Array.iter (fun l -> demand_units.(l) <- 1 + Prng.int rng 2) job_leaf;
          let cfg = { Tree_dp.cm; cp_units = cp n; bucketing = None; prune = true; beam_width = None } in
          match (Tree_dp.solve t ~demand_units cfg, Tree_dp.brute_force t ~demand_units cfg) with
          | Some r, Some bf ->
            incr feasible;
            let gap = Float.abs (r.cost -. bf) in
            if gap < 1e-6 then incr matches;
            if gap > !max_gap then max_gap := gap
          | None, None -> ()
          | _ -> max_gap := infinity
        done;
        [ string_of_int h; string_of_int trials; string_of_int !feasible;
          Printf.sprintf "%d/%d" !matches !feasible; Printf.sprintf "%.1e" !max_gap ])
      [
        (1, [| 10.; 0. |], fun n -> [| 4 * n; 4 |]);
        (2, [| 10.; 3.; 0. |], fun n -> [| 4 * n; 8; 4 |]);
        (3, [| 10.; 5.; 2.; 0. |], fun n -> [| 4 * n; 12; 6; 3 |]);
      ]
  in
  Tablefmt.print
    ~title:"E3  Theorems 2-4: DP optimum vs exhaustive enumeration (random job trees)"
    ~header:[ "height h"; "trials"; "feasible"; "exact matches"; "max gap" ]
    rows

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 5 + 2: capacity violation of the full tree pipeline.   *)

let e4_capacity_violation () =
  let rng = Prng.create 404 in
  let rows =
    List.map
      (fun h ->
        let degs = Array.make h 2 in
        let cm = Array.init (h + 1) (fun j -> float_of_int ((1 lsl (h - j)) - 1)) in
        let hy = H.create ~degs ~cm ~leaf_capacity:1.0 in
        let trials = 30 in
        let worst = ref 0. and costs_ok = ref 0 in
        for _ = 1 to trials do
          let n = 6 + Prng.int rng 10 in
          let g = Gen.randomize_weights rng (Gen.random_tree rng n) ~lo:1.0 ~hi:9.0 in
          let t = Tree.of_graph g ~root:0 in
          let demands = Array.init n (fun _ -> 0.15 +. Prng.float rng 0.5) in
          let total_cap = float_of_int (H.num_leaves hy) in
          let sum = Array.fold_left ( +. ) 0. demands in
          let demands =
            if sum > 0.8 *. total_cap then
              Array.map (fun d -> Float.max 0.01 (d *. 0.8 *. total_cap /. sum)) demands
            else demands
          in
          let options = { Solver.default_options with resolution = Some 8 } in
          (try
             let _, cost, relaxed, violation = Solver.solve_tree t ~demands hy ~options in
             if violation > !worst then worst := violation;
             if cost <= relaxed +. 1e-6 then incr costs_ok
           with Failure _ -> ())
        done;
        let bound = Feasible.theoretical_violation_bound ~h ~eps:0.25 in
        [ string_of_int h; string_of_int trials; Printf.sprintf "%.3f" !worst;
          Printf.sprintf "%.2f" bound;
          (if !worst <= bound then "WITHIN" else "EXCEEDED");
          string_of_int !costs_ok ])
      [ 1; 2; 3; 4 ]
  in
  Tablefmt.print
    ~title:
      "E4  Theorem 5: measured capacity violation vs (1+eps)(1+h) bound (HGPT pipeline)"
    ~header:
      [ "height h"; "trials"; "worst violation"; "bound"; "verdict"; "cost<=relaxed" ]
    rows

(* ------------------------------------------------------------------ *)
(* E5 — Theorem 1: end-to-end cost ratio vs the exact optimum.         *)

let e5_approx_ratio () =
  let rng = Prng.create 505 in
  let hy = H.create ~degs:[| 2; 2 |] ~cm:[| 10.; 3.; 0. |] ~leaf_capacity:1.0 in
  let families =
    [
      ("gnp", fun n -> Gen.randomize_weights rng (Gen.gnp_connected rng n 0.5) ~lo:1.0 ~hi:5.0);
      ("tree", fun n -> Gen.randomize_weights rng (Gen.random_tree rng n) ~lo:1.0 ~hi:5.0);
      ("grid", fun n -> Gen.grid2d ~rows:2 ~cols:(n / 2));
    ]
  in
  let rows =
    List.map
      (fun (name, make) ->
        let ratios = ref [] in
        let trials = 12 in
        for _ = 1 to trials do
          let n = 6 + Prng.int rng 3 in
          let g = make n in
          let inst = Instance.uniform_demands g hy ~load_factor:0.6 in
          match B.Brute_force.exact inst ~slack:1.0 with
          | Some (_, opt) when opt > 1e-9 ->
            let sol = Solver.solve ~options:{ Solver.default_options with seed = Prng.int rng 10000 } inst in
            ratios := (sol.cost /. opt) :: !ratios
          | _ -> ()
        done;
        let r = Array.of_list !ratios in
        if Array.length r = 0 then [ name; "0"; "-"; "-"; "-" ]
        else
          [ name; string_of_int (Array.length r);
            Printf.sprintf "%.2f" (Stats.mean r);
            Printf.sprintf "%.2f" (snd (Stats.min_max r));
            Printf.sprintf "%.2f" (log (float_of_int 8)) ])
      families
  in
  Tablefmt.print
    ~title:"E5  Theorem 1: solver cost / exact OPT on tiny instances (O(log n) claim)"
    ~header:[ "family"; "samples"; "mean ratio"; "max ratio"; "ln n (scale ref)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E6 — Theorem 6/7 substrate: decomposition-tree cut distortion.      *)

let e6_tree_distortion () =
  let rng = Prng.create 606 in
  let families =
    [
      ("gnp", fun n -> Gen.gnp_connected rng n (6.0 /. float_of_int n));
      ("grid", fun n ->
        let side = int_of_float (sqrt (float_of_int n)) in
        Gen.grid2d ~rows:side ~cols:side);
      ("torus", fun n ->
        let side = max 3 (int_of_float (sqrt (float_of_int n))) in
        Gen.torus2d ~rows:side ~cols:side);
    ]
  in
  let sizes = [ 16; 32; 64; 128 ] in
  let rows =
    List.concat_map
      (fun (name, make) ->
        List.map
          (fun n ->
            let g = make n in
            let e = Ensemble.sample rng g ~size:4 in
            let avg = Ensemble.average_distortion e rng ~trials:30 in
            [ name; string_of_int (Graph.n g); Printf.sprintf "%.2f" avg;
              Printf.sprintf "%.2f" (log (float_of_int (Graph.n g))) ])
          sizes)
      families
  in
  Tablefmt.print
    ~title:
      "E6  Theorem 6 substrate: average cut distortion w_T/w_G of decomposition trees"
    ~header:[ "family"; "n"; "avg distortion"; "ln n (O(log n) ref)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E7 — the motivating claim: hierarchy-aware beats flat baselines.    *)

let e7_baseline_compare () =
  let hierarchies =
    [ ("dual_socket", H.Presets.dual_socket); ("cluster", H.Presets.cluster) ]
  in
  let slack = 1.25 in
  List.iter
    (fun (hname, hy) ->
      let rows =
        List.concat_map
          (fun spec ->
            let rng = Prng.create 707 in
            let inst = spec.Hgp_workloads.Presets.build rng hy in
            let k = H.num_leaves hy in
            let capacity = slack *. H.leaf_capacity hy in
            let parts =
              (B.Multilevel.partition rng inst.graph ~demands:inst.demands ~k ~capacity)
                .parts
            in
            let sol =
              Solver.solve ~options:{ Solver.default_options with ensemble_size = 4 } inst
            in
            let refined, _ = B.Local_search.refine inst sol.assignment ~slack ~max_passes:8 in
            let portfolio =
              (B.Portfolio.solve rng inst ~slack ~refine_passes:8).B.Portfolio.best
            in
            let entries =
              [
                ("random", B.Placement.random rng inst ~slack);
                ("greedy", B.Placement.greedy inst ~slack ());
                ("kbgp-flat", B.Mapping.identity parts);
                ("kbgp+map", B.Mapping.optimize inst ~parts ~k);
                ("dual-recursive", B.Recursive_bisection.assign rng inst ~slack);
                ("hgp", sol.assignment);
                ("hgp+ls", refined);
                ("portfolio", portfolio.B.Portfolio.assignment);
              ]
            in
            let best =
              List.fold_left
                (fun acc (_, p) -> Float.min acc (Cost.assignment_cost inst p))
                infinity entries
            in
            List.map
              (fun (mname, p) ->
                let c = Cost.assignment_cost inst p in
                [
                  spec.Hgp_workloads.Presets.name; mname; fmt c;
                  Printf.sprintf "%.2f" (c /. best);
                  Printf.sprintf "%.2f" (Cost.max_violation inst p);
                ])
              entries)
          Hgp_workloads.Presets.small_suite
      in
      Tablefmt.print
        ~title:(Printf.sprintf "E7  baseline comparison on %s (cost; x = vs best)" hname)
        ~header:[ "workload"; "method"; "cost"; "x best"; "violation" ]
        rows)
    hierarchies

(* ------------------------------------------------------------------ *)
(* E8 — running-time scaling of the DP.                                *)

let e8_dp_scaling () =
  let rng = Prng.create 808 in
  (* Jobs carry heterogeneous unit demands at ~50% load so that the DP state
     space is genuinely exercised; beam is disabled so the exact Pareto
     frontier drives the time. *)
  let run_one ~n ~resolution ~degs =
    let h = Array.length degs in
    let cm = Array.init (h + 1) (fun j -> float_of_int (h - j)) in
    let hy = H.create ~degs ~cm ~leaf_capacity:1.0 in
    let g = Gen.randomize_weights rng (Gen.caterpillar ~spine:(n / 2) ~legs:1) ~lo:1.0 ~hi:5.0 in
    let t = Tree.of_graph g ~root:0 in
    let n = Graph.n g in
    let total_cap = float_of_int (H.num_leaves hy) in
    let unit = 1.0 /. float_of_int resolution in
    let demands =
      Array.init n (fun _ ->
          let target = 0.5 *. total_cap /. float_of_int n in
          let units = max 1 (int_of_float (target /. unit *. (0.5 +. Prng.float rng 1.0))) in
          Float.min 1.0 (float_of_int units *. unit))
    in
    let options =
      { Solver.default_options with resolution = Some resolution; beam_width = None }
    in
    let (_, _, _, _), dt = time (fun () -> Solver.solve_tree t ~demands hy ~options) in
    dt
  in
  let rows_n =
    List.map
      (fun n ->
        let resolution = max 8 (n / 8) in
        [ "n sweep (D ~ n)"; string_of_int n; string_of_int resolution; "2";
          Printf.sprintf "%.3f" (run_one ~n ~resolution ~degs:[| 4; 4 |]) ])
      [ 32; 64; 128; 256; 512 ]
  in
  let rows_r =
    List.map
      (fun r ->
        [ "resolution sweep"; "128"; string_of_int r; "2";
          Printf.sprintf "%.3f" (run_one ~n:128 ~resolution:r ~degs:[| 4; 4 |]) ])
      [ 8; 16; 32; 64; 128 ]
  in
  let rows_h =
    List.map
      (fun h ->
        let degs = Array.make h 2 in
        let resolution = max 8 (256 / (1 lsl h)) in
        [ "height sweep"; "128"; string_of_int resolution; string_of_int h;
          Printf.sprintf "%.3f" (run_one ~n:128 ~resolution ~degs) ])
      [ 1; 2; 3; 4 ]
  in
  Tablefmt.print
    ~title:"E8  DP runtime scaling (caterpillar HGPT instances; exact DP, seconds)"
    ~header:[ "sweep"; "n"; "resolution"; "height"; "time (s)" ]
    (rows_n @ rows_r @ rows_h)

(* ------------------------------------------------------------------ *)
(* E9 — Theorem 7: best-of-p decomposition trees.                      *)

let e9_ensemble_ablation () =
  let hy = H.Presets.dual_socket in
  let rows =
    List.concat_map
      (fun spec ->
        let rng = Prng.create 909 in
        let inst = spec.Hgp_workloads.Presets.build rng hy in
        List.map
          (fun p ->
            let sol =
              Solver.solve
                ~options:{ Solver.default_options with ensemble_size = p; seed = 11 }
                inst
            in
            [ spec.Hgp_workloads.Presets.name; string_of_int p; fmt sol.cost;
              string_of_int sol.tree_index ])
          [ 1; 2; 4; 8 ])
      [ List.nth Hgp_workloads.Presets.small_suite 0;
        List.nth Hgp_workloads.Presets.small_suite 2 ]
  in
  Tablefmt.print
    ~title:"E9  Theorem 7 ablation: solution cost vs ensemble size p (monotone non-increasing)"
    ~header:[ "workload"; "p trees"; "cost"; "winning tree" ]
    rows

(* ------------------------------------------------------------------ *)
(* E10 — geometric signature bucketing ablation.                       *)

let e10_bucketing_ablation () =
  let rng = Prng.create 1010 in
  let hy = H.create ~degs:[| 2; 2 |] ~cm:[| 10.; 3.; 0. |] ~leaf_capacity:1.0 in
  let n = 48 in
  let g = Gen.randomize_weights rng (Gen.random_tree rng n) ~lo:1.0 ~hi:9.0 in
  let t = Tree.of_graph g ~root:0 in
  let demands = Array.init n (fun _ -> 0.02 +. Prng.float rng 0.12) in
  let rows =
    List.map
      (fun (label, bucketing) ->
        let options =
          {
            Solver.default_options with
            resolution = Some 32;
            bucketing;
            beam_width = None;
          }
        in
        let (_, cost, relaxed, violation), dt =
          time (fun () -> Solver.solve_tree t ~demands hy ~options)
        in
        [ label; fmt relaxed; fmt cost; Printf.sprintf "%.3f" violation;
          Printf.sprintf "%.3f" dt ])
      [
        ("exact", None);
        ("delta=0.1", Some 0.1);
        ("delta=0.3", Some 0.3);
        ("delta=0.5", Some 0.5);
      ]
  in
  Tablefmt.print
    ~title:"E10  signature bucketing ablation (HGPT, n=48, resolution=32)"
    ~header:[ "mode"; "relaxed cost"; "final cost"; "violation"; "time (s)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E11 — decomposition shape strategy ablation.                        *)

let e11_strategy_ablation () =
  let hy = H.Presets.dual_socket in
  let strategies =
    [
      ("low_diameter", Ensemble.Pure Hgp_racke.Decomposition.Low_diameter);
      ("bfs_bisection", Ensemble.Pure Hgp_racke.Decomposition.Bfs_bisection);
      ("gomory_hu", Ensemble.Pure Hgp_racke.Decomposition.Gomory_hu);
      ("mixed", Ensemble.Mixed);
    ]
  in
  let rows =
    List.concat_map
      (fun spec ->
        let rng = Prng.create 1111 in
        let inst = spec.Hgp_workloads.Presets.build rng hy in
        List.map
          (fun (name, strategy) ->
            let sol =
              Solver.solve
                ~options:{ Solver.default_options with strategy; ensemble_size = 3; seed = 5 }
                inst
            in
            [ spec.Hgp_workloads.Presets.name; name; fmt sol.cost;
              Printf.sprintf "%.2f" sol.max_violation ])
          strategies)
      Hgp_workloads.Presets.small_suite
  in
  Tablefmt.print
    ~title:"E11  decomposition-tree shape ablation (3 trees each)"
    ~header:[ "workload"; "strategy"; "cost"; "violation" ]
    rows

(* ------------------------------------------------------------------ *)
(* E12 — does the HGP cost predict simulated system behaviour?         *)

let e12_simulation_correlation () =
  let rng = Prng.create 1212 in
  let w =
    Hgp_workloads.Stream_dag.generate rng
      { Hgp_workloads.Stream_dag.default_params with n_sources = 10; pipeline_depth = 5 }
  in
  let hy = H.Presets.dual_socket in
  let inst = Hgp_workloads.Stream_dag.to_instance w hy ~load_factor:0.45 in
  let sw = Hgp_workloads.Stream_dag.to_sim_workload w ~demands:inst.Instance.demands in
  let cfg =
    {
      Hgp_sim.Des.default_config with
      duration = 30.0;
      warmup = 3.0;
      load = 0.75;
      comm_overhead = 2e-3;
    }
  in
  let sol = Solver.solve inst in
  let refined, _ = B.Local_search.refine inst sol.assignment ~slack:1.2 ~max_passes:8 in
  let placements =
    [
      ("random", B.Placement.random rng inst ~slack:1.25);
      ("greedy", B.Placement.greedy inst ~slack:1.25 ());
      ("kbgp+map",
        let k = H.num_leaves hy in
        let parts =
          (B.Multilevel.partition rng inst.Instance.graph ~demands:inst.Instance.demands ~k
             ~capacity:1.25)
            .parts
        in
        B.Mapping.optimize inst ~parts ~k);
      ("hgp", sol.assignment);
      ("hgp+ls", refined);
    ]
  in
  let measured =
    List.map
      (fun (name, p) ->
        let m = Hgp_sim.Des.run sw hy ~assignment:p cfg in
        (name, Cost.assignment_cost inst p, m))
      placements
  in
  let rows =
    List.map
      (fun (name, cost, (m : Hgp_sim.Des.metrics)) ->
        [
          name; fmt cost; Printf.sprintf "%.1f" m.throughput; string_of_int m.dropped;
          (if Float.is_nan m.avg_latency then "-"
           else Printf.sprintf "%.1f" (m.avg_latency *. 1e3));
          Printf.sprintf "%.2f" m.max_core_utilization;
        ])
      measured
  in
  Tablefmt.print
    ~title:
      "E12  HGP cost vs simulated stream execution (75% load; cost should track latency)"
    ~header:[ "placement"; "hgp cost"; "tuples/s"; "drops"; "avg lat (ms)"; "max util" ]
    rows;
  (* Rank agreement between cost and average latency (drops push latency of
     saturated placements up, so compare on the saturation indicator too). *)
  let by_cost =
    List.sort (fun (_, c1, _) (_, c2, _) -> compare c1 c2) measured |> List.map (fun (n, _, _) -> n)
  in
  Printf.printf "cost ranking (best first): %s\n" (String.concat " < " by_cost)

(* ------------------------------------------------------------------ *)
(* E13 — end-to-end scalability of the full pipeline.                  *)

let e13_pipeline_scaling () =
  let hy = H.Presets.dual_socket in
  let rows =
    List.concat_map
      (fun n ->
        let rng = Prng.create (1300 + n) in
        (* Uniform demands at 70% of capacity, clamped per leaf. *)
        let uniform g =
          let d =
            Float.min 1.0 (0.7 *. float_of_int (H.num_leaves hy) /. float_of_int (Graph.n g))
          in
          Instance.create g ~demands:(Array.make (Graph.n g) d) hy
        in
        let make =
          [
            ("gnp", fun () -> uniform (Gen.gnp_connected rng n (6.0 /. float_of_int n)));
            ("grid", fun () ->
              let side = int_of_float (sqrt (float_of_int n)) in
              uniform (Gen.grid2d ~rows:side ~cols:side));
          ]
        in
        List.map
          (fun (gname, build) ->
            let inst = build () in
            let sol, dt =
              time (fun () ->
                  Solver.solve
                    ~options:{ Solver.default_options with ensemble_size = 2; seed = 3 }
                    inst)
            in
            [ gname; string_of_int (Instance.n inst); Printf.sprintf "%.2f" dt;
              string_of_int sol.dp_states; Printf.sprintf "%.2f" sol.max_violation ])
          make)
      [ 64; 144; 256; 400 ]
  in
  Tablefmt.print
    ~title:"E13  end-to-end pipeline wall time (2 trees, dual_socket; seconds)"
    ~header:[ "family"; "n"; "time (s)"; "dp states"; "violation" ]
    rows

(* ------------------------------------------------------------------ *)
(* E14 — online HGP under churn: greedy-only vs periodic rebalance.    *)

(* Greedy arrival rule: the cheapest leaf against the placed neighbours
   whose load stays within [slack] times its capacity (ties to the less
   loaded leaf); the least-loaded leaf when no leaf has room. *)
let place_greedy hy ~slack ~loads ~placed demand edges =
  let best_leaf = ref (-1) and best = ref infinity in
  for l = 0 to H.num_leaves hy - 1 do
    if loads.(l) +. demand <= (slack *. H.leaf_cap hy l) +. 1e-9 then begin
      let c =
        List.fold_left (fun acc (u, w) -> acc +. (w *. H.edge_cost hy l placed.(u))) 0. edges
      in
      if
        c < !best -. 1e-12
        || (c < !best +. 1e-12 && (!best_leaf < 0 || loads.(l) < loads.(!best_leaf)))
      then begin
        best := c;
        best_leaf := l
      end
    end
  done;
  if !best_leaf >= 0 then !best_leaf
  else begin
    let least = ref 0 in
    Array.iteri (fun l load -> if load < loads.(!least) then least := l) loads;
    !least
  end

let e14_dynamic_churn () =
  let hy = H.Presets.dual_socket in
  let run_policy ~resolve_period seed =
    let rng = Prng.create seed in
    let options = { Solver.default_options with ensemble_size = 2; seed } in
    (* The live tasks are the instance's vertices with their leaves; [None]
       once the last one departs, since a delta never empties an instance.
       Ids follow arrival order (a removal keeps it), so [n - 1 - i] is the
       i-th newest task. *)
    let state = ref None in
    let migrations = ref 0 and cost_samples = ref [] in
    let cost () = match !state with Some (inst, p) -> Cost.assignment_cost inst p | None -> 0. in
    (* A rebalance solves the live tasks cold and keeps the incumbent
       unless the answer is no dearer. *)
    let rebalance () =
      match !state with
      | Some ((inst : Instance.t), p) when Instance.n inst >= 2 ->
        let q = (Solver.solve ~options inst).assignment in
        if Cost.assignment_cost inst q <= Cost.assignment_cost inst p +. 1e-9 then begin
          Array.iteri (fun v l -> if l <> p.(v) then incr migrations) q;
          state := Some (inst, q)
        end
      | _ -> ()
    in
    (* 150 churn events: 70% arrivals with locality-biased edges. *)
    for event = 1 to 150 do
      let n = match !state with Some (inst, _) -> Instance.n inst | None -> 0 in
      if n > 0 && Prng.float rng 1.0 < 0.3 then begin
        let victim = n - 1 - Prng.int rng n in
        state :=
          match !state with
          | Some (inst, p) when n > 1 ->
            let inst, map = Delta.apply_mapped inst [ Delta.Remove_vertex victim ] in
            let q = Array.make (n - 1) 0 in
            Array.iteri (fun v l -> if map.(v) >= 0 then q.(map.(v)) <- l) p;
            Some (inst, q)
          | _ -> None
      end
      else begin
        let edges = List.init (min n 4) (fun i -> (n - 1 - i, 1. +. Prng.float rng 9.)) in
        let demand = 0.05 +. Prng.float rng 0.25 in
        let inst', p, loads =
          match !state with
          | Some (inst, p) ->
            (Delta.apply inst [ Delta.Add_vertex (demand, edges) ], p, Cost.leaf_loads inst p)
          | None ->
            ( Instance.create (Graph.of_edges 1 []) ~demands:[| demand |] hy,
              [||],
              Array.make (H.num_leaves hy) 0. )
        in
        let leaf = place_greedy hy ~slack:1.25 ~loads ~placed:p demand edges in
        state := Some (inst', Array.append p [| leaf |])
      end;
      if resolve_period > 0 && event mod resolve_period = 0 then rebalance ();
      cost_samples := cost () :: !cost_samples
    done;
    (Stats.mean (Array.of_list !cost_samples), cost (), !migrations)
  in
  let rows =
    List.map
      (fun (name, period) ->
        let mean_cost, final_cost, migrations = run_policy ~resolve_period:period 14 in
        [ name; fmt mean_cost; fmt final_cost; string_of_int migrations ])
      [ ("greedy only", 0); ("rebalance/50", 50); ("rebalance/20", 20); ("rebalance/10", 10) ]
  in
  Tablefmt.print
    ~title:"E14  online churn (150 events): placement quality vs migration volume"
    ~header:[ "policy"; "mean cost"; "final cost"; "migrations" ]
    rows

(* ------------------------------------------------------------------ *)
(* E15 — resilience: supervisor overhead, deadline adherence, and the  *)
(* degradation ladder under injected faults (docs/ROBUSTNESS.md).      *)

let e15_resilience () =
  let hy = H.Presets.dual_socket in
  let make n =
    let rng = Prng.create (1500 + n) in
    let g = Gen.gnp_connected rng n (6.0 /. float_of_int n) in
    Instance.uniform_demands g hy ~load_factor:0.7
  in
  let options = { Solver.default_options with ensemble_size = 2; seed = 15 } in
  let fallbacks =
    [
      ( "portfolio",
        fun inst ->
          (B.Portfolio.solve ~include_hgp:false (Prng.create 15) inst ~slack:1.25
             ~refine_passes:2)
            .best.B.Portfolio.assignment );
      ( "recursive-bisection",
        fun inst -> B.Recursive_bisection.assign (Prng.create 15) inst ~slack:1.25 );
    ]
  in
  let supervised ?deadline_ms inst =
    match Solver.solve_supervised ~options ?deadline_ms ~fallbacks inst with
    | Ok s -> s
    | Error e -> failwith (Hgp_resilience.Hgp_error.to_string e)
  in
  (* (a) Happy-path overhead: the supervisor's isolation fences and the
     final re-certification versus the raw pipeline. *)
  let overhead_rows =
    List.map
      (fun n ->
        let inst = make n in
        let sol, t_plain = time (fun () -> Solver.solve ~options inst) in
        let sup, t_sup = time (fun () -> supervised inst) in
        [ string_of_int n; fmt sol.cost; fmt sup.Solver.solution.cost; sup.Solver.rung;
          Printf.sprintf "%.3f" t_plain; Printf.sprintf "%.3f" t_sup;
          Printf.sprintf "%+.0f%%"
            (100. *. (t_sup -. t_plain) /. Float.max 1e-9 t_plain) ])
      [ 64; 144; 256 ]
  in
  Tablefmt.print ~title:"E15a  supervisor overhead (no faults, no deadline)"
    ~header:[ "n"; "plain cost"; "sup cost"; "rung"; "plain (s)"; "sup (s)"; "overhead" ]
    overhead_rows;
  (* (b) Deadline adherence: observed wall time must track the budget, and
     tighter budgets must descend to cheaper rungs, never fail. *)
  let inst = make 400 in
  let deadline_rows =
    List.map
      (fun budget_ms ->
        let sup, dt = time (fun () -> supervised ~deadline_ms:budget_ms inst) in
        [ Printf.sprintf "%.0f" budget_ms; Printf.sprintf "%.0f" (dt *. 1e3);
          sup.Solver.rung; string_of_bool sup.Solver.degraded;
          Printf.sprintf "%.2f" sup.Solver.solution.max_violation ])
      [ 5.; 25.; 100.; 1000.; 10000. ]
  in
  Tablefmt.print
    ~title:"E15b  deadline adherence on n=400 (wall time vs budget; winning rung)"
    ~header:[ "budget (ms)"; "observed (ms)"; "rung"; "degraded"; "violation" ]
    deadline_rows;
  (* (c) Degradation ladder under injected faults: every plan must end in a
     certified assignment, stepping down only as far as the faults force. *)
  let plan s = Result.get_ok (Hgp_resilience.Faults.parse s) in
  let inst = make 144 in
  let fault_rows =
    List.map
      (fun (label, p) ->
        let sup =
          match p with
          | None -> supervised inst
          | Some p -> Hgp_resilience.Faults.with_plan (plan p) (fun () -> supervised inst)
        in
        [ label; sup.Solver.rung;
          string_of_int (List.length sup.Solver.tree_failures);
          fmt sup.Solver.solution.cost;
          Printf.sprintf "%.2f" sup.Solver.solution.max_violation ])
      [
        ("none", None);
        ("one tree crashes", Some "seed=7;tree_dp.solve=crash@1");
        ("every build crashes", Some "seed=7;decomposition.build=crash");
        ("packer drops a leaf", Some "seed=7;feasible.pack=corrupt");
        ("DP corrupts kappa", Some "seed=7;tree_dp.solve=corrupt");
      ]
  in
  Tablefmt.print
    ~title:"E15c  degradation ladder under injected faults (n=144; all certified)"
    ~header:[ "fault plan"; "rung"; "tree failures"; "cost"; "violation" ]
    fault_rows

(* ------------------------------------------------------------------ *)
(* E16 — artifact reuse: cold vs warm latency, cache hit rate over a   *)
(* repeated solve / a portfolio rerun / an eps sweep                   *)
(* (docs/ARCHITECTURE.md).                                             *)

let e16_artifact_reuse () =
  let hy = H.Presets.dual_socket in
  let rng = Prng.create 1600 in
  let g = Gen.gnp_connected rng 200 0.03 in
  let inst = Instance.uniform_demands g hy ~load_factor:0.7 in
  let options = { Solver.default_options with ensemble_size = 2; seed = 16 } in
  let combined () =
    List.fold_left
      (fun (h, m) (_, st) ->
        (h + st.Hgp_util.Lru.hits, m + st.Hgp_util.Lru.misses))
      (0, 0) (Pipeline.cache_stats ())
  in
  let pct h m = Printf.sprintf "%.0f%%" (100. *. float_of_int h /. float_of_int (max 1 (h + m))) in
  (* (a) Repeated solve: one cold, three warm.  The warm runs must be served
     from the packed cache, bit-identical to the cold answer. *)
  Pipeline.clear_caches ();
  Pipeline.reset_cache_stats ();
  let cold, t_cold = time (fun () -> Solver.solve ~options inst) in
  let warms = List.init 3 (fun _ -> time (fun () -> Solver.solve ~options inst)) in
  let t_warm = List.fold_left (fun acc (_, t) -> acc +. t) 0. warms /. 3. in
  let identical =
    List.for_all (fun ((w : Solver.solution), _) -> w.assignment = cold.Solver.assignment) warms
  in
  let a_hits, a_misses = combined () in
  (* (b) The same portfolio run twice: the second run's hgp candidate reuses
     both artifacts. *)
  Pipeline.clear_caches ();
  Pipeline.reset_cache_stats ();
  let solve_portfolio () =
    B.Portfolio.solve ~solver_options:options (Prng.create 16) inst ~slack:1.25
      ~refine_passes:1
  in
  let _, t_p1 = time solve_portfolio in
  let _, t_p2 = time solve_portfolio in
  let b_hits, b_misses = combined () in
  (* (c) An eps sweep re-packs per eps (the prepared key digests eps) but
     never re-samples the embedding (the ensemble key does not). *)
  Pipeline.reset_cache_stats ();
  let _, t_sweep =
    time (fun () ->
        List.iter
          (fun eps -> ignore (Solver.solve ~options:{ options with eps } inst))
          [ 0.2; 0.3; 0.4; 0.5 ])
  in
  let e_st = List.assoc "ensemble" (Pipeline.cache_stats ()) in
  let rows =
    [
      [ "repeated solve (1 cold + 3 warm)"; Printf.sprintf "%.3f" t_cold;
        Printf.sprintf "%.4f" t_warm; Printf.sprintf "%.0fx" (t_cold /. Float.max 1e-9 t_warm);
        Printf.sprintf "%d/%d" a_hits (a_hits + a_misses); pct a_hits a_misses ];
      [ "portfolio rerun"; Printf.sprintf "%.3f" t_p1; Printf.sprintf "%.3f" t_p2;
        Printf.sprintf "%.1fx" (t_p1 /. Float.max 1e-9 t_p2);
        Printf.sprintf "%d/%d" b_hits (b_hits + b_misses); pct b_hits b_misses ];
      [ "eps sweep x4 (embed reuse)"; Printf.sprintf "%.3f" t_sweep; "-"; "-";
        Printf.sprintf "ens %d/%d" e_st.Hgp_util.Lru.hits
          (e_st.Hgp_util.Lru.hits + e_st.Hgp_util.Lru.misses);
        pct e_st.Hgp_util.Lru.hits e_st.Hgp_util.Lru.misses ];
    ]
  in
  Tablefmt.print
    ~title:
      (Printf.sprintf
         "E16  artifact reuse on n=200 gnp/dual_socket (warm bit-identical: %b)" identical)
    ~header:[ "scenario"; "cold (s)"; "warm (s)"; "speedup"; "cache hits"; "hit rate" ]
    rows

(* ------------------------------------------------------------------ *)
(* E17 — batch solve service: 32 requests (8 distinct x 4 duplicates)  *)
(* through the sharded scheduler over 4 workers, versus solving each   *)
(* request one-shot with cold caches.  Responses must be bit-identical *)
(* to the one-shot answers (docs/SERVING.md).                          *)

module Protocol = Hgp_server.Protocol
module Server = Hgp_server.Server

let e17_batch_service () =
  let hy = H.Presets.dual_socket in
  let distinct = 8 and dups = 4 and workers = 4 in
  let insts =
    Array.init distinct (fun i ->
        let rng = Prng.create (1700 + i) in
        Instance.uniform_demands (Gen.gnp_connected rng 150 0.04) hy ~load_factor:0.7)
  in
  let options i = { Solver.default_options with ensemble_size = 2; seed = 1700 + i } in
  (* Sequential one-shot: every request solved in isolation, nothing shared
     (caches cleared per request, as separate processes would behave). *)
  let reference = Array.make distinct [||] in
  let (), t_seq =
    time (fun () ->
        for d = 0 to dups - 1 do
          for i = 0 to distinct - 1 do
            Pipeline.clear_caches ();
            let s = Solver.solve ~options:(options i) insts.(i) in
            if d = 0 then reference.(i) <- s.Solver.assignment
          done
        done)
  in
  (* The same 32 requests as one batch over the service. *)
  Pipeline.clear_caches ();
  let server = Server.create ~config:{ Server.workers; queue_limit = 64; slack = 1.25 } () in
  let identical = ref true in
  let responses = ref [] in
  let (), t_batch =
    time (fun () ->
        for d = 0 to dups - 1 do
          for i = 0 to distinct - 1 do
            match
              Server.submit_any server
                (Protocol.Solve
                   (Protocol.inline_request
                      ~id:(Printf.sprintf "i%d-d%d" i d)
                      ~trees:2 ~seed:(1700 + i) insts.(i)))
            with
            | `Admitted -> ()
            | `Rejected r -> failwith ("E17: rejected " ^ Protocol.response_to_line r)
          done
        done;
        responses := Server.drain server)
  in
  List.iter
    (fun (r : Protocol.response) ->
      match r.Protocol.outcome with
      | Protocol.Solved s ->
        let i = Scanf.sscanf r.Protocol.id "i%d-d%d" (fun i _ -> i) in
        if s.Protocol.assignment <> reference.(i) then identical := false
      | Protocol.Updated _ -> failwith ("E17: unexpected update response " ^ r.Protocol.id)
      | Protocol.Failed e ->
        failwith ("E17: " ^ r.Protocol.id ^ " failed: " ^ Hgp_resilience.Hgp_error.to_string e))
    !responses;
  let st = Server.stats server in
  ignore (Server.shutdown server);
  Tablefmt.print
    ~title:
      (Printf.sprintf
         "E17  batch service: %d reqs (%dx%d) on %d workers (bit-identical: %b)"
         (distinct * dups) distinct dups workers !identical)
    ~header:[ "mode"; "total (s)"; "speedup"; "coalesced"; "cache hits"; "steals" ]
    [
      [ "sequential one-shot"; Printf.sprintf "%.3f" t_seq; "1.0x"; "-"; "-"; "-" ];
      [ "batch service"; Printf.sprintf "%.3f" t_batch;
        Printf.sprintf "%.1fx" (t_seq /. Float.max 1e-9 t_batch);
        string_of_int st.Server.coalesced; string_of_int st.Server.cache_hits;
        string_of_int st.Server.steals ];
    ]

(* ------------------------------------------------------------------ *)
(* E18 — flat DP kernel: the workspace/arena rewrite of Tree_dp.solve  *)
(* against the Hashtbl reference implementation it replaced (kept as   *)
(* the differential oracle in test/support).  Same instance as the     *)
(* tree_dp.solve_large microbench: n=256, uniform 4^3 hierarchy,       *)
(* resolution 8, beam 512.  Cold = fresh workspace per solve; warm =   *)
(* one lease reused across solves (the pipeline's steady state).       *)

module Ref_dp = Test_support.Tree_dp_reference
module Workspace = Hgp_util.Workspace

let e18_dp_kernel () =
  let rng = Prng.create 1800 in
  let g = Gen.randomize_weights rng (Gen.gnp_connected rng 256 0.05) ~lo:1.0 ~hi:5.0 in
  let d = Hgp_racke.Decomposition.build (Prng.create 2) g in
  let tree = Hgp_racke.Decomposition.tree d in
  let demand_units = Array.make (Tree.n_nodes tree) 0 in
  Array.iter (fun l -> demand_units.(l) <- 1) (Tree.leaves tree);
  let cfg =
    Tree_dp.config_of_hierarchy
      (H.Presets.uniform ~branching:4 ~height:3)
      ~resolution:8 ~beam_width:512 ()
  in
  let iters = 5 in
  (* Median wall time and mean allocation over [iters] runs of [f]. *)
  let measure f =
    let samples =
      List.init iters (fun _ ->
          let b0 = Gc.allocated_bytes () in
          let r, dt = time f in
          (r, dt, Gc.allocated_bytes () -. b0))
    in
    let times = List.map (fun (_, dt, _) -> dt) samples |> List.sort compare in
    let med = List.nth times (iters / 2) in
    let bytes =
      List.fold_left (fun acc (_, _, b) -> acc +. b) 0. samples /. float_of_int iters
    in
    let r, _, _ = List.hd samples in
    (r, med, bytes)
  in
  let ref_r, t_ref, b_ref = measure (fun () -> Ref_dp.solve tree ~demand_units cfg) in
  let cold_r, t_cold, b_cold =
    measure (fun () ->
        (* a private fresh workspace: every arena starts at seed capacity *)
        let lease = { Workspace.workspace = Workspace.create (); slot = None } in
        Tree_dp.solve ~workspace:lease tree ~demand_units cfg)
  in
  let warm_lease = Workspace.acquire () in
  let warm_r, t_warm, b_warm =
    measure (fun () -> Tree_dp.solve ~workspace:warm_lease tree ~demand_units cfg)
  in
  Workspace.release warm_lease;
  let cost = function
    | Some (r : Tree_dp.result) -> r.cost
    | None -> nan
  in
  let identical =
    match (ref_r, cold_r, warm_r) with
    | Some a, Some b, Some c ->
      Float.equal a.Tree_dp.cost b.Tree_dp.cost
      && Float.equal a.Tree_dp.cost c.Tree_dp.cost
      && a.Tree_dp.kappa = b.Tree_dp.kappa
      && a.Tree_dp.kappa = c.Tree_dp.kappa
      && a.Tree_dp.states_explored = b.Tree_dp.states_explored
    | _ -> false
  in
  (* Recorded in BENCH_obs.jsonl (bench/main.ml dumps the registry at
     exit) so the kernel's before/after is tracked alongside counters. *)
  Hgp_obs.Obs.gauge "e18.reference_ms" (t_ref *. 1000.);
  Hgp_obs.Obs.gauge "e18.cold_ms" (t_cold *. 1000.);
  Hgp_obs.Obs.gauge "e18.warm_ms" (t_warm *. 1000.);
  Hgp_obs.Obs.gauge "e18.reference_bytes" b_ref;
  Hgp_obs.Obs.gauge "e18.cold_bytes" b_cold;
  Hgp_obs.Obs.gauge "e18.warm_bytes" b_warm;
  let mb b = Printf.sprintf "%.2f" (b /. 1e6) in
  let row name t b r =
    [ name; Printf.sprintf "%.4f" t; mb b; Printf.sprintf "%.1fx" (t_ref /. Float.max 1e-9 t);
      Printf.sprintf "%.1fx" (b_ref /. Float.max 1. b);
      fmt (cost r) ]
  in
  Tablefmt.print
    ~title:
      (Printf.sprintf
         "E18  flat DP kernel vs Hashtbl reference, n=256 beam=512 (bit-identical: %b)"
         identical)
    ~header:[ "variant"; "time (s)"; "alloc MB/solve"; "speedup"; "alloc ratio"; "cost" ]
    [
      row "reference (Hashtbl)" t_ref b_ref ref_r;
      row "flat kernel, cold ws" t_cold b_cold cold_r;
      row "flat kernel, warm ws" t_warm b_warm warm_r;
    ]

(* ------------------------------------------------------------------ *)
(* E19 — the multilevel V-cycle front-end (docs/MULTILEVEL.md) vs the  *)
(* exact pipeline at scale, on stream DAGs from n=256 to n=10^6.  The  *)
(* exact attempt runs under the supervisor's cooperative deadline: if  *)
(* the full-ensemble rung cannot finish inside the cap, the row        *)
(* reports the cap as a lower bound on its time (at 10^5 the exact     *)
(* path was still running after 15 minutes when probed unbounded; the  *)
(* 10^6 attempt is skipped outright).                                  *)

module V = Hgp_multilevel.Vcycle

let e19_multilevel_vcycle () =
  let hy = H.Presets.dual_socket in
  let solver = { Solver.default_options with ensemble_size = 2; seed = 19 } in
  let vopts = { V.default_options with solver } in
  let exact_cap = 120. (* seconds *) in
  let make n_sources =
    let rng = Prng.create (1900 + n_sources) in
    let w =
      Hgp_workloads.Stream_dag.generate rng
        { Hgp_workloads.Stream_dag.default_params with n_sources }
    in
    Hgp_workloads.Stream_dag.to_instance w hy ~load_factor:0.6
  in
  (* n_sources is the generator knob; the emitted DAG lands near 5.5
     vertices per source. *)
  let sizes =
    [ ("256", 47, `Exact); ("1e4", 1830, `Capped); ("1e5", 18300, `Capped);
      ("1e6", 185000, `Skip) ]
  in
  let rows =
    List.map
      (fun (label, n_sources, exact_mode) ->
        let inst = make n_sources in
        let n = Instance.n inst in
        Pipeline.clear_caches ();
        let r_cold, t_cold = time (fun () -> V.solve ~options:vopts inst) in
        let _, t_warm = time (fun () -> V.solve ~options:vopts inst) in
        let refine_delta =
          List.fold_left
            (fun acc (lr : V.level_report) -> acc +. lr.V.gain)
            0. r_cold.V.level_reports
        in
        let cert = r_cold.V.coarse_certificate in
        let exact_s, speedup_s =
          let capped () =
            ( Printf.sprintf "> %.0f" exact_cap,
              Printf.sprintf "> %.0fx" (exact_cap /. Float.max 1e-9 t_cold) )
          in
          match exact_mode with
          | `Skip -> ("skipped", "-")
          | `Exact | `Capped -> (
            Pipeline.clear_caches ();
            let res, t_exact =
              time (fun () ->
                  Solver.solve_supervised ~options:solver
                    ~deadline_ms:(exact_cap *. 1000.) inst)
            in
            match res with
            | Ok sup when sup.Solver.rung = "ensemble" && not sup.Solver.degraded ->
              ( Printf.sprintf "%.2f" t_exact,
                Printf.sprintf "%.0fx" (t_exact /. Float.max 1e-9 t_cold) )
            | _ ->
              (* The full rung missed the cap and a cheaper rung answered:
                 the cap is a lower bound on the exact path's time. *)
              capped ())
        in
        Hgp_obs.Obs.gauge (Printf.sprintf "e19.vcycle_cold_ms.%s" label) (t_cold *. 1000.);
        Hgp_obs.Obs.gauge (Printf.sprintf "e19.vcycle_warm_ms.%s" label) (t_warm *. 1000.);
        Hgp_obs.Obs.gauge (Printf.sprintf "e19.coarsening_ratio.%s" label)
          r_cold.V.coarsening_ratio;
        Hgp_obs.Obs.gauge (Printf.sprintf "e19.refine_delta.%s" label) refine_delta;
        [
          label; string_of_int n; exact_s; Printf.sprintf "%.2f" t_cold;
          Printf.sprintf "%.3f" t_warm; speedup_s; string_of_int r_cold.V.levels;
          Printf.sprintf "%.0f" r_cold.V.coarsening_ratio;
          Printf.sprintf "%.0f" refine_delta;
          (if cert.Hgp_core.Verify.within_theorem_bound then "YES" else "NO");
        ])
      sizes
  in
  Tablefmt.print
    ~title:
      (Printf.sprintf
         "E19  multilevel V-cycle vs exact pipeline on stream DAGs (exact capped at %.0fs)"
         exact_cap)
    ~header:
      [ "size"; "n"; "exact (s)"; "vcycle cold (s)"; "warm (s)"; "speedup";
        "levels"; "ratio"; "refine delta"; "certified" ]
    rows

(* ------------------------------------------------------------------ *)
(* E20 — FM gain-bucket refinement vs the greedy pass, on the E19      *)
(* stream-DAG scale points, over a regular and a ragged hierarchy.    *)
(* The FM engine is stacked (warm-started from the greedy fixed        *)
(* point, docs/MULTILEVEL.md), so its final                            *)
(* cost must never exceed greedy's — the ledger enforces that at       *)
(* every scale point, re-verifies every level in-band through the      *)
(* on_level hook, and checks per-level cost monotonicity from the      *)
(* level reports.                                                      *)

module Refine = Hgp_multilevel.Refine

let e20_fm_refinement () =
  let solver = { Solver.default_options with ensemble_size = 2; seed = 20 } in
  let hierarchies =
    [ ("dual_socket", H.Presets.dual_socket); ("ragged_rack", H.Presets.ragged_rack) ]
  in
  (* n_sources is the stream generator's knob; the DAG lands near 5.5
     vertices per source (same calibration as E19). *)
  let sizes = [ ("1e4", 1830); ("1e5", 18300); ("1e6", 185000) ] in
  let make hy n_sources =
    let rng = Prng.create (2000 + n_sources) in
    let w =
      Hgp_workloads.Stream_dag.generate rng
        { Hgp_workloads.Stream_dag.default_params with n_sources }
    in
    Hgp_workloads.Stream_dag.to_instance w hy ~load_factor:0.6
  in
  let rows =
    List.concat_map
      (fun (hname, hy) ->
        List.map
          (fun (label, n_sources) ->
            let inst = make hy n_sources in
            let n = Instance.n inst in
            Pipeline.clear_caches ();
            let levels_checked = ref 0 in
            let on_level level slack csr a =
              if not (Refine.in_band csr hy a ~slack) then
                failwith
                  (Printf.sprintf "E20 %s/%s: level %d assignment out of band"
                     hname label level);
              incr levels_checked
            in
            let run refine_algo =
              let vopts = { V.default_options with solver; refine_algo; on_level } in
              time (fun () -> V.solve ~options:vopts inst)
            in
            (* Greedy cold; the FM run reuses the cached coarsening chain
               (its key is independent of the refinement options), so the
               two runs differ only in how levels are polished. *)
            let rg, tg = run Refine.Greedy in
            let rf, tf = run (Refine.Fm { hill_climb = true }) in
            let cost (r : V.result) = r.V.solution.Pipeline.cost in
            let cg = cost rg and cf = cost rf in
            (* The acceptance bar: stacked FM never costlier than greedy at
               any scale point, on either hierarchy. *)
            if cf > cg +. 1e-6 then
              failwith
                (Printf.sprintf "E20 %s/%s: fm cost %.3f regressed past greedy %.3f"
                   hname label cf cg);
            let monotone =
              List.for_all
                (fun (lr : V.level_report) ->
                  lr.V.cost_after <= lr.V.cost_before +. 1e-9)
                rf.V.level_reports
            in
            let delta_pct =
              if cg > 1e-9 then (cg -. cf) /. cg *. 100. else 0.
            in
            let certified =
              rf.V.coarse_certificate.Hgp_core.Verify.within_theorem_bound
            in
            let g sub v =
              Hgp_obs.Obs.gauge
                (Printf.sprintf "e20.%s.%s.%s" sub hname label) v
            in
            g "cost_greedy" cg;
            g "cost_fm" cf;
            g "fm_ms" (tf *. 1000.);
            [
              hname; label; string_of_int n;
              Printf.sprintf "%.1f" cg; Printf.sprintf "%.2f" tg;
              Printf.sprintf "%.1f" cf; Printf.sprintf "%.2f" tf;
              Printf.sprintf "%.1f%%" delta_pct;
              string_of_int !levels_checked;
              (if monotone then "YES" else "NO");
              (if certified then "YES" else "NO");
            ])
          sizes)
      hierarchies
  in
  Tablefmt.print
    ~title:
      "E20  FM refinement (stacked, hill-climb) vs greedy on stream DAGs; \
       every level re-verified in-band"
    ~header:
      [ "hierarchy"; "size"; "n"; "greedy"; "(s)"; "fm"; "(s)"; "delta";
        "bands ok"; "monotone"; "certified" ]
    rows

(* ------------------------------------------------------------------ *)
(* E21 — incremental re-partitioning (docs/INCREMENTAL.md).  Part A:    *)
(* single-edge reweights against a warm multilevel session vs a         *)
(* cache-disabled cold solve on the post-delta instance — the cold run  *)
(* doubles as the bit-identity oracle, and every re-solve must come     *)
(* back certified.  Part B: drift streams (reweights + periodic         *)
(* structural edits) through Des.run_drift, on exact sessions (V-cycle  *)
(* threshold max_int, never coarsening) and multilevel ones,            *)
(* with the amortized incremental/cold ratio in the ledger.  The        *)
(* timing gate itself lives in CI (hgp_cli drift --assert-amortized);   *)
(* here only a conservative 5x tripwire guards the 1e5 speedup claim    *)
(* against wholesale regressions of the fast path; it fails the run     *)
(* after the table is printed.                                          *)

module Des = Hgp_sim.Des

let e21_incremental () =
  let hy = H.Presets.dual_socket in
  let solver = { Solver.default_options with ensemble_size = 2; seed = 21 } in
  let vopts = { V.default_options with solver } in
  let make n_sources =
    let rng = Prng.create (2100 + n_sources) in
    let w =
      Hgp_workloads.Stream_dag.generate rng
        { Hgp_workloads.Stream_dag.default_params with n_sources }
    in
    Hgp_workloads.Stream_dag.to_instance w hy ~load_factor:0.6
  in
  (* The speedup tripwire fails the run only after the whole table is
     printed, so a slow host still reports every row. *)
  let tripped = ref None in
  let single_rows =
    List.map
      (fun (label, n_sources) ->
        let inst = make n_sources in
        let n = Instance.n inst in
        Pipeline.clear_caches ();
        let sess, _ = V.start_session ~options:vopts inst in
        let rng = Prng.create (31 + n_sources) in
        let steps = 3 in
        let t_incr = ref 0. and resolved = ref 0 and reused = ref 0 in
        let certified = ref true in
        for _ = 1 to steps do
          let delta =
            Des.drift_delta rng (V.session_instance sess) ~edits:1
              ~magnitude:0.05 ~structural:false
          in
          let rep, dt = time (fun () -> V.resolve_delta sess delta) in
          t_incr := !t_incr +. dt;
          resolved := !resolved + rep.V.u_resolved_subtrees;
          reused := !reused + rep.V.u_reused_subtrees;
          certified := !certified && rep.V.u_certified
        done;
        let mean_incr = !t_incr /. float_of_int steps in
        (* the oracle: a cold solve of the drifted instance with every
           cache bypassed must be bit-identical to the session's state *)
        let cold, t_cold =
          Artifact_cache.set_enabled false;
          Fun.protect
            ~finally:(fun () -> Artifact_cache.set_enabled true)
            (fun () -> time (fun () -> V.solve ~options:vopts (V.session_instance sess)))
        in
        let identical =
          cold.V.solution.Pipeline.assignment = V.session_assignment sess
        in
        if not identical then
          failwith
            (Printf.sprintf "E21 %s: incremental state diverged from cold" label);
        if not !certified then
          failwith (Printf.sprintf "E21 %s: uncertified incremental result" label);
        let speedup = t_cold /. Float.max 1e-9 mean_incr in
        if label = "1e5" && speedup < 5. then
          tripped :=
            Some
              (Printf.sprintf
                 "E21 %s: single-edge re-solve only %.1fx faster than cold" label
                 speedup);
        Hgp_obs.Obs.gauge (Printf.sprintf "e21.incr_ms.%s" label)
          (mean_incr *. 1000.);
        Hgp_obs.Obs.gauge (Printf.sprintf "e21.cold_ms.%s" label) (t_cold *. 1000.);
        Hgp_obs.Obs.gauge (Printf.sprintf "e21.speedup.%s" label) speedup;
        [
          "single-edge"; label; string_of_int n; Printf.sprintf "%.2f" t_cold;
          Printf.sprintf "%.1f" (mean_incr *. 1000.);
          Printf.sprintf "%.1fx" speedup;
          string_of_int (!resolved / steps); string_of_int (!reused / steps);
          "-"; "YES"; "YES";
        ])
      [ ("1e4", 1830); ("1e5", 18300) ]
  in
  let drift_rows =
    List.map
      (fun (kind, label, n_sources, options, params) ->
        let inst = make n_sources in
        let n = Instance.n inst in
        Pipeline.clear_caches ();
        let rng = Prng.create (77 + n_sources) in
        let r = Des.run_drift ~params rng inst options in
        if not r.Des.d_all_identical then
          failwith (Printf.sprintf "E21 drift %s: diverged from cold" label);
        if not r.Des.d_all_certified then
          failwith (Printf.sprintf "E21 drift %s: uncertified step" label);
        Hgp_obs.Obs.gauge (Printf.sprintf "e21.amortized.%s.%s" kind label)
          r.Des.d_amortized;
        [
          Printf.sprintf "drift/%s" kind; label; string_of_int n;
          Printf.sprintf "%.2f" (r.Des.d_mean_cold_ms /. 1000.);
          Printf.sprintf "%.1f" r.Des.d_mean_incr_ms;
          Printf.sprintf "%.0f%%" (r.Des.d_amortized *. 100.);
          "-"; "-";
          Printf.sprintf "%d" r.Des.d_final_n;
          "YES"; "YES";
        ])
      [
        ( "exact", "1e3", 180,
          { vopts with V.threshold = max_int },
          { Des.default_drift_params with Des.steps = 8; structural_every = 4;
            cold_every = 4 } );
        ( "vcycle", "1e4", 1830,
          vopts,
          { Des.default_drift_params with Des.steps = 10; structural_every = 5;
            cold_every = 5 } );
        ( "vcycle", "1e5", 18300,
          vopts,
          { Des.default_drift_params with Des.steps = 10; magnitude = 0.05;
            cold_every = 5 } );
      ]
  in
  Tablefmt.print
    ~title:
      "E21  incremental re-partitioning: session re-solves vs cache-disabled \
       cold solves (bit-identity enforced, all steps certified)"
    ~header:
      [ "mode"; "size"; "n"; "cold (s)"; "incr (ms)"; "speedup"; "resolved";
        "reused"; "final n"; "identical"; "certified" ]
    (single_rows @ drift_rows);
  Option.iter failwith !tripped

let run_all () =
  let experiments =
    [
      ("E1", e1_cost_identity);
      ("E2", e2_normalization);
      ("E3", e3_tree_dp_optimal);
      ("E4", e4_capacity_violation);
      ("E5", e5_approx_ratio);
      ("E6", e6_tree_distortion);
      ("E7", e7_baseline_compare);
      ("E8", e8_dp_scaling);
      ("E9", e9_ensemble_ablation);
      ("E10", e10_bucketing_ablation);
      ("E11", e11_strategy_ablation);
      ("E12", e12_simulation_correlation);
      ("E13", e13_pipeline_scaling);
      ("E14", e14_dynamic_churn);
      ("E15", e15_resilience);
      ("E16", e16_artifact_reuse);
      ("E17", e17_batch_service);
      ("E18", e18_dp_kernel);
      ("E19", e19_multilevel_vcycle);
      ("E20", e20_fm_refinement);
      ("E21", e21_incremental);
    ]
  in
  List.iter
    (fun (name, f) ->
      let (), dt = time f in
      Printf.printf "[%s completed in %.1fs]\n%!" name dt)
    experiments
