(* Bechamel micro-benchmarks for the computational kernels.

   Kernels are measured with telemetry collection disabled (the default
   production posture) so times stay comparable across commits; the obs.*
   entries measure the telemetry layer itself in both postures. *)

open Bechamel
module Gen = Hgp_graph.Generators
module H = Hgp_hierarchy.Hierarchy
module Tree = Hgp_tree.Tree
module Instance = Hgp_core.Instance
module Prng = Hgp_util.Prng
module Obs = Hgp_obs.Obs

let tests () =
  let rng = Prng.create 4242 in
  (* Fixed inputs, built once. *)
  let g = Gen.randomize_weights rng (Gen.gnp_connected rng 64 0.12) ~lo:1.0 ~hi:5.0 in
  let hy = H.Presets.dual_socket in
  let inst = Instance.uniform_demands g hy ~load_factor:0.7 in
  let decomposition = Hgp_racke.Decomposition.build (Prng.create 1) g in
  let tree = Hgp_racke.Decomposition.tree decomposition in
  let demand_units = Array.make (Tree.n_nodes tree) 0 in
  (* 1 unit per job: 64 units against CP(0) = 8 * 16 = 128 — feasible. *)
  Array.iter (fun l -> demand_units.(l) <- 1) (Tree.leaves tree);
  let cfg = Hgp_core.Tree_dp.config_of_hierarchy hy ~resolution:8 ~beam_width:256 () in
  let assignment = Array.init 64 (fun v -> v mod 16) in
  [
    Test.make ~name:"decomposition.build"
      (Staged.stage (fun () -> Hgp_racke.Decomposition.build (Prng.create 7) g));
    Test.make ~name:"tree_dp.solve"
      (Staged.stage (fun () -> Hgp_core.Tree_dp.solve tree ~demand_units cfg));
    (let rng = Prng.create 777 in
     let g_large =
       Gen.randomize_weights rng (Gen.gnp_connected rng 256 0.05) ~lo:1.0 ~hi:5.0
     in
     let d_large = Hgp_racke.Decomposition.build (Prng.create 2) g_large in
     let tree_large = Hgp_racke.Decomposition.tree d_large in
     let demand_large = Array.make (Tree.n_nodes tree_large) 0 in
     Array.iter (fun l -> demand_large.(l) <- 1) (Tree.leaves tree_large);
     (* 256 units against CP(0) = 8 * 64 = 512 on uniform 4^3. *)
     let cfg_large =
       Hgp_core.Tree_dp.config_of_hierarchy
         (H.Presets.uniform ~branching:4 ~height:3)
         ~resolution:8 ~beam_width:512 ()
     in
     Test.make ~name:"tree_dp.solve_large"
       (Staged.stage (fun () ->
            Hgp_core.Tree_dp.solve tree_large ~demand_units:demand_large cfg_large)));
    (* Arena kernels in isolation: the merge table's insert/probe cycle and
       the sorted-prune permutation pass. *)
    (let tbl = Hgp_util.Arena.Table.create ~capacity:1024 () in
     Test.make ~name:"arena.table_upsert"
       (Staged.stage (fun () ->
            Hgp_util.Arena.Table.clear tbl;
            for i = 0 to 511 do
              ignore
                (Hgp_util.Arena.Table.upsert tbl ((i * 7919) land 4095)
                   (float_of_int (i land 63))
                   i (i + 1) 0)
            done;
            Hgp_util.Arena.Table.size tbl)));
    (let rng = Prng.create 99 in
     let m = 512 in
     (* Costs drawn from 64 values, so cost ties fall back to the key. *)
     let costs = Array.init m (fun _ -> float_of_int (Prng.int rng 64)) in
     let keys = Array.init m (fun i -> (i * 7919) land 0xFFFFF) in
     let perm = Array.make m 0 in
     Test.make ~name:"arena.sort_perm"
       (Staged.stage (fun () ->
            for i = 0 to m - 1 do
              perm.(i) <- i
            done;
            Hgp_util.Arena.heapify_perm_min perm m costs keys;
            for k = 0 to m - 1 do
              ignore (Hgp_util.Arena.pop_perm_min perm (m - k) costs keys : int)
            done;
            perm.(0))));
    Test.make ~name:"cost.assignment"
      (Staged.stage (fun () -> Hgp_core.Cost.assignment_cost inst assignment));
    Test.make ~name:"cost.mirror"
      (Staged.stage (fun () -> Hgp_core.Cost.mirror_cost inst assignment));
    Test.make ~name:"maxflow.dinic"
      (Staged.stage (fun () -> Hgp_flow.Maxflow.min_cut_value g ~src:0 ~dst:63));
    Test.make ~name:"multilevel.partition"
      (Staged.stage (fun () ->
           Hgp_baselines.Multilevel.partition (Prng.create 3) g
             ~demands:inst.Instance.demands ~k:16 ~capacity:1.25));
    Test.make ~name:"treecut.min_cut"
      (Staged.stage (fun () ->
           Hgp_tree.Treecut.min_cut_weight tree ~in_set:(fun l -> l mod 2 = 0)));
    (* Telemetry layer itself: the disabled case is the overhead every
       instrumented call site pays in production. *)
    Test.make ~name:"obs.span_disabled"
      (Staged.stage (fun () -> Obs.span "bench.probe" (fun () -> Sys.opaque_identity 0)));
    Test.make ~name:"obs.span_enabled"
      (Staged.stage (fun () ->
           Obs.enable ();
           let r = Obs.span "bench.probe" (fun () -> Sys.opaque_identity 0) in
           Obs.disable ();
           r));
    Test.make ~name:"obs.count_enabled"
      (Staged.stage (fun () ->
           Obs.enable ();
           Obs.count "bench.counter" 1;
           Obs.disable ()));
  ]

let run () =
  (* Measure kernels in the disabled-telemetry posture regardless of what the
     surrounding harness enabled; restore afterwards. *)
  let was_enabled = Obs.enabled () in
  Obs.disable ();
  Fun.protect ~finally:(fun () -> if was_enabled then Obs.enable ())
  @@ fun () ->
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"kernels" ~fmt:"%s.%s" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let estimate =
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) -> t
          | _ -> nan
        in
        (name, estimate) :: acc)
      results []
    |> List.sort compare
    |> List.map (fun (name, ns) ->
           let time_str =
             if Float.is_nan ns then "n/a"
             else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
             else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
             else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
             else Printf.sprintf "%.0f ns" ns
           in
           [ name; time_str ])
  in
  Hgp_util.Tablefmt.print ~title:"micro-benchmarks (Bechamel, monotonic clock per run)"
    ~header:[ "kernel"; "time/run" ]
    rows
