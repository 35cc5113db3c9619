(* hgp_cli — command-line front end for the hierarchical graph partitioner.

   Subcommands:
     generate   emit a workload graph in METIS format
     solve      read a graph, solve HGP, print the assignment
     compare    run the solver against every baseline
     validate   check an assignment file against an instance
     serve      batch solve service on stdin/stdout (JSON lines)
     batch      solve a JSON-lines request file as one batch

   Hierarchies are given as a preset name, a regular "degs@cms" spec such
   as "2x4x2@100,30,8,0", or a ragged bracket spec such as
   "[100,[10,4,4,4,4],[10,4,4,2],[5,8,8]]" (docs/HIERARCHY.md). *)

module Graph = Hgp_graph.Graph
module Gen = Hgp_graph.Generators
module Io = Hgp_graph.Io
module Hierarchy = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Cost = Hgp_core.Cost
module Solver = Hgp_core.Solver
module Pipeline = Hgp_core.Pipeline
module B = Hgp_baselines
module Server = Hgp_server.Server
module Protocol = Hgp_server.Protocol
module Prng = Hgp_util.Prng
module Tablefmt = Hgp_util.Tablefmt
module Obs = Hgp_obs.Obs
module Hgp_error = Hgp_resilience.Hgp_error
module Faults = Hgp_resilience.Faults
module Reader = Hgp_resilience.Reader
open Cmdliner

(* The hierarchy argument stays a raw string through cmdliner and is parsed
   inside [handle_errors]: a malformed spec is invalid INPUT, not invalid
   usage, so it must exit with the documented sysexits code 65
   (Hgp_error.Invalid_input) and the parser's token-and-position message,
   not cmdliner's generic option error. *)
let resolve_hierarchy s =
  match Hgp_hierarchy.Topology.parse_result s with
  | Ok h -> h
  | Error msg -> Hgp_error.error (Hgp_error.Invalid_input { context = "hierarchy"; msg })

let hierarchy_arg =
  let doc =
    "Hierarchy: a preset name (flat16, dual_socket, quad_socket, cluster, \
     datacenter, ragged_rack, gpu_cpu_tier), a regular DEGS@CMS spec such as \
     2x4x2@100,30,8,0, or a ragged bracket spec such as \
     [100,[10,4,4,4,4],[10,4,4,2],[5,8,8]] (leaves are CAP or CAP:CM; see \
     docs/HIERARCHY.md)."
  in
  Arg.(value & opt string "dual_socket" & info [ "hierarchy"; "H" ] ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let load_arg =
  Arg.(value & opt float 0.7 & info [ "load" ] ~doc:"Load factor in (0, 1].")

let slack_arg =
  Arg.(value & opt float 1.25 & info [ "slack" ] ~doc:"Capacity slack for heuristics.")

(* --metrics[=json|table]: enable pipeline telemetry and print the stage
   breakdown to stderr (stdout keeps its machine-readable contract). *)
let metrics_arg =
  let sink = Arg.enum [ ("table", Obs.Table); ("json", Obs.Jsonl) ] in
  Arg.(
    value
    & opt ~vopt:(Some Obs.Table) (some sink) None
    & info [ "metrics" ]
        ~doc:
          "Collect pipeline telemetry and print the stage breakdown to stderr; \
           $(docv) is 'table' (default) or 'json' (JSON lines, see \
           docs/OBSERVABILITY.md)."
        ~docv:"SINK")

let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some sink ->
    Obs.enable ();
    Fun.protect ~finally:(fun () -> Obs.emit sink stderr) f

(* Structured errors become documented exit codes (docs/ROBUSTNESS.md):
   parse 65, io 66, infeasible 69, tree/fault/internal 70, deadline
   75.  The handler sits OUTSIDE [with_metrics] so telemetry still flushes
   on the way out. *)
let handle_errors f =
  try f () with
  | Hgp_error.Error e ->
    Printf.eprintf "hgp_cli: %s\n" (Hgp_error.to_string e);
    exit (Hgp_error.exit_code e)

(* ---- generate ---- *)

let generate_cmd =
  let kind =
    Arg.(
      value
      & opt (enum [ ("stream", `Stream); ("mesh", `Mesh); ("gnp", `Gnp); ("powerlaw", `Pl) ])
          `Stream
      & info [ "kind" ] ~doc:"Workload kind: stream, mesh, gnp, powerlaw.")
  in
  let size = Arg.(value & opt int 64 & info [ "n" ] ~doc:"Approximate size.") in
  let out = Arg.(value & opt (some string) None & info [ "o" ] ~doc:"Output file (stdout).") in
  let as_instance =
    Arg.(
      value & flag
      & info [ "as-instance" ]
          ~doc:"Emit a full instance file (graph + demands + hierarchy) instead of METIS.")
  in
  let run kind n seed out as_instance hierarchy load =
    handle_errors @@ fun () ->
    let hierarchy = resolve_hierarchy hierarchy in
    let rng = Prng.create seed in
    let g =
      match kind with
      | `Stream ->
        let p =
          { Hgp_workloads.Stream_dag.default_params with n_sources = max 2 (n / 8) }
        in
        (Hgp_workloads.Stream_dag.generate rng p).graph
      | `Mesh ->
        let side = max 2 (int_of_float (sqrt (float_of_int n))) in
        Gen.grid2d ~rows:side ~cols:side
      | `Gnp -> Gen.gnp_connected rng n (4.0 /. float_of_int n)
      | `Pl ->
        Hgp_graph.Traversal.ensure_connected
          (Gen.chung_lu rng ~n ~exponent:2.5 ~avg_degree:4.0)
          rng
    in
    let text =
      if as_instance then
        Hgp_core.Instance_io.to_string (Instance.uniform_demands g hierarchy ~load_factor:load)
      else Io.to_string g
    in
    match out with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc text);
      Printf.printf "wrote %s (n=%d, m=%d)\n" path (Graph.n g) (Graph.m g)
  in
  let term =
    Term.(const run $ kind $ size $ seed_arg $ out $ as_instance $ hierarchy_arg $ load_arg)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a workload graph (METIS format).") term

(* ---- shared instance loading ---- *)

(* Accepts either a METIS graph (demands synthesized uniformly from --load)
   or a full instance file produced by [Instance_io] (auto-detected by its
   "%hgp-instance" header; -H and --load are then ignored).  The graph is
   solved as given, disconnected or not. *)
let load_instance path hierarchy load =
  match Hgp_core.Instance_io.load_any path with
  | `Instance inst -> inst
  | `Graph g -> Instance.uniform_demands g hierarchy ~load_factor:load

let graph_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc:"METIS graph file.")

(* ---- solve ---- *)

let solve_cmd =
  let ensemble =
    Arg.(value & opt int 4 & info [ "trees" ] ~doc:"Decomposition trees to sample.")
  in
  let resolution =
    Arg.(value & opt (some int) None & info [ "resolution" ] ~doc:"Units per leaf capacity.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ]
          ~doc:
            "Soft wall-clock budget in milliseconds; on expiry the solve \
             degrades through cheaper rungs instead of failing (see \
             docs/ROBUSTNESS.md).  With $(b,--multilevel) the V-cycle \
             honours the budget, and with $(b,--delta) the session solve \
             and its re-solve share it; an expiry there exits 75.")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ]
          ~doc:
            "Solve $(docv) times in-process; repeats after the first are served \
             from the artifact caches (pair with --cache-stats).")
  in
  let cache_stats =
    Arg.(
      value & flag
      & info [ "cache-stats" ]
          ~doc:
            "After solving, print artifact-cache hit/miss statistics and \
             cumulative per-stage timings to stderr (see docs/ARCHITECTURE.md).")
  in
  let multilevel =
    Arg.(
      value
      & opt ~vopt:(Some Hgp_multilevel.Vcycle.default_options.Hgp_multilevel.Vcycle.threshold)
          (some int) None
      & info [ "multilevel" ]
          ~doc:
            "Solve via the multilevel V-cycle front-end: coarsen by heavy-edge \
             matching down to $(docv) vertices (default 128), run the exact \
             pipeline on the coarse graph, certify there, then uncoarsen with \
             banded boundary refinement.  The path for graphs far beyond the \
             exact solver's reach (see docs/MULTILEVEL.md)."
          ~docv:"THRESHOLD")
  in
  let multilevel_refine =
    let engine_conv =
      Arg.enum
        [
          ("greedy", Hgp_multilevel.Refine.Greedy);
          ("fm", Hgp_multilevel.Refine.Fm { hill_climb = true });
        ]
    in
    Arg.(
      value
      & opt engine_conv Hgp_multilevel.Refine.Greedy
      & info [ "multilevel-refine" ]
          ~doc:
            "Refinement engine for the --multilevel uncoarsening phase: greedy \
             (default, single-vertex descent) or fm (gain-bucket \
             Fiduccia-Mattheyses with hill-climbing and best-prefix rollback, \
             warm-started from the greedy fixed point).  See docs/MULTILEVEL.md."
          ~docv:"ENGINE")
  in
  let delta_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "delta" ]
          ~doc:
            "Apply the delta file (%hgp-delta text format) after solving: the \
             base instance is solved once to open an incremental session, the \
             delta is re-solved through the dirty-cone path, and the \
             post-delta assignment is printed with '# incremental ...' \
             accounting.  Composes with --multilevel.  See \
             docs/INCREMENTAL.md."
          ~docv:"FILE")
  in
  let run path hierarchy load seed ensemble resolution deadline_ms slack metrics repeat
      cache_stats multilevel multilevel_refine delta_file =
    handle_errors @@ fun () ->
    let hierarchy = resolve_hierarchy hierarchy in
    with_metrics metrics @@ fun () ->
    let inst = load_instance path hierarchy load in
    let options =
      { Solver.default_options with ensemble_size = ensemble; seed; resolution }
    in
    (* Surface the silent tractability clamp: when eps stops binding the
       default resolution of the instance the exact solve runs on, say so
       once on stderr.  Under --multilevel that is the coarse instance;
       under --delta, the one the post-delta solve ran on. *)
    let clamp_note inst =
      if Solver.resolution_clamped inst options then
        Printf.eprintf
          "hgp_cli: note: demand resolution clamped at %d (tractability cap; \
           eps=%g no longer binds — pass --resolution to override)\n"
          (Solver.resolution_of inst options)
          options.Solver.eps
    in
    let module V = Hgp_multilevel.Vcycle in
    let vcycle_options threshold =
      { V.default_options with V.threshold; refine_algo = multilevel_refine; solver = options }
    in
    let print_solution (sol : Solver.solution) =
      Printf.printf "# cost %.6g\n# violation %.4f\n# tree %d\n# dp-states %d\n" sol.cost
        sol.max_violation sol.tree_index sol.dp_states;
      Printf.printf "# cached-dp-states %d\n" sol.cached_dp_states
    in
    let print_vcycle (r : V.result) =
      clamp_note r.V.coarse_instance;
      print_solution r.V.solution;
      Printf.printf "# multilevel levels=%d coarse-n=%d ratio=%.2f cached=%b\n" r.V.levels
        (Instance.n r.V.coarse_instance) r.V.coarsening_ratio r.V.hierarchy_cached
    in
    let deadline = Hgp_resilience.Deadline.of_budget_ms deadline_ms in
    let assignment =
      match (delta_file, multilevel) with
      | Some dfile, _ ->
        (* Incremental: open a session on the base instance and stream the
           delta through the dirty-cone path.  Without --multilevel the
           session is exact: a V-cycle that never coarsens. *)
        let options = vcycle_options (Option.value multilevel ~default:max_int) in
        let delta = Hgp_core.Delta.load dfile in
        let sess, _ = V.start_session ~deadline ~options inst in
        let u = V.resolve_delta ~deadline sess delta in
        print_vcycle u.V.u_result;
        Printf.printf
          "# incremental resolved=%d reused=%d reused-levels=%d/%d churn=%.4f \
           certified=%b incremental=%b\n"
          u.V.u_resolved_subtrees u.V.u_reused_subtrees u.V.u_reused_levels
          u.V.u_total_levels u.V.u_churn u.V.u_certified u.V.u_incremental;
        u.V.u_result.V.solution.assignment
      | None, Some threshold ->
        let solve_once () = V.solve ~deadline ~options:(vcycle_options threshold) inst in
        let r = ref (solve_once ()) in
        for _ = 2 to max 1 repeat do
          r := solve_once ()
        done;
        let r = !r in
        print_vcycle r;
        let cert = r.V.coarse_certificate in
        Printf.printf "# coarse-certified within-band=%b violation=%.4f bound=%.4f\n"
          cert.Hgp_core.Verify.within_theorem_bound cert.Hgp_core.Verify.max_violation
          cert.Hgp_core.Verify.theorem_bound;
        (* Describe line only in FM modes — the greedy output (and its golden)
           stays byte-identical. *)
        (match multilevel_refine with
         | Hgp_multilevel.Refine.Greedy -> ()
         | Hgp_multilevel.Refine.Fm { hill_climb } ->
           let rollbacks =
             List.fold_left (fun acc (lr : V.level_report) -> acc + lr.V.rollbacks) 0
               r.V.level_reports
           in
           Printf.printf "# multilevel-refine engine=fm hill-climb=%b rollbacks=%d\n"
             hill_climb rollbacks);
        List.iter
          (fun (lr : V.level_report) ->
            Printf.printf "# refine level=%d n=%d moves=%d gain=%.6g\n" lr.V.level lr.V.n
              lr.V.moves lr.V.gain)
          r.V.level_reports;
        r.V.solution.assignment
      | None, None ->
        clamp_note inst;
        let fallbacks = B.Portfolio.ladder ~slack ~seed in
        let solve_once () =
          match Solver.solve_supervised ~options ?deadline_ms ~fallbacks inst with
          | Error e -> Hgp_error.error e
          | Ok s -> s
        in
        let s = ref (solve_once ()) in
        for _ = 2 to max 1 repeat do
          s := solve_once ()
        done;
        let s = !s in
        print_solution s.Solver.solution;
        Printf.printf "# rung %s\n# degraded %b\n# tree-failures %d\n" s.Solver.rung
          s.Solver.degraded
          (List.length s.Solver.tree_failures);
        s.Solver.solution.assignment
    in
    Array.iteri (fun v leaf -> Printf.printf "%d %d\n" v leaf) assignment;
    if cache_stats then prerr_string (Pipeline.render_cache_stats ())
  in
  let term =
    Term.(
      const run $ graph_arg $ hierarchy_arg $ load_arg $ seed_arg $ ensemble $ resolution
      $ deadline $ slack_arg $ metrics_arg $ repeat $ cache_stats $ multilevel
      $ multilevel_refine $ delta_arg)
  in
  Cmd.v (Cmd.info "solve" ~doc:"Solve HGP on a graph; prints 'vertex leaf' lines.") term

(* ---- compare ---- *)

let compare_cmd =
  let run path hierarchy load seed slack metrics =
    handle_errors @@ fun () ->
    let hierarchy = resolve_hierarchy hierarchy in
    with_metrics metrics @@ fun () ->
    let inst = load_instance path hierarchy load in
    let rng = Prng.create seed in
    let k = Hierarchy.num_leaves hierarchy in
    let capacity = slack *. Hierarchy.leaf_capacity hierarchy in
    (* Identity mapping sends part p to leaf p, so the flat partitioner can
       honor each leaf's own capacity. *)
    let leaf_caps = Array.init k (fun l -> slack *. Hierarchy.leaf_cap hierarchy l) in
    let entries =
      [
        ("random", B.Placement.random rng inst ~slack);
        ("greedy", B.Placement.greedy inst ~slack ());
        ( "kbgp-flat",
          B.Mapping.identity
            (B.Multilevel.partition rng ~capacities:leaf_caps inst.graph
               ~demands:inst.demands ~k ~capacity)
              .parts );
        ( "kbgp+map",
          let parts =
            (B.Multilevel.partition rng inst.graph ~demands:inst.demands ~k ~capacity).parts
          in
          B.Mapping.optimize inst ~parts ~k );
        ("dual-recursive", B.Recursive_bisection.assign rng inst ~slack);
        ("hgp", (Solver.solve ~options:{ Solver.default_options with seed } inst).assignment);
      ]
    in
    let rows =
      List.map
        (fun (name, p) ->
          [
            name;
            Tablefmt.fmt_float (Cost.assignment_cost inst p);
            Printf.sprintf "%.3f" (Cost.max_violation inst p);
          ])
        entries
    in
    Tablefmt.print ~title:"method comparison" ~header:[ "method"; "cost"; "violation" ] rows
  in
  let term =
    Term.(
      const run $ graph_arg $ hierarchy_arg $ load_arg $ seed_arg $ slack_arg $ metrics_arg)
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare the solver against the baselines.") term

(* ---- validate ---- *)

(* "vertex leaf" lines as [solve] prints them; '#' lines and further fields
   are ignored.  An out-of-range leaf is left for the certificate to report. *)
let read_assignment path n =
  let r =
    Reader.of_string
      (Reader.format ~comment:'#' (fun ~line msg ->
           Hgp_error.Parse { line = Some line; context = "assignment"; msg }))
      (Reader.load path)
  in
  let p = Array.make n (-1) in
  while Reader.next_line r do
    if Reader.tokens r < 2 then Reader.fail r "expected 'vertex leaf'";
    let v = Reader.int r (Printf.sprintf "vertex %S is not an integer") in
    let leaf = Reader.int r (Printf.sprintf "leaf %S is not an integer") in
    if v < 0 || v >= n then Reader.fail r "vertex %d outside 0..%d" v (n - 1);
    p.(v) <- leaf
  done;
  p

let validate_cmd =
  let assignment_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"ASSIGNMENT" ~doc:"'vertex leaf' lines.")
  in
  let run path assignment_path hierarchy load slack =
    handle_errors @@ fun () ->
    let hierarchy = resolve_hierarchy hierarchy in
    let inst = load_instance path hierarchy load in
    let p = read_assignment assignment_path (Instance.n inst) in
    let report = Hgp_core.Verify.certify inst p ~eps:0.25 in
    Format.printf "%a" Hgp_core.Verify.pp report;
    Printf.printf "valid at %.2f slack    : %b\n" slack (Cost.is_valid inst p ~slack);
    if not report.Hgp_core.Verify.assignment_complete then exit 1
  in
  let term =
    Term.(const run $ graph_arg $ assignment_arg $ hierarchy_arg $ load_arg $ slack_arg)
  in
  Cmd.v (Cmd.info "validate" ~doc:"Validate an assignment file for an instance.") term

(* ---- describe ---- *)

let describe_cmd =
  let run hierarchy =
    handle_errors @@ fun () ->
    print_string (Hgp_hierarchy.Topology.describe (resolve_hierarchy hierarchy))
  in
  let term = Term.(const run $ hierarchy_arg) in
  Cmd.v (Cmd.info "describe" ~doc:"Describe a hierarchy level by level.") term

(* ---- portfolio ---- *)

let portfolio_cmd =
  let run path hierarchy load seed slack =
    handle_errors @@ fun () ->
    let hierarchy = resolve_hierarchy hierarchy in
    let inst = load_instance path hierarchy load in
    let rng = Prng.create seed in
    let r = B.Portfolio.solve rng inst ~slack ~refine_passes:8 in
    let rows =
      List.map
        (fun (e : B.Portfolio.entry) ->
          [
            (if e.name = r.best.B.Portfolio.name then e.name ^ " *" else e.name);
            Tablefmt.fmt_float e.cost;
            Printf.sprintf "%.3f" e.violation;
          ])
        r.entries
    in
    Tablefmt.print ~title:"portfolio (best marked *)"
      ~header:[ "candidate"; "cost"; "violation" ]
      rows
  in
  let term = Term.(const run $ graph_arg $ hierarchy_arg $ load_arg $ seed_arg $ slack_arg) in
  Cmd.v
    (Cmd.info "portfolio"
       ~doc:"Run the approximation algorithm plus refined heuristics; keep the best.")
    term

(* ---- simulate ---- *)

let simulate_cmd =
  let n_sources =
    Arg.(value & opt int 8 & info [ "sources" ] ~doc:"Stream sources to generate.")
  in
  let depth = Arg.(value & opt int 5 & info [ "depth" ] ~doc:"Pipeline depth.") in
  let sim_load =
    Arg.(value & opt float 0.75 & info [ "sim-load" ] ~doc:"Source-rate multiplier.")
  in
  let run hierarchy load seed slack n_sources depth sim_load =
    handle_errors @@ fun () ->
    let hierarchy = resolve_hierarchy hierarchy in
    let rng = Prng.create seed in
    let w =
      Hgp_workloads.Stream_dag.generate rng
        { Hgp_workloads.Stream_dag.default_params with n_sources; pipeline_depth = depth }
    in
    let inst = Hgp_workloads.Stream_dag.to_instance w hierarchy ~load_factor:load in
    let sw = Hgp_workloads.Stream_dag.to_sim_workload w ~demands:inst.Instance.demands in
    let cfg =
      { Hgp_sim.Des.default_config with load = sim_load; comm_overhead = 2e-3; seed }
    in
    let sol = Solver.solve ~options:{ Solver.default_options with seed } inst in
    let placements =
      [
        ("random", B.Placement.random rng inst ~slack);
        ("greedy", B.Placement.greedy inst ~slack ());
        ("hgp", sol.assignment);
      ]
    in
    let rows =
      List.map
        (fun (name, p) ->
          let m = Hgp_sim.Des.run sw hierarchy ~assignment:p cfg in
          [
            name;
            Tablefmt.fmt_float (Cost.assignment_cost inst p);
            Printf.sprintf "%.1f" m.throughput;
            string_of_int m.dropped;
            (if Float.is_nan m.avg_latency then "-"
             else Printf.sprintf "%.1f" (m.avg_latency *. 1e3));
            Printf.sprintf "%.2f" m.max_core_utilization;
          ])
        placements
    in
    Tablefmt.print ~title:"simulated stream execution"
      ~header:[ "placement"; "cost"; "tuples/s"; "drops"; "avg lat (ms)"; "max util" ]
      rows
  in
  let term =
    Term.(
      const run $ hierarchy_arg $ load_arg $ seed_arg $ slack_arg $ n_sources $ depth
      $ sim_load)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Generate a stream workload, place it, and simulate its execution.")
    term

(* ---- drift ---- *)

let drift_cmd =
  let module D = Hgp_sim.Des in
  let n_sources =
    Arg.(value & opt int 8 & info [ "sources" ] ~doc:"Stream sources to generate.")
  in
  let depth = Arg.(value & opt int 5 & info [ "depth" ] ~doc:"Pipeline depth.") in
  let steps =
    Arg.(value & opt int D.default_drift_params.D.steps & info [ "steps" ] ~doc:"Drift steps.")
  in
  let edits =
    Arg.(
      value
      & opt int D.default_drift_params.D.edits_per_step
      & info [ "edits" ] ~doc:"Edge reweights per drift step.")
  in
  let magnitude =
    Arg.(
      value
      & opt float D.default_drift_params.D.magnitude
      & info [ "magnitude" ] ~doc:"Max relative weight perturbation per edit.")
  in
  let structural_every =
    Arg.(
      value & opt int 0
      & info [ "structural-every" ]
          ~doc:"Every $(docv)-th step also adds/removes an edge (0 = never).")
  in
  let cold_every =
    Arg.(
      value
      & opt int D.default_drift_params.D.cold_every
      & info [ "cold-every" ]
          ~doc:
            "Sample a cache-bypassing cold full solve (timing + bit-identity \
             check) every $(docv)-th step; 0 disables.")
  in
  let trees =
    Arg.(value & opt int 2 & info [ "trees" ] ~doc:"Decomposition trees to sample.")
  in
  let multilevel =
    Arg.(
      value
      & opt ~vopt:(Some Hgp_multilevel.Vcycle.default_options.Hgp_multilevel.Vcycle.threshold)
          (some int) None
      & info [ "multilevel" ]
          ~doc:"Drive a multilevel V-cycle session (coarsening threshold $(docv))."
          ~docv:"THRESHOLD")
  in
  let assert_amortized =
    Arg.(
      value
      & opt (some float) None
      & info [ "assert-amortized" ]
          ~doc:
            "Fail (non-zero exit) unless amortized incremental cost is below \
             $(docv) of a cold solve, every step certified, and every sampled \
             step bit-identical — the CI incremental-smoke gate."
          ~docv:"RATIO")
  in
  let run hierarchy load seed n_sources depth steps edits magnitude structural_every
      cold_every trees multilevel assert_amortized metrics =
    handle_errors @@ fun () ->
    let hierarchy = resolve_hierarchy hierarchy in
    with_metrics metrics @@ fun () ->
    let rng = Prng.create seed in
    let w =
      Hgp_workloads.Stream_dag.generate rng
        { Hgp_workloads.Stream_dag.default_params with n_sources; pipeline_depth = depth }
    in
    let inst = Hgp_workloads.Stream_dag.to_instance w hierarchy ~load_factor:load in
    let options =
      {
        Hgp_multilevel.Vcycle.default_options with
        threshold = Option.value multilevel ~default:max_int;
        solver = { Solver.default_options with ensemble_size = trees; seed };
      }
    in
    let params =
      {
        D.steps;
        edits_per_step = edits;
        magnitude;
        structural_every;
        cold_every;
      }
    in
    let r = D.run_drift ~params rng inst options in
    Printf.printf "# drift n=%d steps=%d edits=%d backend=%s\n" r.D.d_final_n steps edits
      (if multilevel = None then "exact" else "multilevel");
    Printf.printf "# step edits structural incr-ms cold-ms churn certified identical\n";
    List.iter
      (fun (s : D.drift_step) ->
        Printf.printf "%d %d %b %.3f %s %.4f %b %s\n" s.D.d_step s.D.d_edits
          s.D.d_structural s.D.d_incr_ms
          (if Float.is_nan s.D.d_cold_ms then "-" else Printf.sprintf "%.3f" s.D.d_cold_ms)
          s.D.d_churn s.D.d_certified
          (if Float.is_nan s.D.d_cold_ms then "-" else string_of_bool s.D.d_identical))
      r.D.d_steps;
    Printf.printf
      "# summary mean-incr-ms=%.3f mean-cold-ms=%.3f amortized=%.4f all-certified=%b \
       all-identical=%b\n"
      r.D.d_mean_incr_ms r.D.d_mean_cold_ms r.D.d_amortized r.D.d_all_certified
      r.D.d_all_identical;
    match assert_amortized with
    | None -> ()
    | Some bound ->
      let fails =
        (if not r.D.d_all_certified then [ "a step's solution is not certified" ] else [])
        @ (if not r.D.d_all_identical then
             [ "a sampled step is not bit-identical to its cold solve" ]
           else [])
        @
        if Float.is_nan r.D.d_amortized || r.D.d_amortized > bound then
          [ Printf.sprintf "amortized ratio %.4f exceeds %.4f" r.D.d_amortized bound ]
        else []
      in
      if fails <> [] then
        Hgp_error.error
          (Hgp_error.Internal { stage = "drift"; msg = String.concat "; " fails })
  in
  let term =
    Term.(
      const run $ hierarchy_arg $ load_arg $ seed_arg $ n_sources $ depth $ steps $ edits
      $ magnitude $ structural_every $ cold_every $ trees $ multilevel $ assert_amortized
      $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "drift"
       ~doc:
         "Stream drift deltas through an incremental solve session and compare \
          amortized re-solve cost against sampled cold solves.  See \
          docs/INCREMENTAL.md.")
    term

(* ---- batch / serve ---- *)

let workers_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.workers
    & info [ "workers" ] ~doc:"Scheduler shards run at once (one on the draining thread).")

let queue_limit_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.queue_limit
    & info [ "queue-limit" ]
        ~doc:
          "Bounded admission queue; once full, further requests are rejected \
           with a structured 'overloaded' response (exit is still 0 — the \
           rejection is per-request).")

let server_stats_arg =
  Arg.(
    value & flag
    & info [ "server-stats" ]
        ~doc:"Print the cumulative server statistics line to stderr on exit.")

(* Submit a window of [(lineno, raw-line)] pairs, drain, and emit one response
   line per request in input order — rejections (parse, overloaded, resolve)
   are merged back among the drained responses.  A line carrying a "delta"
   field is an update against a named session (docs/INCREMENTAL.md). *)
let run_window server window =
  let rejects = ref [] in
  let admitted = ref [] in
  List.iter
    (fun (lineno, raw) ->
      match Protocol.parse_any raw with
      | Error msg ->
        let e = Hgp_error.Parse { line = Some lineno; context = "request"; msg } in
        rejects := (lineno, Protocol.failed (Printf.sprintf "line-%d" lineno) e) :: !rejects
      | Ok req -> (
        match Server.submit_any server req with
        | `Admitted -> admitted := lineno :: !admitted
        | `Rejected r -> rejects := (lineno, r) :: !rejects))
    window;
  let drained = Server.drain server in
  List.combine (List.rev !admitted) drained @ !rejects
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  |> List.iter (fun (_, r) -> print_endline (Protocol.response_to_line r));
  flush stdout

let mk_server workers queue_limit slack =
  Server.create ~config:{ Server.workers; queue_limit; slack } ()

let finish server server_stats =
  List.iter (fun r -> print_endline (Protocol.response_to_line r)) (Server.shutdown server);
  if server_stats then prerr_endline (Server.render_stats (Server.stats server))

let serve_cmd =
  let run workers queue_limit slack metrics server_stats =
    handle_errors @@ fun () ->
    with_metrics metrics @@ fun () ->
    let server = mk_server workers queue_limit slack in
    let rec loop window lineno =
      match input_line stdin with
      | exception End_of_file -> run_window server (List.rev window)
      | line ->
        let lineno = lineno + 1 in
        if String.trim line = "" then begin
          (* Blank line = flush: drain the window and answer it before
             reading on. *)
          run_window server (List.rev window);
          loop [] lineno
        end
        else loop ((lineno, line) :: window) lineno
    in
    loop [] 0;
    finish server server_stats
  in
  let term =
    Term.(
      const run $ workers_arg $ queue_limit_arg $ slack_arg $ metrics_arg $ server_stats_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Batch solve service: read JSON-lines requests from stdin, answer on \
          stdout.  A blank line drains the pending window; EOF drains and shuts \
          down gracefully.  See docs/SERVING.md.")
    term

let batch_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUESTS" ~doc:"JSON-lines request file ('-' for stdin).")
  in
  let run workers queue_limit slack metrics server_stats path =
    handle_errors @@ fun () ->
    with_metrics metrics @@ fun () ->
    let r =
      Reader.of_string
        (Reader.format (fun ~line msg ->
             Hgp_error.Parse { line = Some line; context = "request"; msg }))
        (if path = "-" then In_channel.input_all stdin else Reader.load path)
    in
    let window = ref [] in
    while Reader.next_line r do
      window := (Reader.line r, Reader.text r) :: !window
    done;
    let server = mk_server workers queue_limit slack in
    run_window server (List.rev !window);
    finish server server_stats
  in
  let term =
    Term.(
      const run $ workers_arg $ queue_limit_arg $ slack_arg $ metrics_arg
      $ server_stats_arg $ file_arg)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Solve a file of JSON-lines requests as one batch over the sharded \
          scheduler; one response line per request, in request order.  See \
          docs/SERVING.md.")
    term

let () =
  (* Arm fault injection from HGP_FAULT_PLAN before any command runs, so a
     chaos harness can target every site including instance loading.  A
     malformed plan is a usage error (sysexits EX_USAGE). *)
  (match Faults.from_env () with
   | Ok _ -> ()
   | Error msg ->
     Printf.eprintf "hgp_cli: invalid %s: %s\n" Faults.env_var msg;
     exit 64);
  let info = Cmd.info "hgp_cli" ~doc:"Hierarchical graph partitioning (SPAA 2014) toolkit." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; solve_cmd; compare_cmd; validate_cmd; describe_cmd; portfolio_cmd;
            simulate_cmd; drift_cmd; serve_cmd; batch_cmd;
          ]))
