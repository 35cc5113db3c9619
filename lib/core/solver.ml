module Hierarchy = Hgp_hierarchy.Hierarchy
module Tree = Hgp_tree.Tree
module Decomposition = Hgp_racke.Decomposition
module Ensemble = Hgp_racke.Ensemble
module Obs = Hgp_obs.Obs
module Hgp_error = Hgp_resilience.Hgp_error
module Deadline = Hgp_resilience.Deadline

let log_src = Logs.Src.create "hgp.solver" ~doc:"HGP end-to-end solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* The staged pipeline (prepare -> embed -> relax -> pack) owns the artifact
   types and the caches; this module keeps the public entry points: retry
   policy, the supervised degradation ladder, and the HGPT special case. *)

include Pipeline.Types

let default_max_resolution = Pipeline.default_max_resolution
let default_options = Pipeline.default_options

let resolution_of = Pipeline.resolution_of
let resolution_clamped = Pipeline.resolution_clamped

let infeasible ~resolution ~retried =
  Hgp_error.error
    (Hgp_error.Infeasible
       {
         resolution;
         retried;
         msg = "quantized instance admits no packing on any decomposition tree";
       })

let solve_on_decomposition = Pipeline.solve_on_decomposition

(* Retry policy for infeasible quantizations: one shot at a finer resolution
   with Floor rounding.  Finer units shrink Ceil's per-job overshoot (the
   usual cause of spurious infeasibility), and Floor never overshoots at
   all, so a second failure means the instance is overloaded for real.  The
   ensemble is keyed on (graph, strategy, seed, size) only, so the retry
   reuses the already-sampled trees. *)
let retry_options inst options =
  let r = resolution_of inst options in
  let r' = min 4096 (max (r + 1) (4 * r)) in
  if r' <= r && options.rounding = Demand.Floor then None
  else Some ({ options with resolution = Some r'; rounding = Demand.Floor }, r')

let solve ?(options = default_options) ?deadline inst =
  Obs.span "solver.total"
    ~attrs:
      [
        ("n", string_of_int (Instance.n inst));
        ("strategy", Ensemble.strategy_name options.strategy);
      ]
  @@ fun () ->
  let run options =
    Pipeline.run ?deadline inst options
    |> Option.map (fun s ->
           Obs.count "solver.solves" 1;
           s)
  in
  match run options with
  | Some s -> s
  | None -> (
    match retry_options inst options with
    | None -> infeasible ~resolution:(resolution_of inst options) ~retried:false
    | Some (options', r') -> (
      Obs.count "solver.resolution_retries" 1;
      Log.info (fun m ->
          m "infeasible at resolution %d; retrying at %d with floor rounding"
            (resolution_of inst options) r');
      match run options' with
      | Some s -> s
      | None -> infeasible ~resolution:r' ~retried:true))

(* ---- supervised solve: fault isolation + deadline + degradation ladder ---- *)

type fallback = string * (Instance.t -> int array)

type supervised = {
  solution : solution;
  certificate : Verify.report;
  rung : string;
  rungs_tried : string list;
  degraded : bool;
  tree_failures : Hgp_error.t list;
  errors : Hgp_error.t list;
}

(* Demand-aware least-loaded placement: ignores communication cost entirely
   but runs in O(n (log n + k)), never raises, and keeps every leaf load
   within one job of the balanced optimum — the ladder's bottom rung. *)
let emergency_assignment (inst : Instance.t) =
  let n = Instance.n inst in
  let hy = inst.hierarchy in
  let k = Hierarchy.num_leaves hy in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> compare inst.demands.(b) inst.demands.(a)) order;
  let loads = Array.make k 0. in
  let assignment = Array.make n (-1) in
  (* Ragged trees weight the choice by leaf capacity (least relative load);
     regular trees keep the exact historical least-absolute-load rule. *)
  let caps = Array.init k (fun l -> Hierarchy.leaf_cap hy l) in
  let regular = Hierarchy.is_regular hy in
  let better l best =
    if regular then loads.(l) < loads.(best)
    else loads.(l) *. caps.(best) < loads.(best) *. caps.(l)
  in
  Array.iter
    (fun v ->
      let best = ref 0 in
      for l = 1 to k - 1 do
        if better l !best then best := l
      done;
      assignment.(v) <- !best;
      loads.(!best) <- loads.(!best) +. inst.demands.(v))
    order;
  assignment

let reduced_options options resolution =
  {
    options with
    ensemble_size = 1;
    strategy = Ensemble.Pure Decomposition.Low_diameter;
    beam_width = Some (match options.beam_width with Some b -> min b 64 | None -> 64);
    resolution = Some (max 8 (resolution / 2));
  }

(* A fallback rung carries no tree relaxation; its solution is costed
   directly on the graph. *)
let heuristic_solution inst assignment =
  {
    assignment;
    cost = Cost.assignment_cost inst assignment;
    max_violation = Cost.max_violation inst assignment;
    relaxed_tree_cost = Float.nan;
    tree_index = -1;
    dp_states = 0;
    cached_dp_states = 0;
  }

let solve_supervised ?(options = default_options) ?deadline_ms ?(fallbacks = []) inst =
  Obs.span "solver.supervised"
    ~attrs:
      [
        ("n", string_of_int (Instance.n inst));
        ( "deadline_ms",
          match deadline_ms with None -> "none" | Some ms -> Printf.sprintf "%.1f" ms );
      ]
  @@ fun () ->
  let deadline = Deadline.of_budget_ms deadline_ms in
  let errors = ref [] in
  let tree_failures = ref [] in
  let record e = errors := e :: !errors in
  let record_tree e =
    tree_failures := e :: !tree_failures;
    record e;
    Obs.count "supervisor.tree_failures" 1
  in
  (* The pipeline's fences report each lost tree here: it is recorded and
     skipped, and the survivors carry the rung.  An expired deadline is
     recorded once per rung, not once per tree. *)
  let on_lost () =
    let deadline_seen = ref false in
    fun tree_index stage exn ->
      match exn with
      | Hgp_error.Error (Hgp_error.Deadline_exceeded _ as err) ->
        if not !deadline_seen then begin
          deadline_seen := true;
          record err
        end
      | exn ->
        record_tree
          (Hgp_error.Tree_failure { tree_index; stage; msg = Hgp_error.message_of_exn exn })
  in
  let h = Hierarchy.height inst.hierarchy in
  let bound = Feasible.theoretical_violation_bound ~h ~eps:options.eps in
  let rungs_tried = ref [] in
  (* Certification gate: a rung's candidate only wins if it stands on its
     own — complete and within the Theorem-2 violation budget — checked
     independently of how it was produced, so corrupted pipelines cannot
     smuggle a bad answer through. *)
  let certify_candidate ~rung assignment =
    let cert = Verify.certify inst assignment ~eps:options.eps in
    if cert.Verify.assignment_complete && cert.Verify.max_violation <= bound +. 1e-9 then
      Some cert
    else begin
      Obs.count "supervisor.rejected_candidates" 1;
      record
        (Hgp_error.Internal
           {
             stage = rung;
             msg =
               Printf.sprintf
                 "candidate failed certification (complete=%b violation=%.3f bound=%.3f)"
                 cert.Verify.assignment_complete cert.Verify.max_violation bound;
           });
      None
    end
  in
  (* Each rung returns a [solution option]; [try_rung] fences it and
     certifies whatever comes out. *)
  let try_rung name f =
    rungs_tried := name :: !rungs_tried;
    match Obs.span ("supervisor.rung." ^ name) f with
    | exception Hgp_error.Error e ->
      record e;
      None
    | exception exn ->
      record (Hgp_error.Internal { stage = name; msg = Hgp_error.message_of_exn exn });
      None
    | None -> None
    | Some solution -> (
      match certify_candidate ~rung:name solution.assignment with
      | None -> None
      | Some cert -> Some (solution, cert))
  in
  let ensemble_rung () = Pipeline.run ~deadline ~on_lost:(on_lost ()) inst options in
  let reduced_rung () =
    Deadline.check deadline ~stage:"reduced";
    let options = reduced_options options (resolution_of inst options) in
    Pipeline.run ~deadline ~on_lost:(on_lost ()) inst options
  in
  let fallback_rung name f () =
    Deadline.check deadline ~stage:name;
    Some (heuristic_solution inst (f inst))
  in
  (* The emergency rung carries no deadline check on purpose: it is the
     bounded-time floor of the ladder, always allowed to run. *)
  let emergency_rung () = Some (heuristic_solution inst (emergency_assignment inst)) in
  let ladder =
    (("ensemble", ensemble_rung) :: ("reduced", reduced_rung)
     :: List.map (fun (name, f) -> (name, fallback_rung name f)) fallbacks)
    @ [ ("emergency", emergency_rung) ]
  in
  let rec descend index = function
    | [] ->
      Obs.count "supervisor.failures" 1;
      Error
        (Hgp_error.Infeasible
           {
             resolution = resolution_of inst options;
             retried = false;
             msg = "no degradation rung produced a certifiable assignment";
           })
    | (name, f) :: rest -> (
      match try_rung name f with
      | None ->
        Obs.count "supervisor.degradations" 1;
        descend (index + 1) rest
      | Some (solution, certificate) ->
        Obs.count "supervisor.solves" 1;
        Obs.count ("supervisor.rung." ^ name ^ ".wins") 1;
        Obs.gauge "supervisor.rung_index" (float_of_int index);
        let degraded = index > 0 || !tree_failures <> [] in
        Log.info (fun m ->
            m "supervised solve: rung %s (index %d), %d tree failures%s" name index
              (List.length !tree_failures)
              (if degraded then " [degraded]" else ""));
        Ok
          {
            solution;
            certificate;
            rung = name;
            rungs_tried = List.rev !rungs_tried;
            degraded;
            tree_failures = List.rev !tree_failures;
            errors = List.rev !errors;
          })
  in
  descend 0 ladder

let solve_tree tree ~demands hierarchy ~options =
  let n = Tree.n_nodes tree in
  if Array.length demands <> n then invalid_arg "Solver.solve_tree: demands length";
  let lifted, job_leaf = Tree.lift_internal_jobs tree in
  let resolution =
    Pipeline.resolution_for ~n ~total_demand:(Array.fold_left ( +. ) 0. demands)
      ~leaf_capacity:(Hierarchy.leaf_capacity hierarchy)
      options
  in
  let q =
    Demand.quantize ~demands ~leaf_capacity:(Hierarchy.leaf_capacity hierarchy) ~resolution
      ~mode:options.rounding
  in
  let demand_units = Array.make (Tree.n_nodes lifted) 0 in
  Array.iteri (fun v l -> demand_units.(l) <- q.Demand.units.(v)) job_leaf;
  let cfg =
    Tree_dp.config_of_hierarchy hierarchy ~resolution ?bucketing:options.bucketing
      ?beam_width:options.beam_width ()
  in
  match Tree_dp.solve lifted ~demand_units cfg with
  | None -> infeasible ~resolution ~retried:false
  | Some r ->
    let report =
      Feasible.pack lifted ~kappa:r.kappa ~demand_units ~hierarchy ~resolution
    in
    let assignment = Array.map (fun l -> report.Feasible.assignment.(l)) job_leaf in
    (* Equation-1 cost with the tree's own edges as communication demands. *)
    let cost = ref 0. in
    for v = 0 to n - 1 do
      if v <> Tree.root tree then begin
        let w = Tree.edge_weight tree v in
        let c = Hierarchy.edge_cost hierarchy assignment.(v) assignment.(Tree.parent tree v) in
        if c <> 0. then cost := !cost +. (w *. c)
      end
    done;
    (* True-demand violation factor. *)
    (assignment, !cost, r.cost, Cost.max_violation_of hierarchy ~demands assignment)
