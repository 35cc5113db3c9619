module Csr = Hgp_graph.Csr
module Hierarchy = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Pipeline = Hgp_core.Pipeline
module Solver = Hgp_core.Solver
module Verify = Hgp_core.Verify
module Cost = Hgp_core.Cost
module Obs = Hgp_obs.Obs
module Artifact_cache = Hgp_resilience.Artifact_cache
module Deadline = Hgp_resilience.Deadline
module Fingerprint = Hgp_util.Fingerprint
module Prng = Hgp_util.Prng

module Graph = Hgp_graph.Graph

type options = {
  threshold : int;
  max_levels : int;
  refine_passes : int;
  refine_algo : Refine.algo;
  on_level : int -> float -> Csr.t -> int array -> unit;
  solver : Pipeline.options;
}

let default_options =
  {
    threshold = 128;
    max_levels = 40;
    refine_passes = 2;
    refine_algo = Refine.Greedy;
    on_level = (fun _ _ _ _ -> ());
    solver = Pipeline.default_options;
  }

type level_report = {
  level : int;
  n : int;
  m : int;
  moves : int;
  gain : float;
  rollbacks : int;
  cost_before : float;
  cost_after : float;
}

type result = {
  solution : Pipeline.solution;
  coarse_certificate : Verify.report;
  coarse_instance : Instance.t;
  levels : int;
  coarsening_ratio : float;
  level_reports : level_report list;
  hierarchy_cached : bool;
}

(* ---- hierarchy cache ----
   Chains hold the full per-level CSR arrays, so a handful of entries is
   plenty; the win is the batch server re-solving the same graph under
   different demands/options. *)
let cache : (Fingerprint.t, Coarsen.chain) Artifact_cache.t =
  Artifact_cache.create ~name:"hierarchy" ~capacity:4

let chain_key fine ~threshold ~max_levels ~seed ~max_weight =
  Csr.fingerprint fine
  |> Fun.flip Fingerprint.add_string "multilevel.chain"
  |> Fun.flip Fingerprint.add_int threshold
  |> Fun.flip Fingerprint.add_int max_levels
  |> Fun.flip Fingerprint.add_int seed
  |> Fun.flip Fingerprint.add_float max_weight

let is_fm options =
  match options.refine_algo with Refine.Fm _ -> true | Refine.Greedy -> false

(* Refine one level inside the certified band.  Returns the refined parts,
   the level's report and the engines' pass count. *)
let refine_level options hy ~slack ~level (lvl : Coarsen.level) projected =
  let fine = lvl.Coarsen.fine in
  let cost_before = Refine.cost fine hy projected in
  let refined, (st : Refine.stats) =
    match options.refine_algo with
    | Refine.Greedy ->
      Refine.refine fine hy projected ~slack ~max_passes:options.refine_passes
    | Refine.Fm { hill_climb } ->
      (* Stacked refinement: FM polishes the greedy fixed point, so
         positive-only FM is never worse than the greedy engine BY
         CONSTRUCTION (every FM move has positive gain from greedy's
         endpoint) and hill-climbing escapes the single-move local
         minimum both engines share.  Cold-started FM explores better
         on average but loses to greedy on a third of instances —
         the warm start is what makes the E20 dominance uncondi-
         tional. *)
      let warm, (gst : Refine.stats) =
        Refine.refine fine hy projected ~slack ~max_passes:options.refine_passes
      in
      let refined, (fst : Refine.stats) =
        Refine.refine_fm fine hy warm ~slack ~max_passes:options.refine_passes ~hill_climb ()
      in
      ( refined,
        {
          Refine.passes = gst.Refine.passes + fst.Refine.passes;
          moves = gst.Refine.moves + fst.Refine.moves;
          gain = gst.Refine.gain +. fst.Refine.gain;
          rollbacks = fst.Refine.rollbacks;
        } )
  in
  let cost_after = Refine.cost fine hy refined in
  Obs.gauge (Printf.sprintf "multilevel.refine_gain.level%d" level) st.Refine.gain;
  if is_fm options then
    Obs.gauge
      (Printf.sprintf "refine.fm.cost_delta.level%d" level)
      (cost_before -. cost_after);
  options.on_level level slack fine refined;
  ( refined,
    {
      level;
      n = Csr.n fine;
      m = Graph.m fine.Csr.graph;
      moves = st.Refine.moves;
      gain = st.Refine.gain;
      rollbacks = st.Refine.rollbacks;
      cost_before;
      cost_after;
    },
    st.Refine.passes )

(* ---- the V-cycle driver ----

   One walk serves the cold [solve] and the incremental sessions
   (docs/INCREMENTAL.md): build the CSR, get the chain, solve the coarsest
   graph exactly, certify there, then project and refine coarsest-to-finest.
   The two callers differ at two points only:

   - the chain: a cold solve reads the hierarchy LRU, then [Coarsen.build];
     a session runs [Coarsen.rebuild] against its previous chain, which
     splices the cached suffix once the mapped weight delta contracts away
     (bit-identical to a cold build);
   - the coarse solve: a cold solve goes through [Solver.solve] (packed
     cache, retry); a session goes through [Pipeline.run_incremental], whose
     per-subtree Merkle snapshots recompute only the dirty cone of each
     decomposition tree, or reuses the previous coarse solution outright
     when the coarsest graph is bit-identical to the previous update's.

   Given a previous state, the walk also splices the cached refined parts of
   each level while the input partition and the level's graph both match
   the previous update.  Every lever preserves bit-identity with a cold
   [solve] on the post-delta instance (differentially tested in
   test_incremental.ml). *)

module Delta = Hgp_core.Delta

(* What a session carries from one solve to the next. *)
type prev_state = {
  p_chain : Coarsen.chain;
  p_coarse_sol : Pipeline.solution;
  p_level_parts : int array array; (* refined parts, indexed by level *)
  p_level_costs : float array; (* cost after refinement, by level *)
  p_total_nodes : int; (* resolved+reused DP tree nodes of the last solve *)
}

type mode =
  | Cold
  | Session of (prev_state * (int * int) list) option
      (* the previous state and the reweighted edge pairs since, if any *)

type run = {
  result : result;
  state : prev_state; (* per-level arrays empty for a cold solve *)
  resolved : int;
  reused : int;
  reused_levels : int;
}

let vcycle mode ~deadline ~options (inst : Instance.t) =
  Deadline.check deadline ~stage:"multilevel";
  let hy = inst.Instance.hierarchy in
  let eps = options.solver.Pipeline.eps in
  let seed = options.solver.Pipeline.seed in
  (* Coarsening must never grow a super-vertex past what the SMALLEST leaf
     can host, or projection could strand it on an undersized leaf; on
     regular trees min = max, preserving historical chain cache keys. *)
  let max_weight = Hierarchy.min_leaf_capacity hy in
  (* An instance no larger than the threshold is never coarsened, so its
     fine CSR is never built. *)
  let fine =
    lazy
      (Obs.span "multilevel.csr_build" (fun () ->
           let before = Gc.allocated_bytes () in
           let csr = Csr.of_graph ~vwgt:inst.Instance.demands inst.Instance.graph in
           (* CI's multilevel smoke divides these two counters to enforce the
              bytes-per-edge ceiling in test/perf_budget.json
              ("csr.build_bytes_per_edge_max"). *)
           Obs.count "multilevel.csr_build_bytes"
             (int_of_float (Gc.allocated_bytes () -. before));
           Obs.count "multilevel.csr_build_edges" (Graph.m inst.Instance.graph);
           csr))
  in
  let coarsen ~prev ~delta =
    Obs.span "multilevel.coarsen" @@ fun () ->
    Coarsen.rebuild (Prng.create seed) (Lazy.force fine) ~prev ~delta
      ~threshold:options.threshold ~max_levels:options.max_levels ~max_weight
  in
  let key () =
    chain_key (Lazy.force fine) ~threshold:options.threshold ~max_levels:options.max_levels
      ~seed ~max_weight
  in
  (* [since]: the previous state and this chain's reuse flags against it. *)
  let chain, hierarchy_cached, since =
    match mode with
    | Session (Some (p, delta)) when Instance.n inst <= options.threshold ->
      (* what [coarsen] returns below the threshold: no levels, and a clean
         coarsest graph iff nothing changed *)
      let rb =
        {
          Coarsen.r_chain = [];
          r_fine_clean = [||];
          r_coarse_clean = p.p_chain = [] && delta = [];
          r_reused_levels = 0;
        }
      in
      ([], false, Some (p, rb))
    | _ when Instance.n inst <= options.threshold -> ([], false, None)
    | Cold -> (
      let key = key () in
      match Artifact_cache.find cache key with
      | Some c -> (c, true, None)
      | None ->
        let c = (coarsen ~prev:[] ~delta:[]).Coarsen.r_chain in
        Artifact_cache.add cache key c;
        (c, false, None))
    | Session None ->
      let rb = coarsen ~prev:[] ~delta:[] in
      (* A session solve with nothing to reuse (the opening one, or the
         fallback after a structural delta) publishes under the content key
         so a later cold solve on the same graph hits the hierarchy cache.
         Updates skip the publish: the session carries its own chain, and
         hashing the fine graph on every delta would put an O(m) fingerprint
         on the incremental fast path just to warm a cache nobody in the
         session reads. *)
      let key = Obs.span "multilevel.chain_key" key in
      Artifact_cache.add cache key rb.Coarsen.r_chain;
      (rb.Coarsen.r_chain, false, None)
    | Session (Some (p, delta)) ->
      let rb = coarsen ~prev:p.p_chain ~delta in
      (rb.Coarsen.r_chain, rb.Coarsen.r_reused_levels > 0, Some (p, rb))
  in
  let coarse_inst, ratio =
    match chain with
    | [] -> (inst, 1.)
    | _ ->
      let fine = Lazy.force fine in
      let coarsest = Coarsen.coarsest ~fine chain in
      ( Instance.create coarsest.Csr.graph ~demands:coarsest.Csr.vwgt hy,
        float_of_int (Csr.n fine) /. float_of_int (Csr.n coarsest) )
  in
  let coarse_sol, resolved, reused =
    match (mode, since) with
    | _, Some (p, rb) when rb.Coarsen.r_coarse_clean ->
      (* same coarsest graph, same demands, same options: the previous
         coarse solution is exactly what a fresh solve would recompute *)
      (p.p_coarse_sol, 0, p.p_total_nodes)
    | Cold, _ ->
      ( Obs.span "multilevel.coarse_solve" (fun () ->
            Solver.solve ~options:options.solver ~deadline coarse_inst),
        0,
        0 )
    | Session _, _ -> (
      Obs.span "multilevel.coarse_solve" @@ fun () ->
      match Pipeline.run_incremental ~deadline coarse_inst options.solver with
      | Some (sol, (res, reu)) -> (sol, res, reu)
      | None ->
        (* infeasible at the base resolution: the retrying solver replicates
           the cold path bit-for-bit *)
        (Solver.solve ~options:options.solver ~deadline coarse_inst, 0, 0))
  in
  let coarse_certificate = Verify.certify coarse_inst coarse_sol.Pipeline.assignment ~eps in
  let slack = coarse_certificate.Verify.theorem_bound in
  (* Uncoarsen: walk the chain coarsest-to-finest, projecting through each
     cmap and refining within the certified band. *)
  let nlev = List.length chain in
  let kept = match mode with Cold -> 0 | Session _ -> nlev in
  let level_parts = Array.make kept [||] in
  let level_costs = Array.make kept 0. in
  let clean =
    ref
      (match since with
      | Some (p, _) ->
        Array.length p.p_level_parts = nlev
        && p.p_coarse_sol.Pipeline.assignment = coarse_sol.Pipeline.assignment
      | None -> false)
  in
  let reports = ref [] and passes = ref 0 and reused_levels = ref 0 in
  (* CI's refinement smoke divides this by nothing — it is an absolute
     per-solve ceiling in test/perf_budget.json ("refine.fm.bytes_allocated_max"). *)
  let refine_bytes_before = Gc.allocated_bytes () in
  let _, assignment =
    Obs.span "multilevel.refine" @@ fun () ->
    List.fold_left
      (fun (level, parts) (lvl : Coarsen.level) ->
        Deadline.check deadline ~stage:"refine";
        let parts, cost =
          match since with
          | Some (p, rb) when !clean && rb.Coarsen.r_fine_clean.(level) ->
            (* same input partition, same level graph: the previous update's
               refined parts are exactly what refinement would recompute *)
            incr reused_levels;
            let c = p.p_level_costs.(level) in
            if options.refine_passes > 0 then
              reports :=
                {
                  level;
                  n = Csr.n lvl.Coarsen.fine;
                  m = Graph.m lvl.Coarsen.fine.Csr.graph;
                  moves = 0;
                  gain = 0.;
                  rollbacks = 0;
                  cost_before = c;
                  cost_after = c;
                }
                :: !reports;
            (p.p_level_parts.(level), c)
          | _ ->
            clean := false;
            let projected =
              Array.init (Csr.n lvl.Coarsen.fine) (fun v -> parts.(lvl.Coarsen.cmap.(v)))
            in
            (* Costs are only read back for reports, which exist only when
               refinement runs. *)
            if options.refine_passes <= 0 then (projected, 0.)
            else begin
              let refined, report, np = refine_level options hy ~slack ~level lvl projected in
              reports := report :: !reports;
              passes := !passes + np;
              (refined, report.cost_after)
            end
        in
        if kept > 0 then begin
          level_parts.(level) <- parts;
          level_costs.(level) <- cost
        end;
        (level - 1, parts))
      (nlev - 1, coarse_sol.Pipeline.assignment)
      (List.rev chain)
  in
  let reports = !reports in
  let total_moves = List.fold_left (fun acc r -> acc + r.moves) 0 reports in
  (* FM-only telemetry keeps the greedy path's metrics schema — and its
     goldens — byte-identical. *)
  if is_fm options then begin
    Obs.count "refine.fm.passes" !passes;
    Obs.count "refine.fm.moves" total_moves;
    Obs.count "refine.fm.rollbacks" (List.fold_left (fun acc r -> acc + r.rollbacks) 0 reports);
    Obs.count "refine.fm.bytes_allocated"
      (int_of_float (Gc.allocated_bytes () -. refine_bytes_before))
  end;
  Obs.count "multilevel.refine_moves" total_moves;
  Obs.gauge "multilevel.levels" (float_of_int nlev);
  Obs.gauge "multilevel.coarsening_ratio" ratio;
  let solution =
    if chain = [] then coarse_sol
    else
      {
        coarse_sol with
        Pipeline.assignment;
        cost = Cost.assignment_cost inst assignment;
        max_violation = Cost.max_violation inst assignment;
      }
  in
  {
    result =
      {
        solution;
        coarse_certificate;
        coarse_instance = coarse_inst;
        levels = nlev;
        coarsening_ratio = ratio;
        level_reports = reports;
        hierarchy_cached;
      };
    state =
      {
        p_chain = chain;
        p_coarse_sol = coarse_sol;
        p_level_parts = level_parts;
        p_level_costs = level_costs;
        p_total_nodes = resolved + reused;
      };
    resolved;
    reused;
    reused_levels = !reused_levels;
  }

let solve ?(options = default_options) (inst : Instance.t) =
  Obs.span "multilevel.solve" @@ fun () ->
  let r = (vcycle Cold ~deadline:Deadline.none ~options inst).result in
  Obs.count "multilevel.solves" 1;
  r

type session = {
  v_options : options;
  mutable v_inst : Instance.t;
  mutable v_assignment : int array;
  mutable v_state : prev_state;
}

type update_report = {
  u_result : result;
  u_churn : float;
  u_resolved_subtrees : int;
  u_reused_subtrees : int;
  u_reused_levels : int;
  u_total_levels : int;
  u_incremental : bool;
  u_certified : bool;
  u_cert_violation : float;
  u_cert_bound : float;
}

let start_session ?(deadline = Deadline.none) ?(options = default_options) inst =
  Obs.span "multilevel.solve" @@ fun () ->
  let run = vcycle (Session None) ~deadline ~options inst in
  Obs.count "multilevel.solves" 1;
  ( {
      v_options = options;
      v_inst = inst;
      v_assignment = Array.copy run.result.solution.Pipeline.assignment;
      v_state = run.state;
    },
    run.result )

(* Churn = exact fraction of the NEW instance's vertices whose leaf differs
   from the session's previous assignment; vertices that did not exist
   before count as changed, removed vertices are out of the denominator. *)
let churn_of ~mapping ~old_assignment ~assignment ~n_new =
  let changed = ref 0 in
  let covered = Array.make (max 1 n_new) false in
  Array.iteri
    (fun old_v new_v ->
      if new_v >= 0 then begin
        covered.(new_v) <- true;
        if old_assignment.(old_v) <> assignment.(new_v) then incr changed
      end)
    mapping;
  for v = 0 to n_new - 1 do
    if not covered.(v) then incr changed
  done;
  float_of_int !changed /. float_of_int (max 1 n_new)

let resolve_delta ?(deadline = Deadline.none) (s : session) (delta : Delta.t) =
  Obs.span "multilevel.incremental" @@ fun () ->
  let incremental = Delta.is_reweight_only delta in
  let inst', mapping =
    Obs.span "multilevel.delta_apply" (fun () -> Delta.apply_mapped s.v_inst delta)
  in
  Delta.check_connected inst' delta;
  let since =
    if incremental then
      Some
        ( s.v_state,
          List.sort_uniq compare
            (List.filter_map
               (function
                 | Delta.Reweight_edge (u, v, _) -> Some (min u v, max u v)
                 | _ -> None)
               delta) )
    else
      (* structural change: vertex ids shifted, so cached chains and parts
         no longer align — fall back to a fresh session solve *)
      None
  in
  (* [Delta.apply_mapped] already patched the graph's weights in place
     (structure-sharing), and attaching the demands to it is O(n). *)
  let run = vcycle (Session since) ~deadline ~options:s.v_options inst' in
  let sol = run.result.solution in
  let churn =
    churn_of ~mapping ~old_assignment:s.v_assignment
      ~assignment:sol.Pipeline.assignment ~n_new:(Instance.n inst')
  in
  s.v_inst <- inst';
  s.v_assignment <- Array.copy sol.Pipeline.assignment;
  s.v_state <- run.state;
  let cert = run.result.coarse_certificate in
  Obs.count "incremental.updates" 1;
  Obs.count "incremental.dirty_subtrees" run.resolved;
  Obs.count "incremental.reused_subtrees" run.reused;
  Obs.count "multilevel.incremental.reused_levels" run.reused_levels;
  Obs.gauge "incremental.churn" churn;
  {
    u_result = run.result;
    u_churn = churn;
    u_resolved_subtrees = run.resolved;
    u_reused_subtrees = run.reused;
    u_reused_levels = run.reused_levels;
    u_total_levels = run.result.levels;
    u_incremental = incremental;
    u_certified = cert.Verify.within_theorem_bound;
    u_cert_violation = cert.Verify.max_violation;
    u_cert_bound = cert.Verify.theorem_bound;
  }

let session_instance s = s.v_inst
let session_assignment s = Array.copy s.v_assignment
