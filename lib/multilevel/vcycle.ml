module Csr = Hgp_graph.Csr
module Hierarchy = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Pipeline = Hgp_core.Pipeline
module Solver = Hgp_core.Solver
module Verify = Hgp_core.Verify
module Cost = Hgp_core.Cost
module Obs = Hgp_obs.Obs
module Lru = Hgp_util.Lru
module Fingerprint = Hgp_util.Fingerprint
module Prng = Hgp_util.Prng

module Graph = Hgp_graph.Graph

type options = {
  threshold : int;
  max_levels : int;
  refine_passes : int;
  refine_algo : Refine.algo;
  boundary_resolve : bool;
  boundary_max : int;
  on_level : int -> float -> Csr.t -> int array -> unit;
  solver : Pipeline.options;
}

let default_options =
  {
    threshold = 128;
    max_levels = 40;
    refine_passes = 2;
    refine_algo = Refine.Greedy;
    boundary_resolve = false;
    boundary_max = 128;
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
  boundary_resolved : bool;
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
let cache : (Fingerprint.t, Coarsen.chain) Lru.t = Lru.create ~capacity:4
let cache_lock = Mutex.create ()

let with_cache f =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) f

let () =
  Pipeline.register_external_cache ~name:"hierarchy"
    ~stats:(fun () -> with_cache (fun () -> Lru.stats cache))
    ~clear:(fun () -> with_cache (fun () -> Lru.clear cache))
    ~reset_stats:(fun () -> with_cache (fun () -> Lru.reset_stats cache))

let chain_key fine ~threshold ~max_levels ~seed ~max_weight =
  Csr.fingerprint fine
  |> Fun.flip Fingerprint.add_string "multilevel.chain"
  |> Fun.flip Fingerprint.add_int threshold
  |> Fun.flip Fingerprint.add_int max_levels
  |> Fun.flip Fingerprint.add_int seed
  |> Fun.flip Fingerprint.add_float max_weight

(* ---- boundary re-solve (KaHIP-style local exact V-cycle) ----

   Extract the induced subgraph of the level's boundary vertices, re-solve it
   exactly through the staged pipeline (hitting the same artifact caches and
   worker-domain pool as any other solve), and splice the sub-assignment back
   only when it strictly improves the level cost AND the spliced assignment
   stays inside the certified band — so the coarse certificate survives even
   though the exact solver knew nothing about the non-boundary context.

   The sub-instance must be connected ([Decomposition.build] rejects
   disconnected graphs), so components are chained together with
   negligible-weight edges between their smallest-id vertices; the splice
   guard recomputes the true cost on the full graph, so that distortion
   cannot leak into the accepted solution. *)
let boundary_resolve_level csr hy assignment ~slack ~boundary_max ~solver_options =
  let flags = Refine.boundary csr assignment in
  let k = ref 0 in
  Array.iter (fun b -> if b then incr k) flags;
  if !k < 2 || !k > boundary_max then None
  else begin
    let kk = !k in
    let ids = Array.make kk 0 in
    let sub = Array.make (Csr.n csr) (-1) in
    let next = ref 0 in
    Array.iteri
      (fun v b ->
        if b then begin
          ids.(!next) <- v;
          sub.(v) <- !next;
          incr next
        end)
      flags;
    let demands = Array.map (Csr.vertex_weight csr) ids in
    (* A super-vertex heavier than a leaf has no placement of its own:
       [Instance.create] would reject the sub-instance. *)
    let cap = Hierarchy.leaf_capacity hy in
    if Array.exists (fun d -> d > cap +. 1e-9) demands then None
    else begin
      let bld = Graph.Builder.create kk in
      let parent = Array.init kk (fun i -> i) in
      let rec find i = if parent.(i) = i then i else find parent.(i) in
      Graph.iter_edges
        (fun u v w ->
          if sub.(u) >= 0 && sub.(v) >= 0 then begin
            Graph.Builder.add_edge bld sub.(u) sub.(v) w;
            let ru = find sub.(u) and rv = find sub.(v) in
            if ru <> rv then parent.(ru) <- rv
          end)
        csr.Csr.graph;
      let prev = ref (-1) in
      for i = 0 to kk - 1 do
        if find i = i then begin
          if !prev >= 0 then Graph.Builder.add_edge bld !prev i 1e-9;
          prev := i
        end
      done;
      let sub_inst = Instance.create (Graph.Builder.build bld) ~demands hy in
      match Solver.solve ~options:solver_options sub_inst with
      | exception Hgp_resilience.Hgp_error.Error _ ->
        (* The sub-instance can be unsolvable under the exact options (e.g.
           [Infeasible] after retry, an expired deadline, an injected
           fault); the re-solve is opportunistic, so skip it. *)
        None
      | sol ->
        let candidate = Array.copy assignment in
        Array.iteri (fun i v -> candidate.(v) <- sol.Pipeline.assignment.(i)) ids;
        let before = Refine.cost csr hy assignment in
        let after = Refine.cost csr hy candidate in
        if after < before -. 1e-9 && Refine.in_band csr hy candidate ~slack then
          Some (candidate, before -. after)
        else None
    end
  end

(* Per-level refinement, shared verbatim between the cold [solve] and the
   incremental session path so the two cannot drift. *)
type refine_acc = {
  mutable a_reports : level_report list;  (* finest-first once the walk ends *)
  mutable a_total_moves : int;
  mutable a_fm_passes : int;
  mutable a_fm_moves : int;
  mutable a_fm_rollbacks : int;
  mutable a_fm_boundary : int;
}

let new_acc () =
  {
    a_reports = [];
    a_total_moves = 0;
    a_fm_passes = 0;
    a_fm_moves = 0;
    a_fm_rollbacks = 0;
    a_fm_boundary = 0;
  }

let is_fm options =
  match options.refine_algo with Refine.Fm _ -> true | Refine.Greedy -> false

let refine_level options hy ~slack ~level (lvl : Coarsen.level) projected acc =
  let cost_before = Refine.cost lvl.Coarsen.fine hy projected in
  let refined, (st : Refine.stats) =
    match options.refine_algo with
    | Refine.Greedy ->
      Refine.refine lvl.Coarsen.fine hy projected ~slack
        ~max_passes:options.refine_passes
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
        Refine.refine lvl.Coarsen.fine hy projected ~slack
          ~max_passes:options.refine_passes
      in
      let refined, (fst : Refine.stats) =
        Refine.refine_fm lvl.Coarsen.fine hy warm ~slack
          ~max_passes:options.refine_passes ~hill_climb ()
      in
      ( refined,
        {
          Refine.passes = gst.Refine.passes + fst.Refine.passes;
          moves = gst.Refine.moves + fst.Refine.moves;
          gain = gst.Refine.gain +. fst.Refine.gain;
          rollbacks = fst.Refine.rollbacks;
        } )
  in
  let refined, extra_gain, resolved =
    if not (is_fm options && options.boundary_resolve) then (refined, 0., false)
    else
      match
        boundary_resolve_level lvl.Coarsen.fine hy refined ~slack
          ~boundary_max:options.boundary_max ~solver_options:options.solver
      with
      | None -> (refined, 0., false)
      | Some (spliced, g) ->
        acc.a_fm_boundary <- acc.a_fm_boundary + 1;
        (spliced, g, true)
  in
  let cost_after = Refine.cost lvl.Coarsen.fine hy refined in
  acc.a_reports <-
    {
      level;
      n = Csr.n lvl.Coarsen.fine;
      m = Graph.m lvl.Coarsen.fine.Csr.graph;
      moves = st.Refine.moves;
      gain = st.Refine.gain +. extra_gain;
      rollbacks = st.Refine.rollbacks;
      cost_before;
      cost_after;
      boundary_resolved = resolved;
    }
    :: acc.a_reports;
  acc.a_total_moves <- acc.a_total_moves + st.Refine.moves;
  Obs.gauge
    (Printf.sprintf "multilevel.refine_gain.level%d" level)
    (st.Refine.gain +. extra_gain);
  if is_fm options then begin
    acc.a_fm_passes <- acc.a_fm_passes + st.Refine.passes;
    acc.a_fm_moves <- acc.a_fm_moves + st.Refine.moves;
    acc.a_fm_rollbacks <- acc.a_fm_rollbacks + st.Refine.rollbacks;
    Obs.gauge
      (Printf.sprintf "refine.fm.cost_delta.level%d" level)
      (cost_before -. cost_after)
  end;
  options.on_level level slack lvl.Coarsen.fine refined;
  refined

let emit_fm_counters options acc ~bytes_before =
  if is_fm options then begin
    Obs.count "refine.fm.passes" acc.a_fm_passes;
    Obs.count "refine.fm.moves" acc.a_fm_moves;
    Obs.count "refine.fm.rollbacks" acc.a_fm_rollbacks;
    Obs.count "refine.fm.boundary_resolves" acc.a_fm_boundary;
    Obs.count "refine.fm.bytes_allocated"
      (int_of_float (Gc.allocated_bytes () -. bytes_before))
  end

let solve ?(options = default_options) (inst : Instance.t) =
  Obs.span "multilevel.solve" @@ fun () ->
  let hy = inst.Instance.hierarchy in
  let eps = options.solver.Pipeline.eps in
  let seed = options.solver.Pipeline.seed in
  (* Coarsening must never grow a super-vertex past what the SMALLEST leaf
     can host, or projection could strand it on an undersized leaf; on
     regular trees min = max, preserving historical chain cache keys. *)
  let max_weight = Hierarchy.min_leaf_capacity hy in
  let fine =
    Obs.span "multilevel.csr_build" (fun () ->
        let before = Gc.allocated_bytes () in
        let csr = Csr.of_graph ~vwgt:inst.Instance.demands inst.Instance.graph in
        (* CI's multilevel smoke divides these two counters to enforce the
           bytes-per-edge ceiling in test/perf_budget.json
           ("csr.build_bytes_per_edge_max"). *)
        Obs.count "multilevel.csr_build_bytes"
          (int_of_float (Gc.allocated_bytes () -. before));
        Obs.count "multilevel.csr_build_edges" (Graph.m inst.Instance.graph);
        csr)
  in
  let chain, hierarchy_cached =
    if Csr.n fine <= options.threshold then ([], false)
    else begin
      let key =
        chain_key fine ~threshold:options.threshold ~max_levels:options.max_levels ~seed
          ~max_weight
      in
      match with_cache (fun () -> Lru.find cache key) with
      | Some c -> (c, true)
      | None ->
        let rng = Prng.create seed in
        let c =
          Obs.span "multilevel.coarsen" (fun () ->
              Coarsen.build rng fine ~threshold:options.threshold
                ~max_levels:options.max_levels ~max_weight)
        in
        with_cache (fun () -> Lru.add cache key c);
        (c, false)
    end
  in
  let coarsest = Coarsen.coarsest ~fine chain in
  let coarse_inst =
    if chain = [] then inst
    else
      Instance.create coarsest.Csr.graph ~demands:coarsest.Csr.vwgt hy
  in
  let coarse_sol =
    Obs.span "multilevel.coarse_solve" (fun () ->
        Solver.solve ~options:options.solver coarse_inst)
  in
  let coarse_certificate = Verify.certify coarse_inst coarse_sol.Pipeline.assignment ~eps in
  let slack = coarse_certificate.Verify.theorem_bound in
  (* Uncoarsen: walk the chain coarsest-to-finest, projecting through each
     cmap and refining within the certified band. *)
  let acc = new_acc () in
  (* CI's refinement smoke divides this by nothing — it is an absolute
     per-solve ceiling in test/perf_budget.json ("refine.fm.bytes_allocated_max"). *)
  let refine_bytes_before = Gc.allocated_bytes () in
  let assignment =
    Obs.span "multilevel.refine" @@ fun () ->
    List.fold_left
      (fun parts (lvl : Coarsen.level) ->
        let projected =
          Array.init (Csr.n lvl.Coarsen.fine) (fun v -> parts.(lvl.Coarsen.cmap.(v)))
        in
        if options.refine_passes <= 0 then projected
        else begin
          let level = List.length chain - 1 - List.length acc.a_reports in
          refine_level options hy ~slack ~level lvl projected acc
        end)
      coarse_sol.Pipeline.assignment (List.rev chain)
  in
  (* FM-only telemetry keeps the greedy path's metrics schema — and its
     goldens — byte-identical. *)
  emit_fm_counters options acc ~bytes_before:refine_bytes_before;
  let levels = List.length chain in
  let ratio =
    if Csr.n coarsest = 0 then 1.
    else float_of_int (Csr.n fine) /. float_of_int (Csr.n coarsest)
  in
  Obs.count "multilevel.solves" 1;
  Obs.count "multilevel.refine_moves" acc.a_total_moves;
  Obs.count (if hierarchy_cached then "multilevel.cache_hit" else "multilevel.cache_miss") 1;
  Obs.gauge "multilevel.levels" (float_of_int levels);
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
    solution;
    coarse_certificate;
    coarse_instance = coarse_inst;
    levels;
    coarsening_ratio = ratio;
    level_reports = acc.a_reports;
    hierarchy_cached;
  }

(* ---- incremental re-solve sessions (docs/INCREMENTAL.md) ----

   The incremental engine reruns the same prepare/coarsen/solve/refine flow
   as [solve], with three reuse levers threaded through it:

   - [Coarsen.rebuild] splices the cached chain suffix once the mapped
     weight delta contracts away (matchings are recomputed per level, so the
     result is bit-identical to a cold [Coarsen.build]);
   - the coarse exact solve goes through [Pipeline.run_incremental], whose
     per-subtree Merkle snapshots recompute only the dirty cone of each
     decomposition tree — and is skipped outright when the coarsest graph is
     bit-identical to the previous update's;
   - refinement walks coarsest-to-finest and, while the input partition and
     the level's graph both match the previous update, splices the cached
     refined parts instead of re-running the engines.

   All three levers preserve bit-identity with a cold [solve] on the
   post-delta instance (differentially tested in test_incremental.ml). *)

module Delta = Hgp_core.Delta

type prev_state = {
  p_chain : Coarsen.chain;
  p_coarse_sol : Pipeline.solution;
  p_level_parts : int array array; (* refined parts, indexed by level *)
  p_level_costs : float array; (* cost after refinement, by level *)
  p_total_nodes : int; (* resolved+reused DP tree nodes of the last solve *)
}

type incr_run = {
  i_result : result;
  i_chain : Coarsen.chain;
  i_coarse_sol : Pipeline.solution;
  i_level_parts : int array array;
  i_level_costs : float array;
  i_resolved : int;
  i_reused : int;
  i_reused_levels : int;
  i_total_nodes : int;
}

let run_incr ?prev ?(delta_pairs = []) ~options (inst : Instance.t) =
  let hy = inst.Instance.hierarchy in
  let eps = options.solver.Pipeline.eps in
  let seed = options.solver.Pipeline.seed in
  let max_weight = Hierarchy.min_leaf_capacity hy in
  let fine =
    Obs.span "multilevel.csr_build" (fun () ->
        Csr.of_graph ~vwgt:inst.Instance.demands inst.Instance.graph)
  in
  let rb =
    Obs.span "multilevel.coarsen" @@ fun () ->
    let rng = Prng.create seed in
    match prev with
    | Some p ->
      Coarsen.rebuild rng fine ~prev:p.p_chain ~delta:delta_pairs
        ~threshold:options.threshold ~max_levels:options.max_levels ~max_weight
    | None ->
      let r =
        Coarsen.rebuild rng fine ~prev:[] ~delta:[] ~threshold:options.threshold
          ~max_levels:options.max_levels ~max_weight
      in
      { r with Coarsen.r_coarse_clean = false }
  in
  let chain = rb.Coarsen.r_chain in
  (* On the opening solve, publish under the content key so a later cold
     solve on the same graph hits the hierarchy cache.  Mid-session resolves
     skip the publish: the session carries its own chain, and hashing the
     fine graph again on every delta would put an O(m) fingerprint on the
     incremental fast path just to warm a cache nobody in the session reads.
     A later cold solve merely re-derives the same chain (seed + graph
     content determine it) at cache-miss cost. *)
  if prev = None && Csr.n fine > options.threshold then begin
    let key =
      Obs.span "multilevel.chain_key" @@ fun () ->
      chain_key fine ~threshold:options.threshold ~max_levels:options.max_levels
        ~seed ~max_weight
    in
    with_cache (fun () -> Lru.add cache key chain)
  end;
  let coarsest = Coarsen.coarsest ~fine chain in
  let coarse_inst =
    if chain = [] then inst
    else
      Instance.create coarsest.Csr.graph ~demands:coarsest.Csr.vwgt hy
  in
  let coarse_sol, resolved, reused, coarse_reused =
    match prev with
    | Some p when rb.Coarsen.r_coarse_clean ->
      (* same coarsest graph, same demands, same options: the previous
         coarse solution is exactly what a fresh solve would recompute *)
      (p.p_coarse_sol, 0, p.p_total_nodes, true)
    | _ -> (
      Obs.span "multilevel.coarse_solve" @@ fun () ->
      match Pipeline.run_incremental coarse_inst options.solver with
      | Some (sol, (res, reu)) -> (sol, res, reu, false)
      | None ->
        (* infeasible at the base resolution: the retrying solver replicates
           the cold path bit-for-bit *)
        (Solver.solve ~options:options.solver coarse_inst, 0, 0, false))
  in
  let coarse_certificate =
    Verify.certify coarse_inst coarse_sol.Pipeline.assignment ~eps
  in
  let slack = coarse_certificate.Verify.theorem_bound in
  let nlev = List.length chain in
  let rev = Array.of_list (List.rev chain) in
  let level_parts = Array.make (max 1 nlev) [||] in
  let level_costs = Array.make (max 1 nlev) 0. in
  let acc = new_acc () in
  let reused_levels = ref 0 in
  let clean =
    ref
      (match prev with
      | Some p ->
        Array.length p.p_level_parts = nlev
        && p.p_coarse_sol.Pipeline.assignment = coarse_sol.Pipeline.assignment
      | None -> false)
  in
  let refine_bytes_before = Gc.allocated_bytes () in
  let assignment =
    Obs.span "multilevel.refine" @@ fun () ->
    let parts = ref coarse_sol.Pipeline.assignment in
    for i = 0 to nlev - 1 do
      let level = nlev - 1 - i in
      let lvl = rev.(i) in
      match prev with
      | Some p
        when !clean
             && level < Array.length rb.Coarsen.r_fine_clean
             && rb.Coarsen.r_fine_clean.(level) ->
        (* same input partition, same level graph: the previous update's
           refined parts are exactly what refinement would recompute *)
        parts := p.p_level_parts.(level);
        level_parts.(level) <- p.p_level_parts.(level);
        level_costs.(level) <- p.p_level_costs.(level);
        incr reused_levels;
        if options.refine_passes > 0 then begin
          let c = p.p_level_costs.(level) in
          acc.a_reports <-
            {
              level;
              n = Csr.n lvl.Coarsen.fine;
              m = Graph.m lvl.Coarsen.fine.Csr.graph;
              moves = 0;
              gain = 0.;
              rollbacks = 0;
              cost_before = c;
              cost_after = c;
              boundary_resolved = false;
            }
            :: acc.a_reports
        end
      | _ ->
        clean := false;
        let projected =
          Array.init (Csr.n lvl.Coarsen.fine) (fun v -> !parts.(lvl.Coarsen.cmap.(v)))
        in
        let refined =
          if options.refine_passes <= 0 then projected
          else refine_level options hy ~slack ~level lvl projected acc
        in
        parts := refined;
        level_parts.(level) <- refined;
        level_costs.(level) <-
          (match acc.a_reports with
          | r :: _ when options.refine_passes > 0 && r.level = level -> r.cost_after
          | _ -> Refine.cost lvl.Coarsen.fine hy refined)
    done;
    !parts
  in
  emit_fm_counters options acc ~bytes_before:refine_bytes_before;
  let ratio =
    if Csr.n coarsest = 0 then 1.
    else float_of_int (Csr.n fine) /. float_of_int (Csr.n coarsest)
  in
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
  let result =
    {
      solution;
      coarse_certificate;
      coarse_instance = coarse_inst;
      levels = nlev;
      coarsening_ratio = ratio;
      level_reports = acc.a_reports;
      hierarchy_cached = rb.Coarsen.r_reused_levels > 0;
    }
  in
  let total_nodes =
    match prev with
    | Some p when coarse_reused -> p.p_total_nodes
    | _ -> resolved + reused
  in
  {
    i_result = result;
    i_chain = chain;
    i_coarse_sol = coarse_sol;
    i_level_parts = level_parts;
    i_level_costs = level_costs;
    i_resolved = resolved;
    i_reused = reused;
    i_reused_levels = !reused_levels;
    i_total_nodes = total_nodes;
  }

type session = {
  v_options : options;
  mutable v_inst : Instance.t;
  mutable v_assignment : int array;
  mutable v_state : prev_state;
  mutable v_result : result;
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

let state_of (r : incr_run) =
  {
    p_chain = r.i_chain;
    p_coarse_sol = r.i_coarse_sol;
    p_level_parts = r.i_level_parts;
    p_level_costs = r.i_level_costs;
    p_total_nodes = r.i_total_nodes;
  }

let start_session ?(options = default_options) inst =
  Obs.span "multilevel.solve" @@ fun () ->
  let run = run_incr ~options inst in
  Obs.count "multilevel.solves" 1;
  ( {
      v_options = options;
      v_inst = inst;
      v_assignment = Array.copy run.i_result.solution.Pipeline.assignment;
      v_state = state_of run;
      v_result = run.i_result;
    },
    run.i_result )

let resolve_delta (s : session) (delta : Delta.t) =
  Obs.span "multilevel.incremental" @@ fun () ->
  let incremental = Delta.is_reweight_only delta in
  let inst', mapping =
    Obs.span "multilevel.delta_apply" (fun () -> Delta.apply_mapped s.v_inst delta)
  in
  let run =
    if incremental then begin
      let delta_pairs =
        List.sort_uniq compare
          (List.filter_map
             (function
               | Delta.Reweight_edge (u, v, _) -> Some (min u v, max u v)
               | _ -> None)
             delta)
      in
      (* [Delta.apply_mapped] already patched the graph's weights in place
         (structure-sharing), and attaching the demands to it is O(n). *)
      run_incr ~prev:s.v_state ~delta_pairs ~options:s.v_options inst'
    end
    else
      (* structural change: vertex ids shifted, so cached chains and parts
         no longer align — fall back to a cold multilevel solve *)
      run_incr ~options:s.v_options inst'
  in
  let sol = run.i_result.solution in
  let churn =
    Pipeline.churn_of ~mapping ~old_assignment:s.v_assignment
      ~assignment:sol.Pipeline.assignment ~n_new:(Instance.n inst')
  in
  s.v_inst <- inst';
  s.v_assignment <- Array.copy sol.Pipeline.assignment;
  s.v_state <- state_of run;
  s.v_result <- run.i_result;
  let cert = run.i_result.coarse_certificate in
  Obs.count "incremental.updates" 1;
  Obs.count "incremental.dirty_subtrees" run.i_resolved;
  Obs.count "incremental.reused_subtrees" run.i_reused;
  Obs.count "multilevel.incremental.reused_levels" run.i_reused_levels;
  Obs.gauge "incremental.churn" churn;
  {
    u_result = run.i_result;
    u_churn = churn;
    u_resolved_subtrees = run.i_resolved;
    u_reused_subtrees = run.i_reused;
    u_reused_levels = run.i_reused_levels;
    u_total_levels = run.i_result.levels;
    u_incremental = incremental;
    u_certified = cert.Verify.within_theorem_bound;
    u_cert_violation = cert.Verify.max_violation;
    u_cert_bound = cert.Verify.theorem_bound;
  }

let session_instance s = s.v_inst
let session_options s = s.v_options
let session_assignment s = Array.copy s.v_assignment
let session_result s = s.v_result
