module Graph = Hgp_graph.Graph
module Hierarchy = Hgp_hierarchy.Hierarchy
module Tree = Hgp_tree.Tree
module Decomposition = Hgp_racke.Decomposition
module Ensemble = Hgp_racke.Ensemble
module Ensemble_cache = Hgp_racke.Ensemble_cache
module Fingerprint = Hgp_util.Fingerprint
module Lru = Hgp_util.Lru
module Artifact_cache = Hgp_resilience.Artifact_cache
module Domain_pool = Hgp_util.Domain_pool
module Workspace = Hgp_util.Workspace
module Obs = Hgp_obs.Obs
module Hgp_error = Hgp_resilience.Hgp_error
module Deadline = Hgp_resilience.Deadline
module Faults = Hgp_resilience.Faults

let log_src = Logs.Src.create "hgp.pipeline" ~doc:"HGP staged solve pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Types = struct
  type options = {
    ensemble_size : int;
    eps : float;
    resolution : int option;
    rounding : Demand.mode;
    bucketing : float option;
    beam_width : int option;
    strategy : Ensemble.strategy;
    seed : int;
  }

  type solution = {
    assignment : int array;
    cost : float;
    max_violation : float;
    relaxed_tree_cost : float;
    tree_index : int;
    dp_states : int;
    cached_dp_states : int;
  }
end

include Types

let default_max_resolution = 24

let default_options =
  {
    ensemble_size = 4;
    eps = 0.25;
    resolution = None;
    rounding = Demand.Floor;
    bucketing = None;
    beam_width = Some 512;
    strategy = Ensemble.Mixed;
    seed = 42;
  }

(* ---- fences ----

   Every per-tree fence (a build slot, a pooled DP slot, a pack) reports a
   lost tree to one handler: its ensemble index, the stage that lost it
   ("decomposition", "dp" or "pack") and what it raised.  The default
   handler re-raises, which makes the solve fail fast. *)

type on_lost = int -> string -> exn -> unit

let raise_lost : on_lost = fun _ _ exn -> raise exn

(* ---- stage timing (always on, independent of Obs) ---- *)

let stage_names = [| "prepare"; "embed"; "relax"; "pack" |]
let stage_ns = Array.make (Array.length stage_names) 0L
let stage_lock = Mutex.create ()

let stage_timings () =
  Mutex.lock stage_lock;
  let out =
    Array.to_list
      (Array.mapi (fun i name -> (name, Int64.to_float stage_ns.(i) /. 1e6)) stage_names)
  in
  Mutex.unlock stage_lock;
  out

let reset_timings () =
  Mutex.lock stage_lock;
  Array.fill stage_ns 0 (Array.length stage_ns) 0L;
  Mutex.unlock stage_lock

(* Wraps a stage in its [pipeline.stage.*] span and charges its wall time to
   the always-on accumulator (so [--cache-stats] has timings even with
   telemetry off). *)
let stage idx f =
  let t0 = Obs.now_ns () in
  let charge () =
    let dur = Int64.sub (Obs.now_ns ()) t0 in
    Mutex.lock stage_lock;
    stage_ns.(idx) <- Int64.add stage_ns.(idx) dur;
    Mutex.unlock stage_lock
  in
  match Obs.span ("pipeline.stage." ^ stage_names.(idx)) f with
  | v ->
    charge ();
    v
  | exception e ->
    charge ();
    raise e

(* ---- Prepared ---- *)

type prepared = {
  inst : Instance.t;
  options : options;
  quantized : Demand.t;
  resolution : int;
  clamped : bool;
  p_key : Fingerprint.t;
}

(* Default resolution: the paper's n/eps capped for tractability, but never
   so coarse that the mean demand rounds to zero units (which would make the
   quantized instance degenerate).  [clamped] reports when the 4096 cap — and
   not eps or the mean-demand floor — decided the value. *)
let resolution_spec ~n ~total_demand ~leaf_capacity (options : options) =
  match options.resolution with
  | Some r -> (r, false)
  | None ->
    let paper = Demand.resolution_for_eps ~n ~eps:options.eps in
    let mean_d = Float.max 1e-12 (total_demand /. float_of_int n) in
    (* Target >= 4 units for the mean job so floor rounding stays within
       ~25% per job. *)
    let needed = int_of_float (ceil (4. *. leaf_capacity /. mean_d)) in
    let uncapped = min paper (max default_max_resolution needed) in
    let r = min 4096 uncapped in
    (r, r < uncapped)

let resolution_spec_of (inst : Instance.t) options =
  resolution_spec ~n:(Instance.n inst) ~total_demand:(Instance.total_demand inst)
    ~leaf_capacity:(Hierarchy.leaf_capacity inst.hierarchy)
    options

let resolution_of inst options = fst (resolution_spec_of inst options)
let resolution_clamped inst options = snd (resolution_spec_of inst options)

let resolution_for ~n ~total_demand ~leaf_capacity options =
  fst (resolution_spec ~n ~total_demand ~leaf_capacity options)

(* Everything [prepare] consumes: graph + demands + hierarchy shape, plus the
   option fields that shape quantization.  [eps] is digested even though only
   the derived resolution feeds the DP, so changing eps is always a cache
   miss — the conservative reading of the key contract. *)
let prepared_key (inst : Instance.t) options ~resolution =
  Graph.fingerprint inst.graph
  |> Fun.flip Fingerprint.add_float_array inst.demands
  |> Fun.flip Fingerprint.combine (Hierarchy.fingerprint inst.hierarchy)
  |> Fun.flip Fingerprint.add_float options.eps
  |> Fun.flip Fingerprint.add_int resolution
  |> Fun.flip Fingerprint.add_bool (options.rounding = Demand.Ceil)

let prepare (inst : Instance.t) options =
  stage 0 @@ fun () ->
  let resolution, clamped = resolution_spec_of inst options in
  if clamped then Obs.count "solver.resolution_clamped" 1;
  let quantized =
    Obs.span "solver.quantize" (fun () ->
        Demand.quantize ~demands:inst.demands
          ~leaf_capacity:(Hierarchy.leaf_capacity inst.hierarchy)
          ~resolution ~mode:options.rounding)
  in
  Obs.gauge "solver.resolution" (float_of_int resolution);
  { inst; options; quantized; resolution; clamped; p_key = prepared_key inst options ~resolution }

(* ---- Embedded ---- *)

type embedded = { prepared : prepared; ensemble : Ensemble.t }

let embed ~deadline ~(lost : on_lost) (p : prepared) =
  stage 1 @@ fun () ->
  let { inst; options; _ } = p in
  let ensemble =
    Obs.span "solver.ensemble" (fun () ->
        Ensemble_cache.sample ~strategy:options.strategy ~deadline
          ~on_lost:(fun i exn -> lost i "decomposition" exn)
          ~seed:options.seed inst.Instance.graph ~size:options.ensemble_size)
  in
  { prepared = p; ensemble }

(* ---- Relaxed ---- *)

type tree_relaxed = { demand_units : int array; dp : Tree_dp.result }

(* The DP's inputs on one decomposition tree: the quantized demand units
   scattered onto the tree's leaves, and the DP config. *)
let tree_inputs (p : prepared) d =
  let t = Decomposition.tree d in
  let demand_units = Array.make (Tree.n_nodes t) 0 in
  Array.iter
    (fun l ->
      demand_units.(l) <- p.quantized.Demand.units.(Decomposition.vertex_of_leaf d l))
    (Tree.leaves t);
  let cfg =
    Tree_dp.config_of_hierarchy p.inst.Instance.hierarchy ~resolution:p.resolution
      ?bucketing:p.options.bucketing ?beam_width:p.options.beam_width ()
  in
  (t, demand_units, cfg)

(* DP on one decomposition tree; [None] when the quantized instance does not
   fit that tree. *)
let relax_tree ?(deadline = Deadline.none) ?workspace (p : prepared) d =
  let t, demand_units, cfg = tree_inputs p d in
  match
    Obs.span "solver.tree_dp" (fun () ->
        Tree_dp.solve ~deadline ?workspace t ~demand_units cfg)
  with
  | None -> None
  | Some r -> Some { demand_units; dp = r }

(* Per-tree DP over the whole ensemble: one task per tree on the shared
   domain pool, whose fixed lanes put tree [i] on the same domain — and so
   the same resident workspace — on every run.  [solve_tree ~deadline
   ~workspace i] solves tree [i] and returns [None] when the quantized
   instance does not fit it.  Each slot is a fence: once the batch is
   done, the slots that raised are reported to [lost] in tree order, so a
   raising handler raises the lowest-index error.  Lost and infeasible
   trees both come back as [None].  The [tree_dp.solve] fault hits are
   numbered in tree order and spans nest under the caller's, whichever
   domain runs a tree. *)
let relax_trees ~deadline ~(lost : on_lost) (e : embedded) solve_tree =
  let n_trees = Ensemble.size e.ensemble in
  let hits = Faults.reserve "tree_dp.solve" n_trees in
  let task i () =
    Faults.with_hit hits i @@ fun () ->
    Workspace.with_ws @@ fun workspace ->
    Deadline.check deadline ~stage:"ensemble";
    solve_tree ~deadline ~workspace i
  in
  Domain_pool.run_batch (Domain_pool.shared ()) (Obs.propagate (Array.init n_trees task))
  |> Array.mapi (fun i slot ->
         match slot with
         | Ok (Some _ as r) -> r
         | Ok None ->
           Obs.count "solver.trees_infeasible" 1;
           Log.debug (fun m -> m "tree %d: infeasible after quantization" i);
           None
         | Error exn ->
           lost i "dp" exn;
           None)

let relax ~deadline ~lost (e : embedded) =
  stage 2 @@ fun () ->
  relax_trees ~deadline ~lost e (fun ~deadline ~workspace i ->
      relax_tree ~deadline ~workspace e.prepared (Ensemble.get e.ensemble i))

(* ---- Packed ---- *)

(* Theorem-5 conversion of one relaxed tree back to a hierarchy assignment
   on the original vertices. *)
let pack_tree ?(deadline = Deadline.none) (p : prepared) d (tr : tree_relaxed) =
  let t = Decomposition.tree d in
  Obs.span "solver.feasible" @@ fun () ->
  let report =
    Feasible.pack ~deadline t ~kappa:tr.dp.Tree_dp.kappa ~demand_units:tr.demand_units
      ~hierarchy:p.inst.Instance.hierarchy ~resolution:p.resolution
  in
  let assignment = Array.make (Instance.n p.inst) (-1) in
  Array.iter
    (fun l ->
      assignment.(Decomposition.vertex_of_leaf d l) <- report.Feasible.assignment.(l))
    (Tree.leaves t);
  assignment

let finish inst assignment relaxed_tree_cost tree_index dp_states =
  {
    assignment;
    cost = Cost.assignment_cost inst assignment;
    max_violation = Cost.max_violation inst assignment;
    relaxed_tree_cost;
    tree_index;
    dp_states;
    cached_dp_states = 0;
  }

(* Pack every surviving tree, each behind a fence, then keep the assignment
   with the smallest {e true} graph cost (Equation 1) — a strict
   improvement over the paper's pick-by-tree-cost that preserves the
   guarantee. *)
let pack_and_select ~deadline ~(lost : on_lost) (e : embedded) relaxed =
  stage 3 @@ fun () ->
  let p = e.prepared in
  let packed =
    Array.mapi
      (fun i r ->
        Option.bind r (fun tr ->
            match pack_tree ~deadline p (Ensemble.get e.ensemble i) tr with
            | assignment ->
              Some (assignment, tr.dp.Tree_dp.cost, tr.dp.Tree_dp.states_explored)
            | exception exn ->
              lost i "pack" exn;
              None))
      relaxed
  in
  Obs.span "solver.select" @@ fun () ->
  let best = ref None in
  let total_states = ref 0 in
  Array.iteri
    (fun i result ->
      match result with
      | None -> ()
      | Some (assignment, relaxed, states) ->
        total_states := !total_states + states;
        let cost = Cost.assignment_cost p.inst assignment in
        Log.debug (fun m ->
            m "tree %d: relaxed=%.6g cost=%.6g states=%d" i relaxed cost states);
        (match !best with
        | Some (_, c, _, _) when c <= cost -> ()
        | _ -> best := Some (assignment, cost, relaxed, i)))
    packed;
  match !best with
  | Some (assignment, _, relaxed, i) ->
    Obs.count "solver.dp_states" !total_states;
    Log.info (fun m ->
        m "solved n=%d k=%d resolution=%d: winning tree %d, %d DP states"
          (Instance.n p.inst)
          (Hierarchy.num_leaves p.inst.Instance.hierarchy)
          p.resolution i !total_states);
    Some (finish p.inst assignment relaxed i !total_states)
  | None -> None

(* ---- packed-solution cache ---- *)

(* Packed solutions are small (one int per vertex); a larger capacity than
   the ensemble cache covers whole eps/strategy sweeps. *)
let packed_cache : (Fingerprint.t, solution) Artifact_cache.t =
  Artifact_cache.create ~name:"packed" ~capacity:64

let clear_caches = Artifact_cache.clear_all
let cache_stats = Artifact_cache.stats_all
let reset_cache_stats = Artifact_cache.reset_all

let render_cache_stats () =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, (st : Lru.stats)) ->
      Buffer.add_string b
        (Printf.sprintf "cache %-8s hits=%d misses=%d evictions=%d entries=%d\n" name
           st.Lru.hits st.Lru.misses st.Lru.evictions st.Lru.entries))
    (cache_stats ());
  List.iter
    (fun (stage, ms) ->
      Buffer.add_string b (Printf.sprintf "stage %-8s %10.3f ms\n" stage ms))
    (stage_timings ());
  Buffer.contents b

let packed_key (p : prepared) ~e_key =
  Fingerprint.combine p.p_key e_key
  |> Fun.flip (Fingerprint.add_option Fingerprint.add_float) p.options.bucketing
  |> Fun.flip (Fingerprint.add_option Fingerprint.add_int) p.options.beam_width

(* Both ends deep-copy the assignment: an array in the cache must never
   alias an array handed to a caller, who owns what it receives and may
   write to it. *)
let packed_find key =
  Artifact_cache.find packed_cache key
  |> Option.map (fun sol ->
         {
           sol with
           assignment = Array.copy sol.assignment;
           dp_states = 0;
           cached_dp_states = sol.dp_states + sol.cached_dp_states;
         })

let packed_add key sol =
  Artifact_cache.add packed_cache key { sol with assignment = Array.copy sol.assignment }

(* ---- the full pipeline ---- *)

(* [prepare] plus the packed-solution key of the result. *)
let prepare_keyed inst options =
  let p = prepare inst options in
  let key =
    packed_key p
      ~e_key:
        (Ensemble_cache.key inst.Instance.graph ~strategy:options.strategy
           ~seed:options.seed ~size:options.ensemble_size)
  in
  (p, key)

(* embed → [relax] → pack, every lost tree reported to [on_lost], the
   winner published under [key].  Only a run that lost nothing is
   cacheable: a degraded solution is correct but not bit-identical to what
   a fresh solve would return. *)
let fenced ~deadline ~on_lost key p relax =
  let clean = ref true in
  let lost i stage exn =
    clean := false;
    on_lost i stage exn
  in
  let e = embed ~deadline ~lost p in
  let result = pack_and_select ~deadline ~lost e (relax ~deadline ~lost e) in
  (match result with Some sol when !clean -> packed_add key sol | _ -> ());
  result

let run ?(deadline = Deadline.none) ?(on_lost = raise_lost) inst options =
  let p, key = prepare_keyed inst options in
  match packed_find key with
  | Some sol ->
    (* Work counters reflect work actually performed by this solve: zero DP
       states.  The inherited work is visible in [sol.cached_dp_states] and
       the [solver.dp_states_cached] counter. *)
    Obs.count "solver.dp_states" 0;
    Obs.count "solver.dp_states_cached" sol.cached_dp_states;
    Log.debug (fun m -> m "packed cache hit (%s)" (Fingerprint.to_hex key));
    Some sol
  | None -> fenced ~deadline ~on_lost key p relax

let infeasible ~resolution ~retried =
  Hgp_error.error
    (Hgp_error.Infeasible
       {
         resolution;
         retried;
         msg = "quantized instance admits no packing on any decomposition tree";
       })

let solve_on_decomposition inst d ~options =
  let p = prepare inst options in
  match relax_tree p d with
  | None -> infeasible ~resolution:p.resolution ~retried:false
  | Some tr ->
    let assignment = pack_tree p d tr in
    finish inst assignment tr.dp.Tree_dp.cost 0 tr.dp.Tree_dp.states_explored

(* ---- incremental re-solve: per-subtree DP snapshots ----

   The snapshot cache is keyed by decomposition-tree SHAPE (parents array +
   slot-determining option fields): the per-node Merkle keys inside the
   snapshot do the data diffing, so a re-solve after a delta reuses every
   subtree whose inputs are unchanged and recomputes only the dirty cone
   (docs/INCREMENTAL.md). *)

let subtree_cache : (Fingerprint.t, Tree_dp.snapshot) Artifact_cache.t =
  Artifact_cache.create ~name:"subtree_dp" ~capacity:16

(* Only shape and slot identity: the snapshot's Merkle keys already digest
   demands, edge weights, and the DP config, so the cache key needs just
   enough to make node ids align (parents) and to keep distinct solve
   configurations in distinct slots. *)
let shape_key (p : prepared) d ~tree_index =
  let t = Decomposition.tree d in
  let parents = Array.init (Tree.n_nodes t) (Tree.parent t) in
  Fingerprint.add_string Fingerprint.seed "pipeline.subtree_dp"
  |> Fun.flip Fingerprint.add_int_array parents
  |> Fun.flip Fingerprint.combine (Hierarchy.fingerprint p.inst.Instance.hierarchy)
  |> Fun.flip Fingerprint.add_int p.resolution
  |> Fun.flip Fingerprint.add_bool (p.options.rounding = Demand.Ceil)
  |> Fun.flip Fingerprint.add_int tree_index

(* [run] with the relax stage routed through the snapshot cache: each tree
   runs the Merkle-diffing DP ({!Tree_dp.solve_snap}, bit-identical to a
   cold solve) against its cached snapshot.  The caller looks every
   snapshot up before the batch and publishes the new ones after it, in
   tree order, so the cache's recency order does not depend on which tree
   finished first.  The packed-solution cache is NOT consulted (an
   incremental solve must report its true per-subtree work), but healthy
   results are still published to it — they are bit-identical to what a
   cold run would cache.  Returns the solution plus [(resolved_subtrees,
   reused_subtrees)] summed over the ensemble. *)
let run_incremental ?(deadline = Deadline.none) inst options =
  let p, key = prepare_keyed inst options in
  let resolved = ref 0 and reused = ref 0 in
  let relax ~deadline ~lost (e : embedded) =
    stage 2 @@ fun () ->
    let keys =
      Array.init (Ensemble.size e.ensemble) (fun i ->
          shape_key p (Ensemble.get e.ensemble i) ~tree_index:i)
    in
    let prevs = Array.map (Artifact_cache.find subtree_cache) keys in
    relax_trees ~deadline ~lost e (fun ~deadline ~workspace i ->
        let t, demand_units, cfg = tree_inputs p (Ensemble.get e.ensemble i) in
        Obs.span "solver.tree_dp" (fun () ->
            Tree_dp.solve_snap ~deadline ~workspace ?prev:prevs.(i) t ~demand_units cfg)
        |> Option.map (fun (dp, snap, st) -> ({ demand_units; dp }, snap, st)))
    |> Array.mapi (fun i ->
           Option.map (fun (tr, snap, st) ->
               Artifact_cache.add subtree_cache keys.(i) snap;
               resolved := !resolved + st.Tree_dp.resolved_nodes;
               reused := !reused + st.Tree_dp.reused_nodes;
               tr))
  in
  fenced ~deadline ~on_lost:raise_lost key p relax
  |> Option.map (fun sol ->
         Obs.count "solver.solves" 1;
         (sol, (!resolved, !reused)))
