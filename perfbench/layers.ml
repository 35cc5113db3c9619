(* Per-layer accounting for the traced run.

   Measured from outside the library: [Obs] is enabled only around traced
   ops, and its spans are aggregated by name (self time and count; the
   [parent] field is not used).  Every span name is charged to one layer
   metric, so the layer self times add up to the time the spans cover.  The
   always-on introspection ([Pipeline.stage_timings], [Pipeline.cache_stats],
   [Server.stats], the V-cycle result) and the benchmark's own
   timers are sampled around each traced op. *)

module Obs = Hgp_obs.Obs
module Pipeline = Hgp_core.Pipeline
module Vcycle = Hgp_multilevel.Vcycle
module Server = Hgp_server.Server

let requests = ref 0
let op_ms = ref 0.
let acc : (string, float) Hashtbl.t = Hashtbl.create 64
let get k = Option.value ~default:0. (Hashtbl.find_opt acc k)
let add k v = Hashtbl.replace acc k (get k +. v)
let stage_before = ref []
let cache_before = ref []

let before_op () =
  stage_before := Pipeline.stage_timings ();
  cache_before := Pipeline.cache_stats ()

let after_op ~op_ms:ms ~requests:n =
  requests := !requests + n;
  op_ms := !op_ms +. ms;
  List.iter2
    (fun (name, t0) (_, t1) -> add ("stage." ^ name) (t1 -. t0))
    !stage_before (Pipeline.stage_timings ());
  List.iter2
    (fun (name, (s0 : Hgp_util.Lru.stats)) (_, (s1 : Hgp_util.Lru.stats)) ->
      add ("cache." ^ name ^ ".hits") (float_of_int (s1.hits - s0.hits));
      add ("cache." ^ name ^ ".lookups")
        (float_of_int (s1.hits - s0.hits + s1.misses - s0.misses)))
    !cache_before (Pipeline.cache_stats ())

let vcycle_result (r : Vcycle.result) =
  add "levels" (float_of_int r.Vcycle.levels)

let serve_window ~parse_ms ~submit_ms ~queue_ms ~(before : Server.stats)
    ~(after : Server.stats) =
  add "server.parse" parse_ms;
  add "server.submit" submit_ms;
  add "server.queue_wait" queue_ms;
  let d f = float_of_int (f after - f before) in
  let solves = d (fun s -> s.Server.submitted) -. d (fun s -> s.Server.updates) in
  add "server.solve_requests" solves;
  add "server.solve_responses" (d (fun s -> s.Server.ok) -. d (fun s -> s.Server.updates));
  add "server.coalesced" (d (fun s -> s.Server.coalesced));
  add "server.cache_hits" (d (fun s -> s.Server.cache_hits));
  add "server.steals" (d (fun s -> s.Server.steals))

(* The layer metric each span's self time is charged to. *)
let metric_of_span = function
  | "pipeline.stage.prepare" | "solver.quantize" -> Some "pipeline.prepare_ms"
  | "pipeline.stage.embed" -> Some "pipeline.embed_ms"
  | "pipeline.stage.relax" -> Some "pipeline.relax_ms"
  | "pipeline.stage.pack" | "solver.select" -> Some "pipeline.pack_ms"
  | "solver.tree_dp" -> Some "tree_dp.ms"
  | "solver.feasible" | "feasible.pack" -> Some "feasible.ms"
  | "multilevel.csr_build" -> Some "multilevel.csr_build_ms"
  | "multilevel.coarsen" -> Some "multilevel.coarsen_ms"
  | "multilevel.coarse_solve" -> Some "multilevel.coarse_solve_ms"
  | "multilevel.refine" -> Some "multilevel.refine_ms"
  | "multilevel.solve" | "multilevel.chain_key" -> Some "multilevel.self_ms"
  | "server.drain" -> Some "server.drain_ms"
  | "server.solve" -> Some "server.solve_ms"
  | "server.update" -> Some "server.update_ms"
  | s when String.starts_with ~prefix:"ensemble.build." s
           || String.starts_with ~prefix:"decomposition." s ->
    Some "racke.decomposition_ms"
  | s when String.starts_with ~prefix:"solver." s || String.starts_with ~prefix:"supervisor." s
    ->
    Some "pipeline.self_ms"
  | _ -> None

let time_metrics =
  [
    "pipeline.prepare_ms"; "pipeline.embed_ms"; "pipeline.relax_ms"; "pipeline.pack_ms";
    "pipeline.self_ms"; "racke.decomposition_ms"; "tree_dp.ms"; "feasible.ms";
    "multilevel.csr_build_ms"; "multilevel.coarsen_ms"; "multilevel.coarse_solve_ms";
    "multilevel.refine_ms"; "multilevel.self_ms"; "server.drain_ms"; "server.solve_ms";
    "server.update_ms";
  ]

let metrics ~untraced_p50 ~traced_p50 =
  let snap = Obs.snapshot () in
  let n = float_of_int (max 1 !requests) in
  let counter k = float_of_int (Option.value ~default:0 (List.assoc_opt k snap.Obs.counters)) in
  let gauge k = Option.value ~default:0. (List.assoc_opt k snap.Obs.gauges) in
  let self = Hashtbl.create 32 in
  let self_ms k = Option.value ~default:0. (Hashtbl.find_opt self k) in
  Printf.printf "traced: %d requests, %.1f ms of traced op time\n" !requests !op_ms;
  Printf.printf "%-34s %7s %12s %12s %12s  %s\n" "span" "count" "total_ms" "self_ms"
    "self_ms/op" "layer metric";
  List.iter
    (fun (s : Obs.span_stat) ->
      let self_total = Obs.ms_of_ns s.Obs.self_ns in
      let m = metric_of_span s.Obs.name in
      Printf.printf "%-34s %7d %12.3f %12.3f %12.4f  %s\n" s.Obs.name s.Obs.count
        (Obs.ms_of_ns s.Obs.total_ns) self_total (self_total /. n)
        (Option.value ~default:"(unattributed)" m);
      Option.iter
        (fun m -> Hashtbl.replace self m (self_ms m +. self_total))
        m)
    snap.Obs.spans;
  (* The drain thread blocks while the worker domain solves; worker spans are
     roots of their own domain, so that wait is in [server.drain]'s self
     time.  Charge it to the layers the worker ran instead. *)
  let worker_ms =
    List.fold_left
      (fun a (s : Obs.span_stat) ->
        if s.Obs.name = "server.solve" then a +. Obs.ms_of_ns s.Obs.total_ns else a)
      0. snap.Obs.spans
  in
  if self_ms "server.drain_ms" > 0. then
    Hashtbl.replace self "server.drain_ms" (Float.max 0. (self_ms "server.drain_ms" -. worker_ms));
  let covered =
    List.fold_left (fun a k -> a +. self_ms k) 0. time_metrics
    +. get "server.parse" +. get "server.submit"
  in
  Printf.printf "stage_timings (inclusive ms/op):%s\n"
    (String.concat ""
       (List.map
          (fun st -> Printf.sprintf " %s %.3f" st (get ("stage." ^ st) /. n))
          [ "prepare"; "embed"; "relax"; "pack" ]));
  let states = counter "tree_dp.states" in
  let moves = counter "refine.fm.moves" and rollbacks = counter "refine.fm.rollbacks" in
  let ratios =
    List.map
      (fun (name, num, den) ->
        Printf.printf "ratio %-34s %.6f = %.0f / %.0f\n" name (Measure.ratio num den) num den;
        (name, Measure.ratio num den))
      [
        ("cache.packed.hit_ratio", get "cache.packed.hits", get "cache.packed.lookups");
        ("cache.ensemble.hit_ratio", get "cache.ensemble.hits", get "cache.ensemble.lookups");
        ( "tree_dp.kept_ratio",
          states -. counter "tree_dp.pareto_dropped" -. counter "tree_dp.beam_evictions",
          states );
        ("refine.fm.kept_ratio", moves -. rollbacks, moves);
        ("server.coalesced_ratio", get "server.coalesced", get "server.solve_requests");
        ("server.cache_hit_ratio", get "server.cache_hits", get "server.solve_responses");
        ("layers.coverage", covered, !op_ms);
      ]
  in
  let m = Measure.metric in
  let per_op name unit v = m name unit (v /. n) in
  let ratio name = m name "ratio" (List.assoc name ratios) in
  let time name = per_op name "ms" (self_ms name) in
  [
    time "pipeline.prepare_ms"; time "pipeline.embed_ms"; time "pipeline.relax_ms";
    time "pipeline.pack_ms"; time "pipeline.self_ms"; ratio "cache.packed.hit_ratio";
    ratio "cache.ensemble.hit_ratio"; time "racke.decomposition_ms";
    per_op "racke.tree_nodes" "count/op" (counter "decomposition.tree_nodes");
    time "tree_dp.ms"; per_op "tree_dp.states" "count/op" states;
    per_op "tree_dp.beam_evictions" "count/op" (counter "tree_dp.beam_evictions");
    per_op "tree_dp.pareto_dropped" "count/op" (counter "tree_dp.pareto_dropped");
    m "tree_dp.table_peak" "count" (gauge "tree_dp.table_peak");
    ratio "tree_dp.kept_ratio"; time "feasible.ms";
    per_op "feasible.leaves_packed" "count/op" (counter "feasible.leaves_packed");
    time "multilevel.csr_build_ms"; time "multilevel.coarsen_ms";
    time "multilevel.coarse_solve_ms"; time "multilevel.refine_ms"; time "multilevel.self_ms";
    per_op "multilevel.levels" "count/op" (get "levels");
    per_op "multilevel.refine_moves" "count/op" (counter "multilevel.refine_moves");
    per_op "refine.fm.passes" "count/op" (counter "refine.fm.passes");
    per_op "refine.fm.moves" "count/op" moves;
    per_op "refine.fm.rollbacks" "count/op" rollbacks;
    per_op "refine.fm.alloc_mb" "MB/op" (counter "refine.fm.bytes_allocated" /. 1e6);
    ratio "refine.fm.kept_ratio"; per_op "server.parse_ms" "ms" (get "server.parse");
    per_op "server.submit_ms" "ms" (get "server.submit");
    per_op "server.queue_wait_ms" "ms" (get "server.queue_wait"); time "server.drain_ms";
    time "server.solve_ms"; time "server.update_ms"; ratio "server.coalesced_ratio";
    ratio "server.cache_hit_ratio"; per_op "server.steals" "count/op" (get "server.steals");
    m "obs.overhead_pct" "%" (Measure.ratio (traced_p50 -. untraced_p50) untraced_p50 *. 100.);
    m "layers.coverage_pct" "%" (List.assoc "layers.coverage" ratios *. 100.);
  ]
