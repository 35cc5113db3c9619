(* Incremental re-solve (docs/INCREMENTAL.md).

   The contract under test: incrementality is invisible.  For ANY delta,
   [Vcycle.resolve_delta] must produce an answer bit-identical to a cold
   full solve on the post-delta instance — same assignment, same cost bits,
   same violation, same winning tree, same DP work counter — across regular
   and ragged hierarchies, every ensemble strategy, exact sessions (a
   V-cycle whose threshold is [max_int], so it never coarsens) and
   coarsening ones.  Churn must be the exact fraction of vertices whose
   leaf moved, and a zero-delta update must reuse every subtree. *)

module Graph = Hgp_graph.Graph
module Io = Hgp_graph.Io
module Gen = Hgp_graph.Generators
module H = Hgp_hierarchy.Hierarchy
module E = Hgp_resilience.Hgp_error
module Instance = Hgp_core.Instance
module Delta = Hgp_core.Delta
module Pipeline = Hgp_core.Pipeline
module Artifact_cache = Hgp_resilience.Artifact_cache
module Solver = Hgp_core.Solver
module Verify = Hgp_core.Verify
module Vcycle = Hgp_multilevel.Vcycle
module Ensemble = Hgp_racke.Ensemble
module Decomposition = Hgp_racke.Decomposition
module Prng = Hgp_util.Prng
module Deadline = Hgp_resilience.Deadline

(* ---- fixtures ---- *)

let regular () = H.create ~degs:[| 2; 2 |] ~cm:[| 10.; 3.; 0. |] ~leaf_capacity:1.0

let leaf capacity = H.Leaf { capacity; cm = 0. }

let ragged () =
  H.create_ragged
    (H.Node
       {
         cm = 10.;
         children =
           [
             H.Node { cm = 3.; children = [ leaf 2.; leaf 2.; leaf 1. ] };
             H.Node { cm = 3.; children = [ leaf 2.; leaf 2. ] };
             H.Node { cm = 5.; children = [ leaf 3.; leaf 1. ] };
           ];
       })

let mk_instance ?(n = 20) ?(hy = regular ()) seed =
  let rng = Prng.create seed in
  let g = Gen.gnp_connected rng n (6.0 /. float_of_int n) in
  let g = Gen.randomize_weights rng g ~lo:1.0 ~hi:9.0 in
  Instance.random_demands (Prng.create (seed + 1)) g hy ~load_factor:0.5

let strategies =
  [
    ("mixed", Ensemble.Mixed);
    ("low-diameter", Ensemble.Pure Decomposition.Low_diameter);
    ("bfs", Ensemble.Pure Decomposition.Bfs_bisection);
    ("gomory-hu", Ensemble.Pure Decomposition.Gomory_hu);
  ]

let options strategy =
  { Pipeline.default_options with ensemble_size = 2; strategy; seed = 7 }

(* An exact session: a V-cycle that never coarsens. *)
let exact solver = { Vcycle.default_options with threshold = max_int; solver }

let open_exact inst opts = Vcycle.start_session ~options:(exact opts) inst
let solution_of (r : Vcycle.update_report) = r.Vcycle.u_result.Vcycle.solution

(* A deterministic random delta against [inst]: reweights, and optionally
   structural edits (edge add/remove, vertex add/remove). *)
let random_delta ?(structural = false) rng (inst : Instance.t) =
  let g = inst.Instance.graph in
  let n = Graph.n g in
  let edges = Graph.edges g in
  let m = Array.length edges in
  let reweight () =
    let u, v, w = edges.(Prng.int rng m) in
    Delta.Reweight_edge (u, v, w *. (0.25 +. Prng.float rng 2.0))
  in
  let base = List.init (1 + Prng.int rng 3) (fun _ -> reweight ()) in
  if not structural then base
  else begin
    let extra = ref [] in
    (* remove one existing edge (it may disconnect the graph, which the
       sessions solve as given) *)
    let u, v, _ = edges.(Prng.int rng m) in
    extra := Delta.Remove_edge (u, v) :: !extra;
    (* add a fresh edge if we can find an absent slot *)
    (try
       for _ = 0 to 19 do
         let a = Prng.int rng n and b = Prng.int rng n in
         if a <> b && (not (Graph.has_edge g a b)) && not ((a, b) = (u, v) || (b, a) = (u, v))
         then begin
           extra := Delta.Add_edge (a, b, 1.0 +. Prng.float rng 5.0) :: !extra;
           raise Exit
         end
       done
     with Exit -> ());
    (* append a vertex wired to two existing ones *)
    let a = Prng.int rng n in
    let b = (a + 1 + Prng.int rng (n - 1)) mod n in
    extra :=
      Delta.Add_vertex
        (0.5 +. Prng.float rng 0.4, [ (a, 1.0 +. Prng.float rng 3.0); (b, 2.0) ])
      :: !extra;
    base @ List.rev !extra
  end

(* ---- the oracle: a cold solve with every cache disabled ---- *)

let cold_solve inst opts =
  Artifact_cache.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Artifact_cache.set_enabled true)
    (fun () -> Pipeline.run inst opts)

let check_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_same_solution ctx (a : Pipeline.solution) (b : Pipeline.solution) =
  Alcotest.(check (array int)) (ctx ^ ": assignment") b.assignment a.assignment;
  check_bits (ctx ^ ": cost") b.cost a.cost;
  check_bits (ctx ^ ": violation") b.max_violation a.max_violation;
  check_bits (ctx ^ ": relaxed") b.relaxed_tree_cost a.relaxed_tree_cost;
  Alcotest.(check int) (ctx ^ ": tree") b.tree_index a.tree_index;
  Alcotest.(check int) (ctx ^ ": dp states") b.dp_states a.dp_states

(* Run one differential case: session solve, delta, resolve_delta vs cold
   solve of the post-delta instance.  Returns the update report. *)
let differential_case ctx inst opts delta =
  Pipeline.clear_caches ();
  let session, _ = open_exact inst opts in
  let report = Vcycle.resolve_delta session delta in
  let inst' = Delta.apply inst delta in
  (match cold_solve inst' opts with
  | Some cold -> check_same_solution ctx (solution_of report) cold
  | None -> Alcotest.failf "%s: cold solve infeasible" ctx);
  Alcotest.(check bool) (ctx ^ ": certified") true report.Vcycle.u_certified;
  report

(* ---- differential suites ---- *)

let test_differential_reweight () =
  List.iter
    (fun (sname, strategy) ->
      List.iter
        (fun (hname, hy) ->
          for seed = 1 to 5 do
            let inst = mk_instance ~hy seed in
            let rng = Prng.create (1000 + seed) in
            let delta = random_delta rng inst in
            let ctx = Printf.sprintf "reweight %s/%s/%d" sname hname seed in
            ignore (differential_case ctx inst (options strategy) delta)
          done)
        [ ("regular", regular ()); ("ragged", ragged ()) ])
    strategies

let test_differential_structural () =
  List.iter
    (fun (sname, strategy) ->
      List.iter
        (fun (hname, hy) ->
          for seed = 1 to 5 do
            let inst = mk_instance ~hy (100 + seed) in
            let rng = Prng.create (2000 + seed) in
            let delta = random_delta ~structural:true rng inst in
            let ctx = Printf.sprintf "structural %s/%s/%d" sname hname seed in
            ignore (differential_case ctx inst (options strategy) delta)
          done)
        [ ("regular", regular ()); ("ragged", ragged ()) ])
    strategies

(* Consecutive deltas against one session: state must track correctly. *)
let test_differential_stream () =
  let opts = options Ensemble.Mixed in
  let inst = mk_instance 42 in
  Pipeline.clear_caches ();
  let session, _ = open_exact inst opts in
  let rng = Prng.create 4242 in
  let current = ref inst in
  for step = 1 to 10 do
    let delta = random_delta ~structural:(step mod 3 = 0) rng !current in
    let ctx = Printf.sprintf "stream step %d" step in
    let report = Vcycle.resolve_delta session delta in
    current := Delta.apply !current delta;
    (match cold_solve !current opts with
    | Some cold -> check_same_solution ctx (solution_of report) cold
    | None -> Alcotest.failf "%s: cold infeasible" ctx)
  done

(* ---- multilevel V-cycle sessions ---- *)

let vc_options strategy =
  {
    Vcycle.default_options with
    threshold = 16;
    solver = { Pipeline.default_options with ensemble_size = 2; strategy; seed = 7 };
  }

let cold_vcycle inst opts =
  (* fresh chain + cold coarse solve: clear every cache so the oracle cannot
     be served by artifacts the incremental path just published *)
  Pipeline.clear_caches ();
  Artifact_cache.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Artifact_cache.set_enabled true)
    (fun () -> Vcycle.solve ~options:opts inst)

(* Level reports finest-first, compared pairwise by [check]. *)
let check_levels ctx check (a : Vcycle.result) (b : Vcycle.result) =
  Alcotest.(check int)
    (ctx ^ ": level reports")
    (List.length b.Vcycle.level_reports)
    (List.length a.Vcycle.level_reports);
  List.iter2
    (fun (ra : Vcycle.level_report) (rb : Vcycle.level_report) ->
      check (Printf.sprintf "%s: level %d" ctx rb.Vcycle.level) ra rb)
    a.Vcycle.level_reports b.Vcycle.level_reports

(* Reused levels report 0 moves by design, so only costs are compared. *)
let check_same_result ctx (a : Vcycle.result) (b : Vcycle.result) =
  check_same_solution ctx a.Vcycle.solution b.Vcycle.solution;
  Alcotest.(check int) (ctx ^ ": levels") b.Vcycle.levels a.Vcycle.levels;
  Alcotest.(check int) (ctx ^ ": coarse n") (Instance.n b.Vcycle.coarse_instance)
    (Instance.n a.Vcycle.coarse_instance);
  check_bits (ctx ^ ": coarse violation")
    b.Vcycle.coarse_certificate.Verify.max_violation
    a.Vcycle.coarse_certificate.Verify.max_violation;
  check_levels ctx
    (fun lctx ra rb -> check_bits (lctx ^ " cost_after") rb.Vcycle.cost_after ra.Vcycle.cost_after)
    a b

let ml_differential_case ctx inst opts delta =
  Pipeline.clear_caches ();
  let session, _ = Vcycle.start_session ~options:opts inst in
  let report = Vcycle.resolve_delta session delta in
  let inst' = Delta.apply inst delta in
  check_same_result ctx report.Vcycle.u_result (cold_vcycle inst' opts);
  Alcotest.(check bool) (ctx ^ ": certified") true report.Vcycle.u_certified;
  report

let test_ml_differential () =
  List.iter
    (fun (sname, strategy) ->
      List.iter
        (fun (hname, hy) ->
          for seed = 1 to 4 do
            (* n = 60 forces real coarsening at threshold 16; n = 12 stays
               below the threshold and exercises the chainless degenerate
               path *)
            List.iter
              (fun n ->
                let inst = mk_instance ~n ~hy (500 + seed) in
                let rng = Prng.create (3000 + (10 * seed) + n) in
                let structural = seed mod 2 = 0 in
                let delta = random_delta ~structural rng inst in
                let ctx =
                  Printf.sprintf "ml %s/%s/%d/n=%d" sname hname seed n
                in
                let r = ml_differential_case ctx inst (vc_options strategy) delta in
                Alcotest.(check bool)
                  (ctx ^ ": incremental flag")
                  (not structural) r.Vcycle.u_incremental)
              [ 60; 12 ]
          done)
        [ ("regular", regular ()); ("ragged", ragged ()) ])
    [ ("mixed", Ensemble.Mixed); ("low-diameter", Ensemble.Pure Decomposition.Low_diameter) ]

let test_ml_stream () =
  let opts = vc_options Ensemble.Mixed in
  let inst = mk_instance ~n:60 77 in
  Pipeline.clear_caches ();
  let session, base = Vcycle.start_session ~options:opts inst in
  let rng = Prng.create 7777 in
  let current = ref inst in
  let prev_assignment = ref base.Vcycle.solution.Pipeline.assignment in
  for step = 1 to 8 do
    let delta = random_delta ~structural:(step mod 4 = 0) rng !current in
    let ctx = Printf.sprintf "ml stream %d" step in
    let report = Vcycle.resolve_delta session delta in
    current := Delta.apply !current delta;
    check_same_result ctx report.Vcycle.u_result (cold_vcycle !current opts);
    prev_assignment := report.Vcycle.u_result.Vcycle.solution.Pipeline.assignment;
    Alcotest.(check (array int))
      (ctx ^ ": session assignment")
      !prev_assignment
      (Vcycle.session_assignment session)
  done

(* A session's opening solve and a cold solve run the same V-cycle driver:
   from empty caches they must agree on everything, per-level refinement
   work included. *)
let test_ml_session_open_is_cold () =
  List.iter
    (fun (aname, refine_algo) ->
      List.iter
        (fun n ->
          for seed = 1 to 12 do
            let opts = { (vc_options Ensemble.Mixed) with refine_algo } in
            let inst = mk_instance ~n (600 + seed) in
            let ctx = Printf.sprintf "open %s/n=%d/%d" aname n seed in
            Pipeline.clear_caches ();
            let _, opened = Vcycle.start_session ~options:opts inst in
            Pipeline.clear_caches ();
            let cold = Vcycle.solve ~options:opts inst in
            let a = opened.Vcycle.solution and b = cold.Vcycle.solution in
            Alcotest.(check (array int)) (ctx ^ ": assignment") b.assignment a.assignment;
            check_bits (ctx ^ ": cost") b.cost a.cost;
            Alcotest.(check int) (ctx ^ ": dp states") b.dp_states a.dp_states;
            Alcotest.(check int) (ctx ^ ": tree") b.tree_index a.tree_index;
            Alcotest.(check int) (ctx ^ ": levels") cold.Vcycle.levels opened.Vcycle.levels;
            check_levels ctx
              (fun lctx ra rb ->
                Alcotest.(check int) (lctx ^ " moves") rb.Vcycle.moves ra.Vcycle.moves;
                Alcotest.(check int) (lctx ^ " rollbacks") rb.Vcycle.rollbacks
                  ra.Vcycle.rollbacks;
                check_bits (lctx ^ " cost_before") rb.Vcycle.cost_before ra.Vcycle.cost_before;
                check_bits (lctx ^ " cost_after") rb.Vcycle.cost_after ra.Vcycle.cost_after)
              opened cold
          done)
        [ 12; 60; 200 ])
    [ ("greedy", Hgp_multilevel.Refine.Greedy); ("fm", Hgp_multilevel.Refine.Fm { hill_climb = true }) ]

let test_ml_zero_delta () =
  let opts = vc_options Ensemble.Mixed in
  let inst = mk_instance ~n:60 9 in
  Pipeline.clear_caches ();
  let session, _ = Vcycle.start_session ~options:opts inst in
  let r = Vcycle.resolve_delta session [] in
  check_bits "ml churn 0" 0.0 r.Vcycle.u_churn;
  Alcotest.(check int) "no dirty subtrees" 0 r.Vcycle.u_resolved_subtrees;
  Alcotest.(check bool) "subtree reuse" true (r.Vcycle.u_reused_subtrees > 0);
  Alcotest.(check int)
    "all levels reused" r.Vcycle.u_total_levels r.Vcycle.u_reused_levels;
  Alcotest.(check bool) "levels exist" true (r.Vcycle.u_total_levels > 0);
  Alcotest.(check bool) "certified" true r.Vcycle.u_certified

(* A structural delta that cuts a vertex off leaves a disconnected graph,
   which sessions solve as given: exact and coarsening sessions, under
   every ensemble strategy, answer bit-identically to a cold solve with
   every cache off, and certify the update. *)
let isolate_vertex (inst : Instance.t) v =
  List.map
    (fun (u, _) -> Delta.Remove_edge (v, u))
    (Graph.fold_neighbors (fun acc u w -> (u, w) :: acc) [] inst.Instance.graph v)

let test_disconnecting_delta () =
  let inst = mk_instance ~n:60 9 in
  let cut = isolate_vertex inst 0 in
  Alcotest.(check bool) "the delta disconnects" false
    (Hgp_graph.Traversal.is_connected (Delta.apply inst cut).Instance.graph);
  List.iter
    (fun (sname, strategy) ->
      ignore (differential_case ("exact " ^ sname) inst (options strategy) cut);
      ignore (ml_differential_case ("multilevel " ^ sname) inst (vc_options strategy) cut))
    strategies

(* ---- one session type: the retry and deadlines ---- *)

(* Eight jobs of 0.5 on four unit leaves: at resolution 1 with Ceil every
   job rounds up to a whole leaf, so the base resolution is infeasible and
   only the solver's retry (4x resolution, Floor) packs two jobs per leaf.
   The session's coarse solve retries too, so such an instance opens a
   session, and each update is bit-identical to a cache-disabled cold
   [Solver.solve], which retries the same way. *)
let test_retry_opens_session () =
  let rng = Prng.create 31 in
  let g = Gen.randomize_weights rng (Gen.gnp_connected rng 8 0.5) ~lo:1.0 ~hi:9.0 in
  let inst = Instance.create g ~demands:(Array.make 8 0.5) (regular ()) in
  let opts =
    { (options Ensemble.Mixed) with resolution = Some 1; rounding = Hgp_core.Demand.Ceil }
  in
  let cold inst =
    Artifact_cache.set_enabled false;
    Fun.protect
      ~finally:(fun () -> Artifact_cache.set_enabled true)
      (fun () -> Solver.solve ~options:opts inst)
  in
  Pipeline.clear_caches ();
  Alcotest.(check bool) "infeasible at the base resolution" true
    (Pipeline.run_incremental inst opts = None);
  Pipeline.clear_caches ();
  let session, opened = open_exact inst opts in
  check_same_solution "open" opened.Vcycle.solution (cold inst);
  let rng = Prng.create 3131 in
  for step = 1 to 6 do
    let ctx = Printf.sprintf "retry step %d" step in
    let delta = random_delta rng (Vcycle.session_instance session) in
    let r = Vcycle.resolve_delta session delta in
    check_same_solution ctx (solution_of r) (cold (Vcycle.session_instance session));
    Alcotest.(check bool) (ctx ^ ": certified") true r.Vcycle.u_certified
  done

(* An expired deadline makes [start_session] and [resolve_delta] raise
   [Deadline_exceeded], on an exact session (threshold above n) and on a
   coarsening one (threshold below n), and a failed update leaves the
   session as it was: same instance, same assignment, and the next update
   without a deadline is still bit-identical to a cold V-cycle.  On the
   coarsening session an empty delta skips the coarse solve, so only the
   refinement walk's per-level check can notice. *)
let test_expired_deadline_leaves_session () =
  let expect_deadline what f =
    match f () with
    | _ -> Alcotest.failf "%s: expired deadline accepted" what
    | exception E.Error (E.Deadline_exceeded _) -> ()
  in
  List.iter
    (fun (label, threshold) ->
      let opts = { (vc_options Ensemble.Mixed) with threshold } in
      let inst = mk_instance ~n:60 13 in
      let rng = Prng.create 1313 in
      Pipeline.clear_caches ();
      expect_deadline (label ^ ": start_session") (fun () ->
          Vcycle.start_session ~deadline:(Deadline.of_ms 0.) ~options:opts inst);
      let session, opened = Vcycle.start_session ~options:opts inst in
      List.iter
        (fun (what, delta) ->
          let ctx = label ^ ": " ^ what in
          expect_deadline (ctx ^ ": resolve_delta") (fun () ->
              Vcycle.resolve_delta ~deadline:(Deadline.of_ms 0.) session delta);
          Alcotest.(check bool) (ctx ^ ": instance unchanged") true
            (Vcycle.session_instance session == inst);
          Alcotest.(check (array int)) (ctx ^ ": assignment unchanged")
            opened.Vcycle.solution.Pipeline.assignment
            (Vcycle.session_assignment session))
        ([ ("reweight", random_delta rng inst);
           ("structural", random_delta ~structural:true rng inst) ]
        @ if threshold < Instance.n inst then [ ("empty", []) ] else []);
      let delta = random_delta rng inst in
      let r = Vcycle.resolve_delta session delta in
      check_same_result label r.Vcycle.u_result (cold_vcycle (Delta.apply inst delta) opts))
    [ ("threshold above n", max_int); ("threshold below n", 16) ]

(* ---- zero-delta and churn ---- *)

let test_zero_delta_full_reuse () =
  let opts = options Ensemble.Mixed in
  let inst = mk_instance 7 in
  Pipeline.clear_caches ();
  let session, _ = open_exact inst opts in
  let r = Vcycle.resolve_delta session [] in
  Alcotest.(check int) "no dirty subtrees" 0 r.Vcycle.u_resolved_subtrees;
  Alcotest.(check bool) "some reuse" true (r.Vcycle.u_reused_subtrees > 0);
  check_bits "churn 0" 0.0 r.Vcycle.u_churn;
  Alcotest.(check bool) "certified" true r.Vcycle.u_certified

let test_churn_exact () =
  (* Reported churn must equal the independently-recomputed fraction of
     vertices whose leaf moved, across reweight (identity mapping) and
     structural (remapped) deltas. *)
  for seed = 1 to 8 do
    let opts = options Ensemble.Mixed in
    let inst = mk_instance (300 + seed) in
    Pipeline.clear_caches ();
    let session, opened = open_exact inst opts in
    let base = opened.Vcycle.solution in
    let rng = Prng.create (400 + seed) in
    let structural = seed mod 2 = 0 in
    let delta = random_delta ~structural rng inst in
    let inst', mapping = Delta.apply_mapped inst delta in
    let r = Vcycle.resolve_delta session delta in
    let sol = solution_of r in
    let n' = Instance.n inst' in
    let changed = ref 0 in
    let seen = Array.make n' false in
    Array.iteri
      (fun old_v new_v ->
        if new_v >= 0 then begin
          seen.(new_v) <- true;
          if base.Pipeline.assignment.(old_v) <> sol.Pipeline.assignment.(new_v)
          then incr changed
        end)
      mapping;
    Array.iter (fun s -> if not s then incr changed) seen;
    check_bits
      (Printf.sprintf "churn %d" seed)
      (float_of_int !changed /. float_of_int n')
      r.Vcycle.u_churn
  done

(* ---- delta semantics and validation ---- *)

let test_apply_semantics () =
  let g = Graph.of_edges 4 [ (0, 1, 1.); (1, 2, 2.); (2, 3, 3.); (0, 3, 4.) ] in
  let inst = Instance.create g ~demands:[| 0.5; 0.5; 0.5; 0.5 |] (regular ()) in
  (* reweight *)
  let i1 = Delta.apply inst [ Delta.Reweight_edge (1, 0, 5.) ] in
  Test_support.check_close "reweight" 5. (Graph.edge_weight i1.Instance.graph 0 1);
  Test_support.check_close "total" 14. (Graph.total_weight i1.Instance.graph);
  (* add + remove edge *)
  let i2 = Delta.apply inst [ Delta.Remove_edge (0, 1); Delta.Add_edge (0, 2, 7.) ] in
  Alcotest.(check bool) "removed" false (Graph.has_edge i2.Instance.graph 0 1);
  Test_support.check_close "added" 7. (Graph.edge_weight i2.Instance.graph 0 2);
  (* add vertex: appended at the end *)
  let i3 = Delta.apply inst [ Delta.Add_vertex (0.25, [ (1, 2.5) ]) ] in
  Alcotest.(check int) "n+1" 5 (Instance.n i3);
  Test_support.check_close "new demand" 0.25 i3.Instance.demands.(4);
  Test_support.check_close "new edge" 2.5 (Graph.edge_weight i3.Instance.graph 4 1);
  (* remove vertex: ids compact, demands permute *)
  let i4, map = Delta.apply_mapped inst [ Delta.Remove_vertex 1 ] in
  Alcotest.(check int) "n-1" 3 (Instance.n i4);
  Alcotest.(check (array int)) "mapping" [| 0; -1; 1; 2 |] map;
  Alcotest.(check bool) "edge 0-3 kept" true
    (Graph.has_edge i4.Instance.graph map.(0) map.(3));
  (* sequential semantics: reweight after add sees the added edge *)
  let i5 =
    Delta.apply inst [ Delta.Add_edge (0, 2, 1.); Delta.Reweight_edge (0, 2, 9.) ]
  in
  Test_support.check_close "seq" 9. (Graph.edge_weight i5.Instance.graph 0 2)

let test_isolated_vertex_survives () =
  (* Removing a vertex's last incident edge must keep the vertex (dense-id
     contract: the instance keeps n vertices, the demand stays). *)
  let g = Graph.of_edges 3 [ (0, 1, 1.); (1, 2, 2.) ] in
  let inst = Instance.create g ~demands:[| 0.5; 0.5; 0.5 |] (regular ()) in
  let i' = Delta.apply inst [ Delta.Remove_edge (0, 1) ] in
  Alcotest.(check int) "n unchanged" 3 (Instance.n i');
  Alcotest.(check int) "m" 1 (Graph.m i'.Instance.graph);
  Test_support.check_close "demand kept" 0.5 i'.Instance.demands.(0)

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_input" what
  | exception E.Error (E.Invalid_input _) -> ()

let test_apply_validation () =
  let g = Graph.of_edges 3 [ (0, 1, 1.); (1, 2, 2.) ] in
  let inst = Instance.create g ~demands:[| 0.5; 0.5; 0.5 |] (regular ()) in
  expect_invalid "reweight absent" (fun () ->
      Delta.apply inst [ Delta.Reweight_edge (0, 2, 1.) ]);
  expect_invalid "reweight out of range" (fun () ->
      Delta.apply inst [ Delta.Reweight_edge (0, 9, 1.) ]);
  expect_invalid "reweight negative" (fun () ->
      Delta.apply inst [ Delta.Reweight_edge (0, 1, -1.) ]);
  expect_invalid "reweight nan" (fun () ->
      Delta.apply inst [ Delta.Reweight_edge (0, 1, Float.nan) ]);
  expect_invalid "add present" (fun () ->
      Delta.apply inst [ Delta.Add_edge (0, 1, 1.) ]);
  expect_invalid "self loop" (fun () -> Delta.apply inst [ Delta.Add_edge (1, 1, 1.) ]);
  expect_invalid "remove absent" (fun () -> Delta.apply inst [ Delta.Remove_edge (0, 2) ]);
  expect_invalid "dead vertex" (fun () ->
      Delta.apply inst [ Delta.Remove_vertex 0; Delta.Reweight_edge (0, 1, 1.) ]);
  expect_invalid "demand zero" (fun () -> Delta.apply inst [ Delta.Add_vertex (0., []) ]);
  expect_invalid "demand over cap" (fun () ->
      Delta.apply inst [ Delta.Add_vertex (99., []) ]);
  expect_invalid "duplicate neighbor" (fun () ->
      Delta.apply inst [ Delta.Add_vertex (0.5, [ (0, 1.); (0, 2.) ]) ]);
  expect_invalid "remove last vertex" (fun () ->
      Delta.apply inst
        [ Delta.Remove_vertex 0; Delta.Remove_vertex 1; Delta.Remove_vertex 2 ])

let test_text_roundtrip () =
  let delta =
    [
      Delta.Reweight_edge (0, 1, 2.5);
      Delta.Add_edge (2, 3, 0.125);
      Delta.Remove_edge (1, 2);
      Delta.Add_vertex (0.75, [ (0, 1.5); (3, 2.) ]);
      Delta.Remove_vertex 2;
    ]
  in
  let s = Delta.to_string delta in
  Alcotest.(check bool) "header" true (String.length s > 11 && String.sub s 0 11 = "%hgp-delta ");
  let delta' = Delta.of_string s in
  Alcotest.(check bool) "roundtrip" true (delta = delta');
  (* comments, blank lines, CRLF *)
  let noisy = "%hgp-delta 1\r\n# note\n\nreweight 0 1 2.5\r\n" in
  Alcotest.(check bool) "noisy" true (Delta.of_string noisy = [ Delta.Reweight_edge (0, 1, 2.5) ]);
  (match Delta.of_string "reweight 0 1" with
  | _ -> Alcotest.fail "expected parse error"
  | exception E.Error (E.Parse { line = Some 1; _ }) -> ()
  | exception E.Error _ -> Alcotest.fail "expected positioned parse error")

let prop_text_roundtrip =
  let gen =
    QCheck2.Gen.(
      small_list
        (oneof
           [
             map3 (fun u v w -> Delta.Reweight_edge (u, v, w)) (int_bound 50) (int_bound 50)
               (float_bound_inclusive 10.);
             map3 (fun u v w -> Delta.Add_edge (u, v, w)) (int_bound 50) (int_bound 50)
               (float_bound_inclusive 10.);
             map2 (fun u v -> Delta.Remove_edge (u, v)) (int_bound 50) (int_bound 50);
             map2
               (fun d nbrs -> Delta.Add_vertex (d, nbrs))
               (float_bound_inclusive 1.)
               (small_list (pair (int_bound 50) (float_bound_inclusive 5.)));
             map (fun v -> Delta.Remove_vertex v) (int_bound 50);
           ]))
  in
  Test_support.qtest ~count:100 "delta text roundtrip" gen (fun delta ->
      Delta.of_string (Delta.to_string delta) = delta)

let () =
  Alcotest.run "incremental"
    [
      ( "delta",
        [
          Alcotest.test_case "apply semantics" `Quick test_apply_semantics;
          Alcotest.test_case "isolated vertex survives" `Quick test_isolated_vertex_survives;
          Alcotest.test_case "validation" `Quick test_apply_validation;
          Alcotest.test_case "text roundtrip" `Quick test_text_roundtrip;
        ] );
      ( "differential",
        [
          Alcotest.test_case "reweight (40 cases)" `Slow test_differential_reweight;
          Alcotest.test_case "structural (40 cases)" `Slow test_differential_structural;
          Alcotest.test_case "stream (10 steps)" `Slow test_differential_stream;
        ] );
      ( "multilevel",
        [
          Alcotest.test_case "differential (32 cases)" `Slow test_ml_differential;
          Alcotest.test_case "stream (8 steps)" `Slow test_ml_stream;
          Alcotest.test_case "session open = cold solve (72 cases)" `Slow
            test_ml_session_open_is_cold;
          Alcotest.test_case "zero delta" `Quick test_ml_zero_delta;
          Alcotest.test_case "disconnecting delta = cold solve" `Quick
            test_disconnecting_delta;
        ] );
      ( "session",
        [
          Alcotest.test_case "retry opens a session" `Quick test_retry_opens_session;
          Alcotest.test_case "expired deadline leaves the session unchanged" `Quick
            test_expired_deadline_leaves_session;
        ] );
      ( "churn",
        [
          Alcotest.test_case "zero delta full reuse" `Quick test_zero_delta_full_reuse;
          Alcotest.test_case "churn exact" `Slow test_churn_exact;
        ] );
      ("property", [ prop_text_roundtrip ]);
    ]
