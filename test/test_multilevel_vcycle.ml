(* Differential suite for the multilevel V-cycle (ISSUE 6 satellite).

   Three layers of evidence that coarsen -> solve -> uncoarsen -> refine is
   trustworthy:
   - differential: on every generator preset at n <= 64 x 30 seeds (150
     cases), the V-cycle's solution is certified within the (1+eps)(1+h)
     band and its cost stays within that same band factor of the exact
     pipeline's cost on the identical instance;
   - exactness: one coarsening level followed by zero-refinement
     uncoarsening reproduces the coarse solution exactly — cost shifted by
     precisely the intra-cluster weight times cm(h), leaf loads and
     violation unchanged;
   - determinism: heavy-edge matching is a pure function of the seed, and
     its matching is structurally valid (each vertex matched at most once,
     matched pairs are edges, combined weights capped). *)

module Graph = Hgp_graph.Graph
module Csr = Hgp_graph.Csr
module Gen = Hgp_graph.Generators
module Prng = Hgp_util.Prng
module Hierarchy = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Solver = Hgp_core.Solver
module Pipeline = Hgp_core.Pipeline
module Verify = Hgp_core.Verify
module Cost = Hgp_core.Cost
module Coarsen = Hgp_multilevel.Coarsen
module Vcycle = Hgp_multilevel.Vcycle

let hy = Hierarchy.Presets.dual_socket

let preset n_seed =
  let rng = Prng.create n_seed in
  [
    ("gnp-40", Gen.gnp_connected rng 40 0.15);
    ("grid-6x8", Gen.grid2d ~rows:6 ~cols:8);
    ("tree-56", Gen.random_tree (Prng.create (n_seed + 1)) 56);
    ("ws-48", Gen.watts_strogatz (Prng.create (n_seed + 2)) ~n:48 ~k:4 ~beta:0.2);
    ("barbell-20+8", Gen.barbell ~clique:20 ~bridge:8);
  ]
  |> List.map (fun (name, g) ->
         (* Weight perturbation makes heavy-edge matching non-trivial even on
            the deterministic presets. *)
         (name, Gen.randomize_weights (Prng.create (n_seed + 3)) g ~lo:0.5 ~hi:4.5))

let instance_of seed g =
  Instance.random_demands (Prng.create (seed * 7919)) g hy ~load_factor:0.6

let exact_options seed = { Solver.default_options with ensemble_size = 2; seed }

let vcycle_options ?(threshold = 16) ?(refine_passes = 2) seed =
  { Vcycle.default_options with threshold; refine_passes; solver = exact_options seed }

(* ---- differential vs the exact pipeline ---- *)

let seeds = List.init 30 (fun i -> (i * 131) + 11)

let test_differential () =
  let cases = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun (name, g) ->
          incr cases;
          let inst = instance_of seed g in
          let exact = Solver.solve ~options:(exact_options seed) inst in
          let r = Vcycle.solve ~options:(vcycle_options seed) inst in
          let cert = r.Vcycle.coarse_certificate in
          let band = cert.Verify.theorem_bound in
          if not cert.Verify.within_theorem_bound then
            Alcotest.failf "%s seed=%d: coarse certificate outside band" name seed;
          if not cert.Verify.assignment_complete then
            Alcotest.failf "%s seed=%d: incomplete coarse assignment" name seed;
          (* The fine solution inherits the band: projection preserves leaf
             loads and refinement is capped at band * CP(j). *)
          let sol = r.Vcycle.solution in
          if sol.Pipeline.max_violation > band +. 1e-9 then
            Alcotest.failf "%s seed=%d: fine violation %.4f outside band %.4f" name seed
              sol.Pipeline.max_violation band;
          if Array.length sol.Pipeline.assignment <> Instance.n inst then
            Alcotest.failf "%s seed=%d: assignment length" name seed;
          (* Cost differential: the V-cycle may lose to the exact pipeline,
             but only within the same multiplicative band the theorem grants
             the solver itself. *)
          if sol.Pipeline.cost > (band *. exact.Pipeline.cost) +. 1e-9 then
            Alcotest.failf "%s seed=%d: vcycle cost %.6g vs exact %.6g exceeds %.2fx band"
              name seed sol.Pipeline.cost exact.Pipeline.cost band;
          (* And forcing coarsening did happen (n > threshold everywhere). *)
          if r.Vcycle.levels < 1 then
            Alcotest.failf "%s seed=%d: expected at least one level" name seed)
        (preset seed))
    seeds;
  Alcotest.(check bool)
    (Printf.sprintf "at least 120 differential cases (%d run)" !cases)
    true (!cases >= 120)

(* ---- zero-refinement exactness ---- *)

let test_zero_refinement_exactness () =
  List.iter
    (fun seed ->
      let g = Gen.gnp_connected (Prng.create seed) 48 0.15 in
      let g = Gen.randomize_weights (Prng.create seed) g ~lo:0.5 ~hi:4.5 in
      let inst = instance_of seed g in
      let r =
        Vcycle.solve ~options:(vcycle_options ~refine_passes:0 ~threshold:24 seed) inst
      in
      let cert = r.Vcycle.coarse_certificate in
      let sol = r.Vcycle.solution in
      (* Fine cost = coarse cost + (intra-cluster weight) * cm(h): an edge
         inside a cluster lands with both endpoints on one leaf (LCA level
         h); every surviving edge keeps its coarse LCA level because both
         endpoints inherit their super-vertex's leaf verbatim. *)
      let fine_w = Graph.total_weight inst.Instance.graph in
      let csr = Csr.of_graph ~vwgt:inst.Instance.demands inst.Instance.graph in
      let chain_w =
        let rng = Prng.create seed in
        let c =
          Coarsen.build rng csr ~threshold:24 ~max_levels:40
            ~max_weight:(Hierarchy.leaf_capacity hy)
        in
        Graph.total_weight (Csr.to_graph (Coarsen.coarsest ~fine:csr c))
      in
      let expected =
        cert.Verify.cost_eq1
        +. ((fine_w -. chain_w) *. Hierarchy.cm hy (Hierarchy.height hy))
      in
      Test_support.check_close ~eps:1e-9
        (Printf.sprintf "seed=%d: zero-refinement cost identity" seed)
        expected sol.Pipeline.cost;
      (* Leaf loads project exactly, so the violation is the coarse one. *)
      Test_support.check_close ~eps:1e-9
        (Printf.sprintf "seed=%d: violation preserved" seed)
        cert.Verify.max_violation sol.Pipeline.max_violation)
    [ 3; 17; 4242 ]

(* ---- ragged hierarchies through the V-cycle ---- *)

let test_ragged_vcycle () =
  (* Heterogeneous fleet: coarsening must cap super-vertices at the SMALLEST
     leaf capacity, refinement at each node's own capacity; the result stays
     inside the certified band. *)
  List.iter
    (fun (hname, rhy) ->
      List.iter
        (fun seed ->
          let g = Gen.gnp_connected (Prng.create seed) 60 0.12 in
          let g = Gen.randomize_weights (Prng.create (seed + 1)) g ~lo:0.5 ~hi:4.5 in
          let inst =
            Instance.random_demands (Prng.create (seed * 7919)) g rhy ~load_factor:0.5
          in
          let r = Vcycle.solve ~options:(vcycle_options ~threshold:16 seed) inst in
          let cert = r.Vcycle.coarse_certificate in
          if not cert.Verify.assignment_complete then
            Alcotest.failf "%s seed=%d: incomplete coarse assignment" hname seed;
          if not cert.Verify.within_theorem_bound then
            Alcotest.failf "%s seed=%d: coarse certificate outside band" hname seed;
          let sol = r.Vcycle.solution in
          if sol.Pipeline.max_violation > cert.Verify.theorem_bound +. 1e-9 then
            Alcotest.failf "%s seed=%d: fine violation %.4f outside band %.4f" hname seed
              sol.Pipeline.max_violation cert.Verify.theorem_bound;
          if r.Vcycle.levels < 1 then
            Alcotest.failf "%s seed=%d: expected coarsening to engage" hname seed;
          (* Per-leaf honesty: recompute loads and compare against each
             leaf's OWN capacity, not the envelope. *)
          let k = Hierarchy.num_leaves rhy in
          let loads = Array.make k 0. in
          Array.iteri
            (fun v l -> loads.(l) <- loads.(l) +. inst.Instance.demands.(v))
            sol.Pipeline.assignment;
          Array.iteri
            (fun l load ->
              if
                load
                > (cert.Verify.theorem_bound *. Hierarchy.leaf_cap rhy l) +. 1e-9
              then
                Alcotest.failf "%s seed=%d: leaf %d load %.3f over its banded cap" hname
                  seed l load)
            loads)
        [ 3; 11; 29 ])
    [
      ("ragged_rack", Hierarchy.Presets.ragged_rack);
      ("gpu_cpu_tier", Hierarchy.Presets.gpu_cpu_tier);
    ]

(* ---- ISSUE 9: FM refinement differential + per-level ledger ---- *)

module Refine = Hgp_multilevel.Refine

let fm_options ?(hill_climb = true) ?on_level seed =
  let base = vcycle_options seed in
  {
    base with
    Vcycle.refine_algo = Refine.Fm { hill_climb };
    on_level = Option.value ~default:base.Vcycle.on_level on_level;
  }

(* The ISSUE 9 differential: FM with hill-climbing disabled warm-starts from
   the greedy fixed point, so its final cost can never exceed the greedy
   path's — pinned over the full 105-instance corpus (5 presets x 21 seeds).
   Hill-climbing is deliberately NOT in this assertion: a hill-climb pass is
   per-level monotone (next test) but a different level-l outcome projects a
   different level-(l-1) starting point, and that divergence can finish
   either way. *)
let test_fm_never_worse_than_greedy () =
  let cases = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun (name, g) ->
          incr cases;
          let inst = instance_of seed g in
          let rg = Vcycle.solve ~options:(vcycle_options seed) inst in
          let rp = Vcycle.solve ~options:(fm_options ~hill_climb:false seed) inst in
          let cg = rg.Vcycle.solution.Pipeline.cost in
          let cp = rp.Vcycle.solution.Pipeline.cost in
          if cp > cg +. 1e-9 then
            Alcotest.failf "%s seed=%d: positive-only FM cost %.6g worse than greedy %.6g"
              name seed cp cg)
        (preset seed))
    (List.init 21 (fun i -> (i * 131) + 11));
  Alcotest.(check bool)
    (Printf.sprintf "at least 100 differential cases (%d run)" !cases)
    true (!cases >= 100)

(* Full FM (hill-climbing): every level's report must be
   cost-monotone — the E20 ledger sense — and every level's partition must
   re-verify inside the certified band, on regular AND ragged hierarchies.
   The [on_level] hook receives each level's fine CSR and refined assignment,
   so the in-band check is against the real per-node loads, not a summary. *)
let test_fm_monotone_per_level () =
  List.iter
    (fun (hname, rhy) ->
      List.iter
        (fun seed ->
          let g = Gen.gnp_connected (Prng.create seed) 60 0.12 in
          let g = Gen.randomize_weights (Prng.create (seed + 1)) g ~lo:0.5 ~hi:4.5 in
          let inst =
            Instance.random_demands (Prng.create (seed * 7919)) g rhy ~load_factor:0.5
          in
          let checked = ref 0 in
          let on_level level slack csr a =
            incr checked;
            if not (Refine.in_band csr rhy a ~slack) then
              Alcotest.failf "%s seed=%d level=%d: refined level out of band" hname seed
                level
          in
          let r = Vcycle.solve ~options:(fm_options ~on_level seed) inst in
          Alcotest.(check int)
            (Printf.sprintf "%s seed=%d: every level verified" hname seed)
            r.Vcycle.levels !checked;
          List.iter
            (fun (lr : Vcycle.level_report) ->
              if lr.Vcycle.cost_after > lr.Vcycle.cost_before +. 1e-9 then
                Alcotest.failf "%s seed=%d level=%d: cost %.6g -> %.6g not monotone" hname
                  seed lr.Vcycle.level lr.Vcycle.cost_before lr.Vcycle.cost_after;
              Test_support.check_close ~eps:1e-6
                (Printf.sprintf "%s seed=%d level=%d: gain = cost delta" hname seed
                   lr.Vcycle.level)
                lr.Vcycle.gain
                (lr.Vcycle.cost_before -. lr.Vcycle.cost_after))
            r.Vcycle.level_reports;
          let cert = r.Vcycle.coarse_certificate in
          if r.Vcycle.solution.Pipeline.max_violation > cert.Verify.theorem_bound +. 1e-9
          then Alcotest.failf "%s seed=%d: final violation out of band" hname seed)
        [ 3; 11; 29; 142; 1845 ])
    [
      ("dual_socket", hy);
      ("ragged_rack", Hierarchy.Presets.ragged_rack);
      ("gpu_cpu_tier", Hierarchy.Presets.gpu_cpu_tier);
    ]

(* ---- matching determinism and invariants ---- *)

let test_matching_deterministic () =
  List.iter
    (fun seed ->
      let g = Gen.gnp_connected (Prng.create seed) 60 0.12 in
      let csr = Csr.of_graph g in
      let m1, n1 = Coarsen.matching (Prng.create seed) csr ~max_weight:infinity in
      let m2, n2 = Coarsen.matching (Prng.create seed) csr ~max_weight:infinity in
      Alcotest.(check int) "same coarse count" n1 n2;
      Alcotest.(check (array int)) "same matching" m1 m2)
    [ 1; 2; 3; 5; 8; 13 ]

let test_matching_invariants () =
  List.iter
    (fun seed ->
      let g = Gen.gnp_connected (Prng.create seed) 60 0.12 in
      let g = Gen.randomize_weights (Prng.create seed) g ~lo:0.5 ~hi:4.5 in
      let vwgt = Array.init 60 (fun v -> 1.0 +. float_of_int (v mod 5)) in
      let csr = Csr.of_graph ~vwgt g in
      let max_weight = 7.5 in
      let cmap, nc = Coarsen.matching (Prng.create seed) csr ~max_weight in
      (* Dense coarse ids. *)
      let seen = Array.make nc 0 in
      Array.iter
        (fun c ->
          if c < 0 || c >= nc then Alcotest.failf "seed=%d: coarse id %d out of range" seed c;
          seen.(c) <- seen.(c) + 1)
        cmap;
      Array.iteri
        (fun c count ->
          (* Each vertex matched at most once: groups are singletons/pairs. *)
          if count < 1 || count > 2 then
            Alcotest.failf "seed=%d: coarse vertex %d has %d members" seed c count)
        seen;
      (* Matched pairs are edges of the graph and respect the weight cap. *)
      let members = Array.make nc [] in
      Array.iteri (fun v c -> members.(c) <- v :: members.(c)) cmap;
      Array.iter
        (fun group ->
          match group with
          | [ a; b ] ->
            if Graph.edge_weight (Csr.to_graph csr) a b <= 0. then
              Alcotest.failf "seed=%d: matched pair {%d,%d} is not an edge" seed a b;
            if csr.Csr.vwgt.(a) +. csr.Csr.vwgt.(b) > max_weight then
              Alcotest.failf "seed=%d: pair {%d,%d} over weight cap" seed a b
          | [ _ ] -> ()
          | _ -> Alcotest.fail "impossible group size")
        members)
    [ 1; 7; 42; 99 ]

(* ---- hierarchy cache ---- *)

let test_hierarchy_cache_reuse () =
  Pipeline.clear_caches ();
  let g = Gen.gnp_connected (Prng.create 11) 80 0.1 in
  let inst = instance_of 11 g in
  let opts = vcycle_options ~threshold:20 11 in
  let r1 = Vcycle.solve ~options:opts inst in
  let r2 = Vcycle.solve ~options:opts inst in
  Alcotest.(check bool) "first solve is cold" false r1.Vcycle.hierarchy_cached;
  Alcotest.(check bool) "second solve reuses the chain" true r2.Vcycle.hierarchy_cached;
  Alcotest.(check (array int))
    "identical assignment" r1.Vcycle.solution.Pipeline.assignment
    r2.Vcycle.solution.Pipeline.assignment;
  (* The cache is registered with the pipeline's introspection. *)
  let stats = List.assoc "hierarchy" (Pipeline.cache_stats ()) in
  Alcotest.(check bool) "hierarchy cache hit recorded" true (stats.Hgp_util.Lru.hits >= 1)

(* ---- sessions ---- *)

(* An exact session (threshold [max_int]) checks its deadline on entry: an
   empty delta skips the coarse solve and there is no level to refine, so
   nothing later would notice an expired token. *)
let test_exact_session_expired_deadline () =
  let module E = Hgp_resilience.Hgp_error in
  let g = Gen.gnp_connected (Prng.create 30) 30 0.2 in
  let inst = instance_of 30 g in
  let opts = vcycle_options ~threshold:max_int 30 in
  let session, _ = Vcycle.start_session ~options:opts inst in
  match Vcycle.resolve_delta ~deadline:(Hgp_resilience.Deadline.of_ms 0.) session [] with
  | _ -> Alcotest.fail "expired deadline accepted on an empty delta"
  | exception E.Error (E.Deadline_exceeded _) -> ()

(* ---- scale smoke: a stream DAG three orders beyond the exact solver ---- *)

let test_stream_dag_scale () =
  let rng = Prng.create 7 in
  let w =
    Hgp_workloads.Stream_dag.generate rng
      { Hgp_workloads.Stream_dag.default_params with n_sources = 2500 }
  in
  let inst = Hgp_workloads.Stream_dag.to_instance w hy ~load_factor:0.6 in
  let n = Instance.n inst in
  Alcotest.(check bool) (Printf.sprintf "large instance (n=%d)" n) true (n >= 10_000);
  let r = Vcycle.solve ~options:(vcycle_options ~threshold:128 7) inst in
  let cert = r.Vcycle.coarse_certificate in
  Alcotest.(check bool) "coarse certified" true cert.Verify.within_theorem_bound;
  Alcotest.(check bool) "fine within band" true
    (r.Vcycle.solution.Pipeline.max_violation <= cert.Verify.theorem_bound +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "heavy coarsening (ratio %.0f)" r.Vcycle.coarsening_ratio)
    true
    (r.Vcycle.coarsening_ratio >= 50.)

(* ---- allocation budget ----

   Coarsening allocates only the chain it returns: each level's cmap and
   coarse graph.  The matching's visit order and partners, and the
   contraction's counting-sort passes, run in per-domain scratch, and the
   fingerprints no longer run per level.  Measured on the benchmark's
   pinned ~10^4-vertex stream DAG (1830 sources, threshold 32), once this
   domain's scratch has grown: bytes allocated / (8 x words reachable from
   the chain and not from the input graph) ~1.0, against a ceiling of ~2x
   that in test/perf_budget.json ("coarsen.build_alloc_per_output_word_max").
   An edge-list copy per level, a boxed value per PRNG draw or per matching
   candidate each push it past the ceiling (all three together: ~14). *)
let test_coarsen_allocation_budget () =
  let cap = Test_support.perf_budget "coarsen.build_alloc_per_output_word_max" in
  let n_sources = 1830 in
  let w =
    Hgp_workloads.Stream_dag.generate
      (Prng.create (2100 + n_sources))
      { Hgp_workloads.Stream_dag.default_params with n_sources }
  in
  let inst = Hgp_workloads.Stream_dag.to_instance w hy ~load_factor:0.6 in
  let csr = Csr.of_graph ~vwgt:inst.Instance.demands inst.Instance.graph in
  let max_weight = Hierarchy.min_leaf_capacity hy in
  let build () = Coarsen.build (Prng.create 1) csr ~threshold:32 ~max_levels:40 ~max_weight in
  ignore (build ());
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let chain = build () in
  let bytes = Gc.allocated_bytes () -. before in
  let out_words =
    Obj.reachable_words (Obj.repr chain) - Obj.reachable_words (Obj.repr csr)
  in
  let ratio = bytes /. float_of_int (out_words * (Sys.word_size / 8)) in
  Alcotest.(check bool) "coarsened" true (List.length chain >= 8);
  if ratio > cap then
    Alcotest.failf "Coarsen.build allocated %.0f bytes for %d output words (%.2fx, budget %.1fx)"
      bytes out_words ratio cap

let () =
  Alcotest.run "multilevel_vcycle"
    [
      ( "differential",
        [
          Alcotest.test_case "certified band vs exact pipeline (150 cases)" `Slow
            test_differential;
          Alcotest.test_case "zero-refinement exactness" `Quick
            test_zero_refinement_exactness;
          Alcotest.test_case "ragged hierarchies stay in band" `Quick test_ragged_vcycle;
        ] );
      ( "fm_refinement",
        [
          Alcotest.test_case "positive-only FM never worse than greedy (105 cases)" `Slow
            test_fm_never_worse_than_greedy;
          Alcotest.test_case "full FM cost-monotone and in-band per level" `Quick
            test_fm_monotone_per_level;
        ] );
      ( "matching",
        [
          Alcotest.test_case "deterministic for fixed seed" `Quick
            test_matching_deterministic;
          Alcotest.test_case "invariants" `Quick test_matching_invariants;
          Alcotest.test_case "coarsen allocation budget" `Quick
            test_coarsen_allocation_budget;
        ] );
      ( "cache",
        [ Alcotest.test_case "hierarchy chain reuse" `Quick test_hierarchy_cache_reuse ] );
      ( "sessions",
        [
          Alcotest.test_case "exact session refuses an expired deadline" `Quick
            test_exact_session_expired_deadline;
        ] );
      ( "scale", [ Alcotest.test_case "stream DAG 10^4" `Slow test_stream_dag_scale ] );
    ]
