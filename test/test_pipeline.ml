(* Staged-pipeline artifact reuse (docs/ARCHITECTURE.md).

   The contract under test: caching is invisible.  A warm solve must be
   bit-identical to a cold one for every option combination; any option
   field that can change the answer must change the cache key (one
   perturbed field => one miss); fault injection bypasses the caches
   entirely, so every site still fires even when the caches are hot and no
   faulted artifact is ever retained; and the pooled relax preserves
   per-tree isolation — survivors of a crashed sibling are bit-identical
   to a per-tree loop. *)

module E = Hgp_resilience.Hgp_error
module Faults = Hgp_resilience.Faults
module Gen = Hgp_graph.Generators
module H = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Demand = Hgp_core.Demand
module Solver = Hgp_core.Solver
module Pipeline = Hgp_core.Pipeline
module Artifact_cache = Hgp_resilience.Artifact_cache
module Verify = Hgp_core.Verify
module Ensemble = Hgp_racke.Ensemble
module Decomposition = Hgp_racke.Decomposition
module Fingerprint = Hgp_util.Fingerprint
module Lru = Hgp_util.Lru
module Prng = Hgp_util.Prng

(* ---- fixtures ---- *)

let mk_instance ?(n = 24) seed =
  let rng = Prng.create seed in
  let g = Gen.gnp_connected rng n (6.0 /. float_of_int n) in
  Instance.uniform_demands g
    (H.create ~degs:[| 2; 2 |] ~cm:[| 10.; 3.; 0. |] ~leaf_capacity:1.0)
    ~load_factor:0.6

let plan spec =
  match Faults.parse spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad plan %S: %s" spec e

let packed_stats () = List.assoc "packed" (Pipeline.cache_stats ())
let ensemble_stats () = List.assoc "ensemble" (Pipeline.cache_stats ())

(* Bit-level float equality (distinguishes -0., handles nan). *)
let check_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ---- fingerprint ---- *)

let test_fingerprint_deterministic () =
  let fp () =
    Fingerprint.seed
    |> Fun.flip Fingerprint.add_int 7
    |> Fun.flip Fingerprint.add_float 0.25
    |> Fun.flip Fingerprint.add_string "mixed"
    |> Fun.flip Fingerprint.add_int_array [| 1; 2; 3 |]
  in
  Alcotest.(check string) "stable" (Fingerprint.to_hex (fp ())) (Fingerprint.to_hex (fp ()));
  Alcotest.(check int) "hex width" 16 (String.length (Fingerprint.to_hex (fp ())))

let test_fingerprint_no_concatenation_ambiguity () =
  (* Length prefixes: "ab"+"c" must not collide with "a"+"bc". *)
  let a =
    Fingerprint.seed |> Fun.flip Fingerprint.add_string "ab"
    |> Fun.flip Fingerprint.add_string "c"
  in
  let b =
    Fingerprint.seed |> Fun.flip Fingerprint.add_string "a"
    |> Fun.flip Fingerprint.add_string "bc"
  in
  Alcotest.(check bool) "distinct" true (a <> b);
  (* Type tags: an int array is not the same as the ints fed one by one. *)
  let c = Fingerprint.add_int_array Fingerprint.seed [| 1; 2 |] in
  let d =
    Fingerprint.seed |> Fun.flip Fingerprint.add_int 1 |> Fun.flip Fingerprint.add_int 2
  in
  Alcotest.(check bool) "tagged" true (c <> d);
  (* None / Some separation. *)
  let none = Fingerprint.add_option Fingerprint.add_int Fingerprint.seed None in
  let some = Fingerprint.add_option Fingerprint.add_int Fingerprint.seed (Some 0) in
  Alcotest.(check bool) "option" true (none <> some)

(* ---- lru ---- *)

let test_lru_hit_miss_evict () =
  let c : (int, string) Lru.t = Lru.create ~capacity:2 in
  Alcotest.(check (option string)) "cold miss" None (Lru.find c 1);
  Lru.add c 1 "one";
  Lru.add c 2 "two";
  Alcotest.(check (option string)) "hit" (Some "one") (Lru.find c 1);
  (* 1 was just refreshed, so adding 3 must evict 2. *)
  Lru.add c 3 "three";
  Alcotest.(check (option string)) "refreshed key survives" (Some "one") (Lru.find c 1);
  Alcotest.(check (option string)) "oldest evicted" None (Lru.find c 2);
  let st = Lru.stats c in
  Alcotest.(check int) "hits" 2 st.Lru.hits;
  Alcotest.(check int) "misses" 2 st.Lru.misses;
  Alcotest.(check int) "evictions" 1 st.Lru.evictions;
  Alcotest.(check int) "entries" 2 st.Lru.entries;
  Lru.clear c;
  Alcotest.(check int) "clear empties" 0 (Lru.length c);
  Alcotest.(check int) "clear keeps stats" 2 (Lru.stats c).Lru.hits;
  Lru.reset_stats c;
  Alcotest.(check int) "reset zeroes" 0 (Lru.stats c).Lru.hits

(* ---- warm/cold bit-identity across the option matrix ---- *)

let strategies =
  [
    ("mixed", Ensemble.Mixed);
    ("low-diameter", Ensemble.Pure Decomposition.Low_diameter);
    ("bfs-bisection", Ensemble.Pure Decomposition.Bfs_bisection);
    ("gomory-hu", Ensemble.Pure Decomposition.Gomory_hu);
  ]

let test_warm_equals_cold_matrix () =
  let inst = mk_instance 5 in
  List.iter
    (fun (sname, strategy) ->
      List.iter
        (fun rounding ->
          let tag =
            Printf.sprintf "%s/%s" sname
              (match rounding with Demand.Floor -> "floor" | Demand.Ceil -> "ceil")
          in
          Pipeline.clear_caches ();
          let options =
            { Solver.default_options with
              ensemble_size = 2; seed = 5; strategy; rounding }
          in
          let cold = Solver.solve ~options inst in
          let hits0 = (packed_stats ()).Lru.hits in
          let warm = Solver.solve ~options inst in
          Alcotest.(check (array int))
            (tag ^ ": assignment") cold.assignment warm.assignment;
          check_bits (tag ^ ": cost") cold.cost warm.cost;
          check_bits (tag ^ ": violation") cold.max_violation warm.max_violation;
          check_bits (tag ^ ": relaxed cost") cold.relaxed_tree_cost
            warm.relaxed_tree_cost;
          Alcotest.(check int) (tag ^ ": tree index") cold.tree_index warm.tree_index;
          Alcotest.(check int) (tag ^ ": warm did no DP work") 0 warm.dp_states;
          Alcotest.(check int)
            (tag ^ ": cached work accounted") cold.dp_states warm.cached_dp_states;
          Alcotest.(check bool)
            (tag ^ ": served from packed cache") true
            ((packed_stats ()).Lru.hits > hits0))
        [ Demand.Floor; Demand.Ceil ])
    strategies

let test_parallel_sequential_identical_without_caches () =
  (* The pooled relax solves the trees on whichever lanes the pool has;
     with caching off, a per-tree loop over the same ensemble must give the
     same solution, field for field. *)
  let inst = mk_instance 6 ~n:28 in
  Artifact_cache.set_enabled false;
  Fun.protect ~finally:(fun () -> Artifact_cache.set_enabled true) @@ fun () ->
  let options = { Solver.default_options with ensemble_size = 3; seed = 8 } in
  let pooled = Solver.solve ~options inst in
  match
    Test_support.per_tree_solve inst (Test_support.ensemble_of inst ~options) ~options
  with
  | None -> Alcotest.fail "per-tree loop found no feasible tree"
  | Some looped ->
    Alcotest.(check (array int)) "assignments" looped.assignment pooled.assignment;
    check_bits "cost" looped.cost pooled.cost;
    check_bits "relaxed cost" looped.relaxed_tree_cost pooled.relaxed_tree_cost;
    Alcotest.(check int) "tree index" looped.tree_index pooled.tree_index;
    Alcotest.(check int) "same dp work" looped.dp_states pooled.dp_states

(* ---- one perturbed field => one miss ---- *)

let test_single_field_perturbation_misses () =
  let inst = mk_instance 7 in
  let base = { Solver.default_options with ensemble_size = 2; seed = 3 } in
  Pipeline.clear_caches ();
  let first = Solver.solve ~options:base inst in
  (* Control: the unperturbed options hit. *)
  let hits0 = (packed_stats ()).Lru.hits in
  let again = Solver.solve ~options:base inst in
  Alcotest.(check bool) "control hits" true ((packed_stats ()).Lru.hits > hits0);
  Alcotest.(check (array int)) "control identical" first.assignment again.assignment;
  let perturbations =
    [
      ("seed", { base with seed = 4 });
      ("eps", { base with eps = 0.5 });
      ("beam_width", { base with beam_width = Some 64 });
      ("bucketing", { base with bucketing = Some 1.05 });
      ("rounding", { base with rounding = Demand.Ceil });
      ("resolution", { base with resolution = Some 7 });
    ]
  in
  List.iter
    (fun (what, options) ->
      let misses0 = (packed_stats ()).Lru.misses in
      ignore (Solver.solve ~options inst);
      Alcotest.(check bool)
        (what ^ " change misses the packed cache")
        true
        ((packed_stats ()).Lru.misses > misses0))
    perturbations

(* ---- hierarchy perturbations => new cache keys ---- *)

(* One ragged tree, with hooks to nudge exactly one leaf capacity or one
   subtree multiplier; everything downstream of Hierarchy.fingerprint
   (pipeline artifact keys, server/batch keys, the multilevel chain key)
   must treat each variant as a different hierarchy. *)
let ragged_spec ?(cap0 = 4.) ?(cm1 = 10.) () =
  let leaf capacity = H.Leaf { capacity; cm = 0. } in
  H.Node
    {
      cm = 100.;
      children =
        [
          H.Node { cm = cm1; children = [ H.Leaf { capacity = cap0; cm = 0. }; leaf 4. ] };
          H.Node { cm = 5.; children = [ leaf 8.; leaf 8. ] };
        ];
    }

let test_hierarchy_perturbation_changes_fingerprint () =
  let fp s = Fingerprint.to_hex (H.fingerprint (H.create_ragged s)) in
  let base = fp (ragged_spec ()) in
  Alcotest.(check string) "equal content, equal key" base (fp (ragged_spec ()));
  Alcotest.(check bool) "one leaf capacity changes the key" true
    (base <> fp (ragged_spec ~cap0:5. ()));
  Alcotest.(check bool) "one subtree multiplier changes the key" true
    (base <> fp (ragged_spec ~cm1:9. ()))

let test_hierarchy_perturbation_misses_cache () =
  let rng = Prng.create 11 in
  let g = Gen.gnp_connected rng 16 0.4 in
  let mk s = Instance.uniform_demands g (H.create_ragged s) ~load_factor:0.5 in
  let options = { Solver.default_options with ensemble_size = 2; seed = 3 } in
  Pipeline.clear_caches ();
  ignore (Solver.solve ~options (mk (ragged_spec ())));
  (* Control: the same hierarchy content, rebuilt from scratch, hits. *)
  let hits0 = (packed_stats ()).Lru.hits in
  ignore (Solver.solve ~options (mk (ragged_spec ())));
  Alcotest.(check bool) "control hits" true ((packed_stats ()).Lru.hits > hits0);
  List.iter
    (fun (what, s) ->
      let misses0 = (packed_stats ()).Lru.misses in
      ignore (Solver.solve ~options (mk s));
      Alcotest.(check bool)
        (what ^ " perturbation misses the packed cache")
        true
        ((packed_stats ()).Lru.misses > misses0))
    [
      ("single leaf capacity", ragged_spec ~cap0:5. ());
      ("single subtree multiplier", ragged_spec ~cm1:9. ());
    ]

let test_embedding_reuse_is_key_precise () =
  (* eps is not part of the ensemble key (the embedding never sees demands),
     so an eps change re-packs but re-uses the sampled trees; a seed change
     invalidates the embedding too. *)
  let inst = mk_instance 9 in
  let base = { Solver.default_options with ensemble_size = 2; seed = 3 } in
  Pipeline.clear_caches ();
  ignore (Solver.solve ~options:base inst);
  let eh0 = (ensemble_stats ()).Lru.hits in
  ignore (Solver.solve ~options:{ base with eps = 0.5 } inst);
  Alcotest.(check bool) "eps change reuses the ensemble" true
    ((ensemble_stats ()).Lru.hits > eh0);
  let em0 = (ensemble_stats ()).Lru.misses in
  ignore (Solver.solve ~options:{ base with seed = 4 } inst);
  Alcotest.(check bool) "seed change re-samples" true
    ((ensemble_stats ()).Lru.misses > em0)

let test_retry_reuses_ensemble () =
  (* The spurious-infeasibility retry changes only resolution + rounding,
     neither of which is in the ensemble key (ISSUE acceptance: the retry
     must not re-sample). *)
  let g = Gen.path 4 in
  let hy = H.create ~degs:[| 2 |] ~cm:[| 1.; 0. |] ~leaf_capacity:1.0 in
  let inst = Instance.create g ~demands:(Array.make 4 0.5) hy in
  let options =
    { Solver.default_options with
      ensemble_size = 1; seed = 2; resolution = Some 1; rounding = Demand.Ceil }
  in
  Pipeline.clear_caches ();
  Pipeline.reset_cache_stats ();
  let sol = Solver.solve ~options inst in
  Alcotest.(check int) "retry solved it" 4 (Array.length sol.assignment);
  let st = ensemble_stats () in
  Alcotest.(check int) "sampled exactly once" 1 st.Lru.misses;
  Alcotest.(check bool) "retry hit the ensemble cache" true (st.Lru.hits >= 1)

(* ---- fault injection x caching ---- *)

(* Sites that fire inside the solve pipeline (instance_io.* fire at load
   time, which these tests never exercise). *)
let solver_sites =
  [
    "demand.quantize";
    "decomposition.build";
    "ensemble_cache.lookup";
    "tree_dp.solve";
    "feasible.pack";
  ]

let test_sites_fire_despite_warm_caches () =
  let inst = mk_instance 42 ~n:32 in
  let options = { Solver.default_options with ensemble_size = 2; seed = 7 } in
  List.iter
    (fun site -> Alcotest.(check bool) (site ^ " is known") true
        (List.mem site Faults.known_sites))
    solver_sites;
  Pipeline.clear_caches ();
  let clean = Solver.solve ~options inst in
  (* Caches are now hot for exactly this solve.  An armed plan must bypass
     them, so a crash at any pipeline site is still observed (recorded or
     surfaced) instead of being papered over by a cache hit. *)
  List.iter
    (fun site ->
      let spec = Printf.sprintf "seed=3;%s=crash@1" site in
      match
        Faults.with_plan (plan spec) (fun () ->
            Solver.solve_supervised ~options inst)
      with
      | Ok s ->
        if not s.Solver.certificate.Verify.assignment_complete then
          Alcotest.failf "%s: Ok but incomplete" spec;
        Alcotest.(check bool) (spec ^ ": the crash was recorded") true
          (s.Solver.errors <> [])
      | Error _ -> () (* structured failure is an acceptable outcome *)
      | exception exn -> Alcotest.failf "%s: uncaught %s" spec (Printexc.to_string exn))
    solver_sites;
  (* No faulted artifact was retained: a warm solve still reproduces the
     pre-fault answer bit for bit. *)
  let after = Solver.solve ~options inst in
  Alcotest.(check (array int)) "cache uncorrupted" clean.assignment after.assignment;
  check_bits "cost uncorrupted" clean.cost after.cost

let test_pool_crash_survivors_bit_identical () =
  (* Lose one ensemble member (the 2nd decomposition build) under the
     pooled relax: isolation must leave the survivors' answer bit-identical
     to a per-tree loop over the same survivors, crash or no crash in a
     sibling slot. *)
  let inst = mk_instance 43 ~n:32 in
  let options = { Solver.default_options with ensemble_size = 4; seed = 11 } in
  let crash = plan "seed=3;decomposition.build=crash@2" in
  let pooled =
    match Faults.with_plan crash (fun () -> Solver.solve_supervised ~options inst) with
    | Ok s -> s
    | Error e -> Alcotest.failf "supervised: %s" (E.to_string e)
  in
  let survivors, lost =
    let lost = ref [] in
    let e =
      Faults.with_plan crash (fun () ->
          Hgp_racke.Ensemble_cache.sample ~strategy:options.strategy
            ~on_lost:(fun i exn -> lost := (i, exn) :: !lost)
            ~seed:options.seed inst.Instance.graph ~size:options.ensemble_size)
    in
    (e, !lost)
  in
  Alcotest.(check string) "survivors win" "ensemble" pooled.Solver.rung;
  Alcotest.(check int) "one lost" 1 (List.length pooled.Solver.tree_failures);
  Alcotest.(check int) "the loop's ensemble lost the same one" 1 (List.length lost);
  match Test_support.per_tree_solve inst survivors ~options with
  | None -> Alcotest.fail "per-tree loop found no feasible survivor"
  | Some looped ->
    Alcotest.(check (array int)) "survivors bit-identical" looped.Solver.assignment
      pooled.Solver.solution.assignment;
    check_bits "cost bit-identical" looped.Solver.cost pooled.Solver.solution.cost

let test_degraded_results_not_cached () =
  (* A solve that lost a tree must not populate the packed cache: the next
     healthy solve has to recompute (miss), not inherit the degraded answer. *)
  let inst = mk_instance 44 ~n:32 in
  let options = { Solver.default_options with ensemble_size = 3; seed = 13 } in
  Pipeline.clear_caches ();
  (match
     Faults.with_plan
       (plan "seed=3;decomposition.build=crash@2")
       (fun () -> Solver.solve_supervised ~options inst)
   with
  | Ok s -> Alcotest.(check bool) "degraded" true s.Solver.degraded
  | Error e -> Alcotest.failf "supervised: %s" (E.to_string e));
  let misses0 = (packed_stats ()).Lru.misses in
  let healthy = Solver.solve ~options inst in
  Alcotest.(check bool) "healthy solve recomputes" true
    ((packed_stats ()).Lru.misses > misses0);
  Alcotest.(check bool) "healthy solve did DP work" true (healthy.dp_states > 0)

(* The fail-fast contract: [Solver.solve] and [Pipeline.start_session]
   stop at the first lost tree and raise what it raised.  Sampling stops at
   the failing build; the relax batch runs every tree, then raises the
   lowest-index error; packing stops at the failing tree.  Every other site
   is armed with a zero delay, so the hit count of each site pins where
   the solve stopped.  The CI chaos matrix numbers its hits the same way. *)
let contract_sites =
  [ "ensemble_cache.lookup"; "decomposition.build"; "tree_dp.solve"; "feasible.pack" ]

let fail_fast_cases =
  [
    (* armed crash, its message, hits per [contract_sites] after the call *)
    ("decomposition.build", "crash@2", "crash armed at hit 2", [ 1; 2; 0; 0 ]);
    ("tree_dp.solve", "crash@2", "crash armed at hit 2", [ 1; 4; 4; 0 ]);
    ("feasible.pack", "crash@1", "crash armed at hit 1", [ 1; 4; 4; 1 ]);
    ("ensemble_cache.lookup", "crash", "crash armed at hit 1", [ 1; 0; 0; 0 ]);
  ]

let check_fail_fast entry run () =
  let inst = mk_instance 47 ~n:24 in
  let options = { Solver.default_options with ensemble_size = 4; seed = 23 } in
  List.iter
    (fun (site, action, msg, hits) ->
      let spec =
        String.concat ";"
          (("seed=3;" ^ site ^ "=" ^ action)
          :: List.filter_map
               (fun s -> if s = site then None else Some (s ^ "=delay:0"))
               contract_sites)
      in
      Pipeline.clear_caches ();
      Faults.with_plan (plan spec) (fun () ->
          match run inst options with
          | () -> Alcotest.failf "%s under %s: no error raised" entry spec
          | exception E.Error e ->
            Alcotest.(check string) (spec ^ ": label") "fault" (E.label e);
            Alcotest.(check string)
              (spec ^ ": message")
              (E.to_string (E.Fault_injected { site; msg }))
              (E.to_string e);
            Alcotest.(check (list int))
              (spec ^ ": hits per site") hits
              (List.map Faults.hit_count contract_sites));
      Alcotest.(check int) (spec ^ ": packed cache not written") 0
        (packed_stats ()).Lru.entries)
    fail_fast_cases

let test_solve_fails_fast =
  check_fail_fast "Solver.solve" (fun inst options -> ignore (Solver.solve ~options inst))

let test_start_session_fails_fast =
  check_fail_fast "Pipeline.start_session" (fun inst options ->
      ignore (Pipeline.start_session inst options))

(* Every artifact cache obeys the one switch and the fault-plan bypass.
   The caches are warmed first, so a lookup that slipped through would
   count a hit; then, with caching off and separately under an armed plan
   that never fires, a cold solve, a V-cycle solve above its threshold and
   a session update must leave every cache's entries, hits and misses
   where they were. *)
let test_all_caches_bypassed () =
  let inst = mk_instance 45 ~n:40 in
  let options = { Solver.default_options with ensemble_size = 2; seed = 19 } in
  let vopts = { Hgp_multilevel.Vcycle.default_options with threshold = 8; solver = options } in
  let u, v, w = (Hgp_graph.Graph.edges inst.Instance.graph).(0) in
  let delta = [ Hgp_core.Delta.Reweight_edge (u, v, 2. *. w) ] in
  let workload () =
    ignore (Pipeline.run inst options);
    ignore (Hgp_multilevel.Vcycle.solve ~options:vopts inst);
    let session, _ = Option.get (Pipeline.start_session inst options) in
    ignore (Pipeline.resolve_delta session delta)
  in
  let snapshot () =
    List.map
      (fun (name, (s : Lru.stats)) -> (name, (s.Lru.entries, s.Lru.hits, s.Lru.misses)))
      (Pipeline.cache_stats ())
  in
  let check_still what bypass =
    let before = snapshot () in
    bypass workload;
    List.iter2
      (fun (name, b) (_, a) ->
        Alcotest.(check (triple int int int))
          (Printf.sprintf "%s: %s entries/hits/misses" what name)
          b a)
      before (snapshot ())
  in
  Pipeline.clear_caches ();
  workload ();
  Alcotest.(check (list string)) "every cache registered"
    [ "ensemble"; "packed"; "subtree_dp"; "hierarchy" ]
    (List.map fst (snapshot ()));
  List.iter
    (fun (name, (entries, _, _)) ->
      Alcotest.(check bool) (name ^ " warmed") true (entries > 0))
    (snapshot ());
  check_still "caching off" (fun f ->
      Artifact_cache.set_enabled false;
      Fun.protect ~finally:(fun () -> Artifact_cache.set_enabled true) f);
  check_still "armed plan" (Faults.with_plan (plan "seed=1;feasible.pack=crash@1000000"))

(* ---- stage timings ---- *)

let test_stage_timings_cover_pipeline () =
  Pipeline.reset_timings ();
  ignore (Solver.solve ~options:{ Solver.default_options with seed = 17 } (mk_instance 17));
  let t = Pipeline.stage_timings () in
  Alcotest.(check (list string)) "stage order"
    [ "prepare"; "embed"; "relax"; "pack" ]
    (List.map fst t);
  List.iter
    (fun (stage, ms) ->
      Alcotest.(check bool) (stage ^ " accumulated time") true (ms >= 0.))
    t

let () =
  Alcotest.run "pipeline"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "deterministic" `Quick test_fingerprint_deterministic;
          Alcotest.test_case "no concatenation ambiguity" `Quick
            test_fingerprint_no_concatenation_ambiguity;
        ] );
      ("lru", [ Alcotest.test_case "hit/miss/evict" `Quick test_lru_hit_miss_evict ]);
      ( "warm-cold",
        [
          Alcotest.test_case "bit-identity matrix" `Slow test_warm_equals_cold_matrix;
          Alcotest.test_case "parallel == sequential (caches off)" `Slow
            test_parallel_sequential_identical_without_caches;
        ] );
      ( "keys",
        [
          Alcotest.test_case "single-field perturbation misses" `Quick
            test_single_field_perturbation_misses;
          Alcotest.test_case "hierarchy perturbation changes fingerprint" `Quick
            test_hierarchy_perturbation_changes_fingerprint;
          Alcotest.test_case "hierarchy perturbation misses the cache" `Quick
            test_hierarchy_perturbation_misses_cache;
          Alcotest.test_case "embedding reuse is key-precise" `Quick
            test_embedding_reuse_is_key_precise;
          Alcotest.test_case "retry reuses the ensemble" `Quick test_retry_reuses_ensemble;
        ] );
      ( "faults",
        [
          Alcotest.test_case "solve fails fast" `Quick test_solve_fails_fast;
          Alcotest.test_case "start_session fails fast" `Quick
            test_start_session_fails_fast;
          Alcotest.test_case "sites fire despite warm caches" `Slow
            test_sites_fire_despite_warm_caches;
          Alcotest.test_case "pool crash: survivors bit-identical" `Slow
            test_pool_crash_survivors_bit_identical;
          Alcotest.test_case "degraded results not cached" `Quick
            test_degraded_results_not_cached;
          Alcotest.test_case "every cache obeys the switch and the plan" `Quick
            test_all_caches_bypassed;
        ] );
      ( "timings",
        [ Alcotest.test_case "stages covered" `Quick test_stage_timings_cover_pipeline ]
      );
    ]
