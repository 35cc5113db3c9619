module Tree = Hgp_tree.Tree
module Tree_dp = Hgp_core.Tree_dp
module Gen = Hgp_graph.Generators
module Prng = Hgp_util.Prng
module H = Hgp_hierarchy.Hierarchy

let mk_config ?(bucketing = None) ?(prune = true) ~cm ~cp_units () =
  { Tree_dp.cm; cp_units; bucketing; prune; beam_width = None }

(* A small job tree (every node a job via lifting) with random unit demands. *)
let gen_job_instance =
  let open QCheck2.Gen in
  let* seed = int_bound 1_000_000 in
  let* n = int_range 2 7 in
  let* h = int_range 1 2 in
  let rng = Prng.create seed in
  let g = Gen.random_tree rng n in
  let g = Gen.randomize_weights rng g ~lo:1.0 ~hi:9.0 in
  let t = Tree.of_graph g ~root:0 in
  let t, job_leaf = Tree.lift_internal_jobs t in
  let demand_units = Array.make (Tree.n_nodes t) 0 in
  Array.iter (fun l -> demand_units.(l) <- 1 + Prng.int rng 2) job_leaf;
  let cm = if h = 1 then [| 10.; 0. |] else [| 10.; 3.; 0. |] in
  (* Generous capacities so most instances are feasible. *)
  let cp_units =
    if h = 1 then [| 4 * n; 4 |] else [| 4 * n; 8; 4 |]
  in
  return (t, demand_units, cm, cp_units)

let prop_dp_equals_brute_force =
  Test_support.qtest ~count:120 "DP cost = exhaustive kappa enumeration"
    gen_job_instance
    (fun (t, demand_units, cm, cp_units) ->
      let cfg = mk_config ~cm ~cp_units () in
      match (Tree_dp.solve t ~demand_units cfg, Tree_dp.brute_force t ~demand_units cfg) with
      | Some r, Some bf -> Float.abs (r.cost -. bf) < 1e-6
      | None, None -> true
      | _ -> false)

let prop_kappa_consistency =
  Test_support.qtest ~count:120 "reconstructed kappa realizes the DP cost and capacities"
    gen_job_instance
    (fun (t, demand_units, cm, cp_units) ->
      let cfg = mk_config ~cm ~cp_units () in
      match Tree_dp.solve t ~demand_units cfg with
      | None -> true
      | Some r ->
        Float.abs (Tree_dp.kappa_cost t ~kappa:r.kappa ~cm -. r.cost) < 1e-6
        && Tree_dp.check_kappa t ~demand_units ~kappa:r.kappa ~cp_units <= 1. +. 1e-9)

let prop_prune_preserves_optimum =
  Test_support.qtest ~count:120 "Pareto pruning preserves the optimal cost"
    gen_job_instance
    (fun (t, demand_units, cm, cp_units) ->
      let with_p = Tree_dp.solve t ~demand_units (mk_config ~prune:true ~cm ~cp_units ()) in
      let without = Tree_dp.solve t ~demand_units (mk_config ~prune:false ~cm ~cp_units ()) in
      match (with_p, without) with
      | Some a, Some b ->
        Float.abs (a.cost -. b.cost) < 1e-6 && a.states_explored <= b.states_explored
      | None, None -> true
      | _ -> false)

let prop_root_signature_monotone =
  Test_support.qtest ~count:120 "root signature is monotone and within capacity"
    gen_job_instance
    (fun (t, demand_units, cm, cp_units) ->
      let cfg = mk_config ~cm ~cp_units () in
      match Tree_dp.solve t ~demand_units cfg with
      | None -> true
      | Some r ->
        let sg = r.root_signature in
        let h = Array.length cm - 1 in
        let ok = ref (Array.length sg = h) in
        for j = 0 to h - 1 do
          if sg.(j) > cp_units.(j + 1) then ok := false;
          if j > 0 && sg.(j) > sg.(j - 1) then ok := false
        done;
        !ok)

let test_single_edge_tradeoff () =
  (* Two unit-demand leaves under a root; leaf capacity 1 unit forces a cut
     at level 1 on the cheaper... there is only one shape: both leaves hang
     off the root with weights 2 and 5.  Separating them must cut ONE of the
     two edges at level 0 (kappa = 0); optimal cuts the cheap one. *)
  let t =
    Tree.of_parents ~root:0 ~parents:[| -1; 0; 0 |] ~weights:[| 0.; 2.; 5. |]
  in
  let demand_units = [| 0; 1; 1 |] in
  let cfg = mk_config ~cm:[| 10.; 0. |] ~cp_units:[| 2; 1 |] () in
  match Tree_dp.solve t ~demand_units cfg with
  | None -> Alcotest.fail "should be feasible"
  | Some r ->
    Test_support.check_close "cut the cheap edge" 20. r.cost;
    Alcotest.(check int) "cheap edge separated" 0 r.kappa.(1);
    Alcotest.(check int) "heavy edge kept" 1 r.kappa.(2)

let test_no_cut_needed () =
  let t =
    Tree.of_parents ~root:0 ~parents:[| -1; 0; 0 |] ~weights:[| 0.; 2.; 5. |]
  in
  let demand_units = [| 0; 1; 1 |] in
  let cfg = mk_config ~cm:[| 10.; 0. |] ~cp_units:[| 4; 2 |] () in
  match Tree_dp.solve t ~demand_units cfg with
  | None -> Alcotest.fail "feasible"
  | Some r -> Test_support.check_close "everything together is free" 0. r.cost

let test_infeasible_leaf () =
  let t = Tree.of_parents ~root:0 ~parents:[| -1; 0 |] ~weights:[| 0.; 1. |] in
  let cfg = mk_config ~cm:[| 1.; 0. |] ~cp_units:[| 4; 2 |] () in
  Alcotest.(check bool) "oversized job" true
    (Tree_dp.solve t ~demand_units:[| 0; 3 |] cfg = None)

let test_infeasible_total () =
  let t =
    Tree.of_parents ~root:0 ~parents:[| -1; 0; 0; 0 |] ~weights:[| 0.; 1.; 1.; 1. |]
  in
  let cfg = mk_config ~cm:[| 1.; 0. |] ~cp_units:[| 2; 1 |] () in
  Alcotest.(check bool) "total exceeds CP(0)" true
    (Tree_dp.solve t ~demand_units:[| 0; 1; 1; 1 |] cfg = None)

let test_internal_demand_rejected () =
  let t = Tree.of_parents ~root:0 ~parents:[| -1; 0 |] ~weights:[| 0.; 1. |] in
  let cfg = mk_config ~cm:[| 1.; 0. |] ~cp_units:[| 4; 2 |] () in
  Alcotest.check_raises "internal demand"
    (Invalid_argument "Tree_dp.solve: internal node carries demand") (fun () ->
      ignore (Tree_dp.solve t ~demand_units:[| 1; 1 |] cfg))

let test_infinite_edge_handling () =
  (* A dummy infinite edge must never be cut, and costs nothing uncut. *)
  let t =
    Tree.of_parents ~root:0 ~parents:[| -1; 0; 0 |] ~weights:[| 0.; infinity; 1. |]
  in
  let demand_units = [| 0; 1; 1 |] in
  let cfg = mk_config ~cm:[| 5.; 0. |] ~cp_units:[| 2; 1 |] () in
  match Tree_dp.solve t ~demand_units cfg with
  | None -> Alcotest.fail "feasible"
  | Some r ->
    Test_support.check_close "cut only the finite edge" 5. r.cost;
    Alcotest.(check int) "infinite edge kept" 1 r.kappa.(1)

let test_height_zero () =
  let t = Tree.of_parents ~root:0 ~parents:[| -1; 0 |] ~weights:[| 0.; 3. |] in
  let cfg = mk_config ~cm:[| 0. |] ~cp_units:[| 5 |] () in
  match Tree_dp.solve t ~demand_units:[| 0; 2 |] cfg with
  | None -> Alcotest.fail "feasible"
  | Some r -> Test_support.check_close "single leaf hierarchy, zero cost" 0. r.cost

let prop_bucketing_cost_not_better =
  Test_support.qtest ~count:80 "bucketed DP cost <= exact (it relaxes capacities)"
    gen_job_instance
    (fun (t, demand_units, cm, cp_units) ->
      let exact = Tree_dp.solve t ~demand_units (mk_config ~cm ~cp_units ()) in
      let bucketed =
        Tree_dp.solve t ~demand_units (mk_config ~bucketing:(Some 0.5) ~cm ~cp_units ())
      in
      match (exact, bucketed) with
      | Some e, Some b -> b.cost <= e.cost +. 1e-6
      | None, _ -> true (* bucketing under-counts demand, may become feasible *)
      | Some _, None -> false)

(* ---- differential: flat kernel vs Hashtbl reference oracle ---- *)

module Ref_dp = Test_support.Tree_dp_reference
module Deadline = Hgp_resilience.Deadline
module Workspace = Hgp_util.Workspace

(* Exact equality of two solve outcomes: cost bit-for-bit, full kappa and
   root signature arrays, and the states-explored work measure. *)
let check_identical tag flat reference =
  match (flat, reference) with
  | None, None -> ()
  | Some (f : Tree_dp.result), Some (r : Tree_dp.result) ->
    if not (Float.equal f.cost r.cost) then
      Alcotest.failf "%s: cost %.17g <> reference %.17g" tag f.cost r.cost;
    Alcotest.(check (array int)) (tag ^ ": kappa") r.kappa f.kappa;
    Alcotest.(check (array int)) (tag ^ ": root signature") r.root_signature f.root_signature;
    Alcotest.(check int) (tag ^ ": states explored") r.states_explored f.states_explored
  | Some _, None -> Alcotest.failf "%s: kernel feasible, reference infeasible" tag
  | None, Some _ -> Alcotest.failf "%s: kernel infeasible, reference feasible" tag

(* A seeded instance larger and tighter than [gen_job_instance]: enough
   states that bucketing, Pareto pruning and beam eviction all trigger. *)
let mk_diff_instance seed =
  let rng = Prng.create seed in
  let n = 4 + Prng.int rng 11 (* 4..14 graph nodes *) in
  let h = 1 + Prng.int rng 2 in
  let g = Gen.random_tree rng n in
  let g = Gen.randomize_weights rng g ~lo:1.0 ~hi:9.0 in
  let t = Tree.of_graph g ~root:0 in
  let t, job_leaf = Tree.lift_internal_jobs t in
  let demand_units = Array.make (Tree.n_nodes t) 0 in
  Array.iter (fun l -> demand_units.(l) <- 1 + Prng.int rng 3) job_leaf;
  let cm = if h = 1 then [| 12.; 0. |] else [| 12.; 4.; 0. |] in
  (* Tight-ish lower levels: big tables, real pruning/eviction. *)
  let cp_units = if h = 1 then [| 4 * n; 6 |] else [| 4 * n; 9; 5 |] in
  (t, demand_units, cm, cp_units)

let diff_configs ~cm ~cp_units =
  [
    ("exact", mk_config ~cm ~cp_units ());
    ("no-prune", mk_config ~prune:false ~cm ~cp_units ());
    ("bucketed", mk_config ~bucketing:(Some 0.5) ~cm ~cp_units ());
    ("beam2", { (mk_config ~cm ~cp_units ()) with Tree_dp.beam_width = Some 2 });
    ( "beam4-bucketed",
      { (mk_config ~bucketing:(Some 0.3) ~cm ~cp_units ()) with Tree_dp.beam_width = Some 4 } );
  ]

(* A tie-heavy instance: small integer edge weights, integer multipliers and
   tight capacities make many distinct accumulator states reach the same
   merged key at exactly the same cost, so the canonical tie-break — the
   smallest (accumulator key, child key, level) — decides the backpointer,
   and with it kappa.  Cost order and key order of the accumulator states
   disagree often enough that comparing state positions instead of keys
   changes the reconstruction. *)
let mk_tie_instance seed =
  let rng = Prng.create (2000 + seed) in
  let n = 5 + Prng.int rng 8 (* 5..12 graph nodes *) in
  let h = 1 + Prng.int rng 2 in
  let g = Gen.random_tree rng n in
  let g =
    Hgp_graph.Graph.of_edges n
      (List.map
         (fun (u, v, _) -> (u, v, float_of_int (1 + Prng.int rng 2)))
         (Array.to_list (Hgp_graph.Graph.edges g)))
  in
  let t = Tree.of_graph g ~root:0 in
  let t, job_leaf = Tree.lift_internal_jobs t in
  let demand_units = Array.make (Tree.n_nodes t) 0 in
  Array.iter (fun l -> demand_units.(l) <- 1 + Prng.int rng 2) job_leaf;
  let cm = if h = 1 then [| 2.; 0. |] else [| 3.; 1.; 0. |] in
  let cp_units = if h = 1 then [| 4 * n; 3 |] else [| 4 * n; 5; 3 |] in
  (t, demand_units, cm, cp_units)

(* 60 seeded samples x 5 configs, plus 40 tie-heavy ones, kernel == oracle
   on every field. *)
let test_differential_seeded () =
  let run tag (t, demand_units, cm, cp_units) =
    List.iter
      (fun (name, cfg) ->
        let flat = Tree_dp.solve t ~demand_units cfg in
        let reference = Ref_dp.solve t ~demand_units cfg in
        check_identical (Printf.sprintf "%s %s" tag name) flat reference)
      (diff_configs ~cm ~cp_units)
  in
  for seed = 1 to 60 do
    run (Printf.sprintf "seed %d" seed) (mk_diff_instance seed)
  done;
  for seed = 1 to 40 do
    run (Printf.sprintf "tie seed %d" seed) (mk_tie_instance seed)
  done

(* A tall instance: h = 4 with capacities wide enough that the Pareto
   scan's packed signature needs two words (17 + 17 + 16 + 16 bits), and
   demands large enough that the lower capacities bind. *)
let tall_cp_units n = [| 60_000 * n; 60_000; 40_000; 30_000; 20_000 |]

let mk_tall_instance seed =
  let rng = Prng.create (1000 + seed) in
  let n = 4 + Prng.int rng 4 (* 4..7 graph nodes *) in
  let g = Gen.random_tree rng n in
  let g = Gen.randomize_weights rng g ~lo:1.0 ~hi:9.0 in
  let t = Tree.of_graph g ~root:0 in
  let t, job_leaf = Tree.lift_internal_jobs t in
  let demand_units = Array.make (Tree.n_nodes t) 0 in
  Array.iter (fun l -> demand_units.(l) <- 1 + Prng.int rng 12_000) job_leaf;
  (t, demand_units, [| 12.; 6.; 3.; 1.; 0. |], tall_cp_units n)

(* 30 tall seeds x 5 configs: the multi-word dominance path, bit-for-bit
   against the oracle, states explored included. *)
let test_differential_tall () =
  let caps = Array.sub (tall_cp_units 1) 1 4 in
  Alcotest.(check int) "two-word layout" 2
    (Hgp_core.Signature.packing caps).Hgp_core.Signature.words;
  for seed = 1 to 30 do
    let t, demand_units, cm, cp_units = mk_tall_instance seed in
    List.iter
      (fun (name, cfg) ->
        let flat = Tree_dp.solve t ~demand_units cfg in
        let reference = Ref_dp.solve t ~demand_units cfg in
        check_identical (Printf.sprintf "tall seed %d %s" seed name) flat reference)
      (diff_configs ~cm ~cp_units)
  done

(* A random job tree whose edge weights are drawn from [weights]. *)
let mk_weighted_instance ~seed ~weights ~n ~h ~cm ~cp_units =
  let rng = Prng.create seed in
  let g = Gen.random_tree rng n in
  let g =
    Hgp_graph.Graph.of_edges n
      (List.map
         (fun (u, v, _) -> (u, v, weights.(Prng.int rng (Array.length weights))))
         (Array.to_list (Hgp_graph.Graph.edges g)))
  in
  let t = Tree.of_graph g ~root:0 in
  let t, job_leaf = Tree.lift_internal_jobs t in
  let demand_units = Array.make (Tree.n_nodes t) 0 in
  Array.iter (fun l -> demand_units.(l) <- 1 + Prng.int rng 2) job_leaf;
  (t, demand_units, Array.sub cm (2 - h) (h + 1), Array.sub cp_units (2 - h) (h + 1))

(* Float-absorption ties.  Edges of weight 2^53 next to edges of weight
   0.5..2 put accumulator costs where one ulp is 2, so [costa +. costc]
   rounds two child states of different cost to the same merged cost.
   Cutting inside a child costs a little and shrinks its signature, so the
   costlier child state often has the smaller key and wins the canonical
   tie-break: a merge that kept only each key's cheapest child state would
   change kappa here. *)
let mk_absorb_instance seed =
  let rng = Prng.create (3000 + seed) in
  let n = 5 + Prng.int rng 8 and h = 1 + Prng.int rng 2 in
  mk_weighted_instance ~seed:(3100 + seed) ~n ~h
    ~weights:[| 0x1p53; 0x1p53; 0.5; 1.; 1.5; 2. |]
    ~cm:[| 1.; 0.5; 0. |]
    ~cp_units:[| 4 * n; 5; 3 |]

(* Integer weights and multipliers: many child states reach a merged key
   at exactly the same cost, so the tie-break decides most backpointers. *)
let mk_int_tie_instance seed =
  let rng = Prng.create (4000 + seed) in
  let n = 6 + Prng.int rng 10 and h = 1 + Prng.int rng 2 in
  mk_weighted_instance ~seed:(4100 + seed) ~n ~h ~weights:[| 1.; 1.; 2.; 3. |]
    ~cm:[| 2.; 1.; 0. |]
    ~cp_units:[| 4 * n; 6; 3 |]

let test_differential_ties () =
  let heavy = ref 0 in
  for seed = 1 to 60 do
    List.iter
      (fun (tag, (t, demand_units, cm, cp_units)) ->
        List.iter
          (fun (name, cfg) ->
            let flat = Tree_dp.solve t ~demand_units cfg in
            (match flat with Some r when r.Tree_dp.cost >= 0x1p53 -> incr heavy | _ -> ());
            let reference = Ref_dp.solve t ~demand_units cfg in
            check_identical (Printf.sprintf "%s seed %d %s" tag seed name) flat reference)
          (diff_configs ~cm ~cp_units))
      [ ("absorb", mk_absorb_instance seed); ("int-tie", mk_int_tie_instance seed) ]
  done;
  (* The absorption instances must actually reach the 2^53 regime. *)
  Alcotest.(check bool) "optima at or above 2^53" true (!heavy > 0)

(* Infeasible leaves: one job is pushed past the leaf capacity; both sides
   must agree the instance is infeasible (and on feasible neighbours). *)
let test_differential_infeasible_leaves () =
  for seed = 61 to 75 do
    let t, demand_units, cm, cp_units = mk_diff_instance seed in
    (* Oversize the first demanded leaf. *)
    let demand_units = Array.copy demand_units in
    (try
       Array.iteri
         (fun v d ->
           if d > 0 then begin
             demand_units.(v) <- cp_units.(Array.length cp_units - 1) + 1;
             raise Exit
           end)
         demand_units
     with Exit -> ());
    List.iter
      (fun (name, cfg) ->
        let flat = Tree_dp.solve t ~demand_units cfg in
        let reference = Ref_dp.solve t ~demand_units cfg in
        if flat <> None then
          Alcotest.failf "seed %d %s: oversized leaf accepted" seed name;
        check_identical (Printf.sprintf "seed %d %s (infeasible)" seed name) flat reference)
      (diff_configs ~cm ~cp_units)
  done

(* Expired deadlines must abort both implementations the same way. *)
let test_differential_deadline_abort () =
  let t, demand_units, cm, cp_units = mk_diff_instance 7 in
  let cfg = mk_config ~cm ~cp_units () in
  let expired () = Deadline.of_ms (-1.) in
  let aborts f =
    match f () with
    | exception Hgp_resilience.Hgp_error.Error (Hgp_resilience.Hgp_error.Deadline_exceeded _)
      ->
      true
    | _ -> false
  in
  Alcotest.(check bool) "kernel aborts" true
    (aborts (fun () -> Tree_dp.solve ~deadline:(expired ()) t ~demand_units cfg));
  Alcotest.(check bool) "reference aborts" true
    (aborts (fun () -> Ref_dp.solve ~deadline:(expired ()) t ~demand_units cfg));
  (* And a deadline abort must not poison the domain workspace: the next
     solve on this domain reuses it and still matches the oracle. *)
  check_identical "post-abort solve"
    (Tree_dp.solve t ~demand_units cfg)
    (Ref_dp.solve t ~demand_units cfg)

(* An explicitly threaded lease (the pipeline's usage pattern) must not
   change results, solve after solve on the same scratch. *)
let test_differential_shared_workspace () =
  Workspace.with_ws (fun lease ->
      for seed = 76 to 90 do
        let t, demand_units, cm, cp_units = mk_diff_instance seed in
        List.iter
          (fun (name, cfg) ->
            let flat = Tree_dp.solve ~workspace:lease t ~demand_units cfg in
            let reference = Ref_dp.solve t ~demand_units cfg in
            check_identical (Printf.sprintf "seed %d %s (shared ws)" seed name) flat reference)
          (diff_configs ~cm ~cp_units)
      done)

(* Post-merge telemetry split.  The kernel's scan may stop early, moving
   states from [tree_dp.pareto_dropped] to [tree_dp.beam_evictions], but
   their sum per solve (raw merge states minus survivors) is fixed by the
   merge itself.  Pinned per seed 1..60 from the kernel that scanned every
   state. *)
let pinned_dropped_total =
  [
    ( "beam2",
      [| 14; 19; 35; 13; 22; 13; 22; 33; 14; 16; 26; 19; 11; 34; 23; 19; 35; 20; 16; 17;
         18; 3; 22; 19; 13; 36; 6; 34; 19; 11; 19; 16; 5; 31; 13; 15; 12; 48; 25; 49;
         10; 42; 11; 12; 13; 23; 12; 12; 11; 8; 23; 9; 23; 43; 14; 24; 21; 6; 21; 15 |] );
    ( "beam4-bucketed",
      [| 20; 32; 54; 19; 16; 19; 32; 43; 20; 18; 40; 20; 8; 54; 46; 32; 57; 25; 18; 26;
         25; 2; 38; 33; 10; 58; 5; 60; 35; 8; 14; 26; 3; 62; 11; 10; 9; 75; 20; 76;
         13; 69; 10; 11; 10; 43; 17; 7; 6; 6; 17; 6; 38; 66; 12; 32; 17; 4; 19; 21 |] );
  ]

let test_dropped_split () =
  let module Obs = Hgp_obs.Obs in
  let counts t ~demand_units cfg =
    Obs.reset ();
    Obs.enable ();
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        ignore (Tree_dp.solve t ~demand_units cfg);
        (Obs.counter_value "tree_dp.pareto_dropped", Obs.counter_value "tree_dp.beam_evictions"))
  in
  for seed = 1 to 60 do
    let t, demand_units, cm, cp_units = mk_diff_instance seed in
    List.iter
      (fun (name, (cfg : Tree_dp.config)) ->
        let tag = Printf.sprintf "seed %d %s" seed name in
        let dropped, evicted = counts t ~demand_units cfg in
        match (cfg.beam_width, List.assoc_opt name pinned_dropped_total) with
        | None, _ -> Alcotest.(check int) (tag ^ ": no beam, no evictions") 0 evicted
        | Some _, Some pinned ->
          Alcotest.(check int) (tag ^ ": dropped + evicted") pinned.(seed - 1) (dropped + evicted)
        | Some _, None -> Alcotest.failf "%s: no pinned totals" tag)
      (diff_configs ~cm ~cp_units)
  done

let () =
  Alcotest.run "tree_dp"
    [
      ( "unit",
        [
          Alcotest.test_case "single edge tradeoff" `Quick test_single_edge_tradeoff;
          Alcotest.test_case "no cut needed" `Quick test_no_cut_needed;
          Alcotest.test_case "infeasible leaf" `Quick test_infeasible_leaf;
          Alcotest.test_case "infeasible total" `Quick test_infeasible_total;
          Alcotest.test_case "internal demand" `Quick test_internal_demand_rejected;
          Alcotest.test_case "infinite edges" `Quick test_infinite_edge_handling;
          Alcotest.test_case "height zero" `Quick test_height_zero;
        ] );
      ( "property",
        [
          prop_dp_equals_brute_force;
          prop_kappa_consistency;
          prop_prune_preserves_optimum;
          prop_root_signature_monotone;
          prop_bucketing_cost_not_better;
        ] );
      ( "differential",
        [
          Alcotest.test_case "kernel = oracle, 60 seeds x 5 configs" `Quick
            test_differential_seeded;
          Alcotest.test_case "tall two-word signatures, 30 seeds x 5 configs" `Quick
            test_differential_tall;
          Alcotest.test_case "float-absorption and integer ties, 60 seeds x 5 configs" `Quick
            test_differential_ties;
          Alcotest.test_case "infeasible leaves" `Quick test_differential_infeasible_leaves;
          Alcotest.test_case "deadline aborts" `Quick test_differential_deadline_abort;
          Alcotest.test_case "shared workspace lease" `Quick
            test_differential_shared_workspace;
          Alcotest.test_case "pareto/beam drop split" `Quick test_dropped_split;
        ] );
    ]
