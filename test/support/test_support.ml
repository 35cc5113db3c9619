(* Shared helpers for the test suites. *)

let check_close ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A small deterministic PRNG generator seeded from QCheck input. *)
let gen_rng = QCheck2.Gen.map Hgp_util.Prng.create QCheck2.Gen.(int_bound 1_000_000)

(* Random small connected weighted graph. *)
let gen_graph ?(max_n = 12) () =
  let open QCheck2.Gen in
  let* n = int_range 2 max_n in
  let* seed = int_bound 1_000_000 in
  let rng = Hgp_util.Prng.create seed in
  let g = Hgp_graph.Generators.gnp_connected rng n 0.4 in
  let g = Hgp_graph.Generators.randomize_weights rng g ~lo:1.0 ~hi:9.0 in
  return g

(* Random small tree (as Tree.t) with random integer weights. *)
let gen_tree ?(max_n = 10) () =
  let open QCheck2.Gen in
  let* n = int_range 2 max_n in
  let* seed = int_bound 1_000_000 in
  let rng = Hgp_util.Prng.create seed in
  let g = Hgp_graph.Generators.random_tree rng n in
  let g = Hgp_graph.Generators.randomize_weights rng g ~lo:1.0 ~hi:9.0 in
  return (Hgp_tree.Tree.of_graph g ~root:0)

(* Small random hierarchy: height 1..3, degrees 2..3, decreasing cm. *)
let gen_hierarchy =
  let open QCheck2.Gen in
  let* h = int_range 1 3 in
  let* degs = array_repeat h (int_range 2 3) in
  let* steps = array_repeat h (float_range 0.5 10.0) in
  (* cm built by accumulating nonnegative steps from the leaf level up. *)
  let cm = Array.make (h + 1) 0. in
  for j = h - 1 downto 0 do
    cm.(j) <- cm.(j + 1) +. steps.(j)
  done;
  return (Hgp_hierarchy.Hierarchy.create ~degs ~cm ~leaf_capacity:1.0)

(* Small random ragged hierarchy: all leaves at one depth 1..3, per-node
   fan-out 1..3, per-leaf capacities, non-increasing cm along every path.
   All capacities and multipliers are quarter-integers, so the "%g" used by
   Topology.to_spec prints them exactly and parse/to_spec round-trips are
   lossless. *)
let gen_ragged_hierarchy =
  let open QCheck2.Gen in
  let module H = Hgp_hierarchy.Hierarchy in
  let* h = int_range 1 3 in
  let* seed = int_bound 1_000_000 in
  let rng = Hgp_util.Prng.create seed in
  let quarter lo hi = 0.25 *. float_of_int (lo + Hgp_util.Prng.int rng (hi - lo + 1)) in
  let rec build depth cm =
    if depth = h then H.Leaf { capacity = quarter 1 16; cm }
    else begin
      let n_children = 1 + Hgp_util.Prng.int rng 3 in
      let children =
        List.init n_children (fun _ -> build (depth + 1) (Float.max 0. (cm -. quarter 0 12)))
      in
      H.Node { cm; children }
    end
  in
  return (H.create_ragged (build 0 (quarter 4 60)))

(* Random assignment of [n] vertices to hierarchy leaves (ignores capacity —
   for cost-identity style properties). *)
let gen_assignment n hy =
  QCheck2.Gen.(array_size (return n) (int_bound (Hgp_hierarchy.Hierarchy.num_leaves hy - 1)))

(* The relax stage written as a plain loop: each tree of [ensemble] solved
   on its own, in tree order, the cheapest by graph cost kept (ties to the
   lower index) and the DP work of the packed trees summed — the answer the
   pooled relax must reproduce bit for bit.  [None] when no tree fits. *)
let per_tree_solve inst ensemble ~options =
  let module Solver = Hgp_core.Solver in
  let module Ensemble = Hgp_racke.Ensemble in
  let best = ref None and states = ref 0 in
  for i = 0 to Ensemble.size ensemble - 1 do
    match Solver.solve_on_decomposition inst (Ensemble.get ensemble i) ~options with
    | sol -> (
      states := !states + sol.Solver.dp_states;
      match !best with
      | Some (b, _) when b.Solver.cost <= sol.Solver.cost -> ()
      | _ -> best := Some (sol, i))
    | exception Hgp_resilience.Hgp_error.Error (Hgp_resilience.Hgp_error.Infeasible _) -> ()
  done;
  Option.map
    (fun (sol, i) -> { sol with Solver.tree_index = i; dp_states = !states })
    !best

(* The ensemble a solve with [options] samples (cache bypassed when the
   caches are off). *)
let ensemble_of inst ~(options : Hgp_core.Solver.options) =
  Hgp_racke.Ensemble_cache.sample ~strategy:options.strategy ~seed:options.seed
    inst.Hgp_core.Instance.graph ~size:options.ensemble_size

(* Differential oracle for the flat DP kernel (see tree_dp_reference.ml);
   re-exported because this module is the library's entry point. *)
module Tree_dp_reference = Tree_dp_reference

(* Differential oracle for the flat FM and greedy refinement kernel (see
   refine_reference.ml). *)
module Refine_reference = Refine_reference

(* The paper's Definition 3/4 level structures (laminar families and the
   collections a kappa labeling induces) and the global min-cut oracle. *)
module Laminar = Laminar
module Collections = Collections
module Mincut = Mincut

(* Byte-wise reference for the FNV-1a fingerprint (see
   fingerprint_reference.ml). *)
module Fingerprint_reference = Fingerprint_reference

(* [perf_budget key] is the number stored under [key] in
   test/perf_budget.json (a flat object of numbers), read from the test's
   working directory. *)
let perf_budget key =
  let text = In_channel.with_open_bin "perf_budget.json" In_channel.input_all in
  let pat = Printf.sprintf "%S:" key in
  let rec find i =
    if String.sub text i (String.length pat) = pat then i + String.length pat
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while not (String.contains ",}" text.[!stop]) do
    incr stop
  done;
  float_of_string (String.trim (String.sub text start (!stop - start)))
