module Tree = Hgp_tree.Tree
module Levels = Hgp_core.Levels
module Laminar = Test_support.Laminar
module Collections = Test_support.Collections
module Tree_dp = Hgp_core.Tree_dp
module Gen = Hgp_graph.Generators
module Prng = Hgp_util.Prng

let sample () =
  (*        0
          / | \
         1  2  3      kappa: 1->2, 2->0, 3->1   (h = 2)
        / \
       4   5          kappa: 4->2, 5->1                     *)
  let t =
    Tree.of_parents ~root:0 ~parents:[| -1; 0; 0; 0; 1; 1 |]
      ~weights:[| 0.; 1.; 1.; 1.; 1.; 1. |]
  in
  let kappa = [| 0; 2; 0; 1; 2; 1 |] in
  (t, kappa)

let test_components_level0 () =
  let t, kappa = sample () in
  let comp, k = Levels.components t ~kappa ~level:0 in
  Alcotest.(check int) "single component" 1 k;
  Alcotest.(check bool) "all zero" true (Array.for_all (( = ) 0) comp)

let test_components_level1 () =
  let t, kappa = sample () in
  let _, k = Levels.components t ~kappa ~level:1 in
  (* Edges with kappa >= 1: 1, 3, 4, 5.  Components: {0,1,3,4,5}, {2}. *)
  Alcotest.(check int) "two components" 2 k;
  let comp, _ = Levels.components t ~kappa ~level:1 in
  Alcotest.(check bool) "2 isolated" true (comp.(2) <> comp.(0));
  Alcotest.(check bool) "3 with root" true (comp.(3) = comp.(0))

let test_components_level2 () =
  let t, kappa = sample () in
  let comp, k = Levels.components t ~kappa ~level:2 in
  (* Edges with kappa >= 2: 1 and 4.  Components: {0,1,4}, {2}, {3}, {5}. *)
  Alcotest.(check int) "four components" 4 k;
  Alcotest.(check bool) "4 with 0 via 1" true (comp.(4) = comp.(0));
  Alcotest.(check bool) "5 separate" true (comp.(5) <> comp.(0))

let test_laminar_family_valid () =
  let t, kappa = sample () in
  let fam = Collections.laminar_family t ~kappa ~h:2 in
  let universe = Array.copy (Tree.leaves t) in
  Array.sort compare universe;
  Alcotest.(check bool) "Definition 4 structure" true (Laminar.is_laminar fam ~universe)

let gen_labeled_tree =
  let open QCheck2.Gen in
  let* seed = int_bound 1_000_000 in
  let* n = int_range 2 12 in
  let* h = int_range 1 3 in
  let rng = Prng.create seed in
  let g = Gen.random_tree rng n in
  let t = Tree.of_graph g ~root:0 in
  let kappa = Array.init n (fun _ -> Prng.int rng (h + 1)) in
  kappa.(0) <- 0;
  return (t, kappa, h)

let prop_family_is_laminar =
  Test_support.qtest ~count:150 "any kappa labeling induces a laminar family"
    gen_labeled_tree
    (fun (t, kappa, h) ->
      let fam = Collections.laminar_family t ~kappa ~h in
      let universe = Array.copy (Tree.leaves t) in
      Array.sort compare universe;
      Laminar.is_laminar fam ~universe)

let prop_component_tree_consistent =
  Test_support.qtest ~count:150 "component parents nest correctly"
    gen_labeled_tree
    (fun (t, kappa, h) ->
      let parents = Collections.component_tree t ~kappa ~h in
      let ok = ref true in
      for j = 0 to h - 1 do
        let comp_j, nj = Levels.components t ~kappa ~level:j in
        let comp_j1, _ = Levels.components t ~kappa ~level:(j + 1) in
        Array.iteri
          (fun v c1 ->
            let p = parents.(j).(c1) in
            if p < 0 || p >= nj || p <> comp_j.(v) then ok := false)
          comp_j1
      done;
      !ok)

let prop_check_kappa_matches_family =
  Test_support.qtest ~count:100 "Tree_dp.check_kappa agrees with family demands"
    gen_labeled_tree
    (fun (t, kappa, h) ->
      let n = Tree.n_nodes t in
      let demand_units = Array.init n (fun v -> if Tree.is_leaf t v then 1 else 0) in
      let cp_units = Array.init (h + 1) (fun j -> (2 * (h + 1 - j)) + 1) in
      let viol = Tree_dp.check_kappa t ~demand_units ~kappa ~cp_units in
      let fam = Collections.laminar_family t ~kappa ~h in
      let expected = ref 0. in
      for j = 1 to h do
        Array.iter
          (fun set ->
            let d = float_of_int (Array.length set) in
            expected := Float.max !expected (d /. float_of_int cp_units.(j)))
          fam.(j)
      done;
      Float.abs (viol -. !expected) < 1e-9)

let () =
  Alcotest.run "levels"
    [
      ( "unit",
        [
          Alcotest.test_case "level 0" `Quick test_components_level0;
          Alcotest.test_case "level 1" `Quick test_components_level1;
          Alcotest.test_case "level 2" `Quick test_components_level2;
          Alcotest.test_case "laminar family" `Quick test_laminar_family_valid;
        ] );
      ( "property",
        [ prop_family_is_laminar; prop_component_tree_consistent; prop_check_kappa_matches_family ] );
    ]
