module D = Hgp_racke.Decomposition
module Clustering = Hgp_racke.Clustering
module Ensemble = Hgp_racke.Ensemble
module Graph = Hgp_graph.Graph
module Gen = Hgp_graph.Generators
module Tree = Hgp_tree.Tree
module Prng = Hgp_util.Prng

let test_leaf_bijection () =
  let rng = Prng.create 1 in
  let g = Gen.grid2d ~rows:3 ~cols:3 in
  let d = D.build rng g in
  let t = D.tree d in
  Alcotest.(check int) "one leaf per vertex" 9 (Tree.n_leaves t);
  for v = 0 to 8 do
    Alcotest.(check int) "roundtrip" v (D.vertex_of_leaf d (D.leaf_of_vertex d v))
  done

let test_explicit_clustering_weights () =
  (* Square 0-1-2-3-0 with known weights; cluster {{0,1},{2,3}}. *)
  let g = Graph.of_edges 4 [ (0, 1, 1.); (1, 2, 2.); (2, 3, 3.); (3, 0, 4.) ] in
  let c =
    Clustering.Node
      [
        Clustering.Node [ Clustering.Leaf 0; Clustering.Leaf 1 ];
        Clustering.Node [ Clustering.Leaf 2; Clustering.Leaf 3 ];
      ]
  in
  let d = D.of_clustering g c in
  let t = D.tree d in
  (* The edge above the {0,1} cluster must weigh cut({0,1}) = 2 + 4 = 6. *)
  let leaf0 = D.leaf_of_vertex d 0 in
  let cluster01 = Tree.parent t leaf0 in
  Test_support.check_close "cluster cut weight" 6. (Tree.edge_weight t cluster01);
  (* A leaf's edge weighs the vertex's weighted degree. *)
  Test_support.check_close "leaf edge = degree" 5. (Tree.edge_weight t leaf0)

let test_missing_vertex_rejected () =
  let g = Graph.of_edges 2 [ (0, 1, 1.) ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (D.of_clustering g (Clustering.Node [ Clustering.Leaf 0 ]));
       false
     with Invalid_argument _ -> true)

(* A graph for the properties below: on odd seeds a connected gnp graph,
   on even seeds a sparse gnp graph that is usually disconnected and often
   has isolated vertices.  Neither property needs a connected graph. *)
let any_graph rng ~seed n p =
  if seed land 1 = 1 then Gen.gnp_connected rng n p else Gen.gnp rng n (1.0 /. float_of_int n)

(* Proposition 1: tree cuts dominate graph cuts — exact by construction,
   for every shape strategy. *)
let prop_tree_cut_dominates =
  Test_support.qtest ~count:80 "Proposition 1: w_T(CUT_T) >= w_G(CUT_G), all strategies"
    QCheck2.Gen.(
      quad (int_bound 100000) (int_range 3 14) (int_bound 10000) (int_range 0 2))
    (fun (seed, n, mask, strat) ->
      let rng = Prng.create seed in
      let g = any_graph rng ~seed n 0.35 in
      let g = Gen.randomize_weights rng g ~lo:1.0 ~hi:5.0 in
      let strategy =
        match strat with
        | 0 -> D.Low_diameter
        | 1 -> D.Bfs_bisection
        | _ -> D.Gomory_hu
      in
      let d = D.build ~strategy rng g in
      let in_set v = (mask lsr v) land 1 = 1 in
      let wg = D.graph_cut_weight d ~in_vertex_set:in_set in
      let wt = D.tree_cut_weight d ~in_vertex_set:in_set in
      wt >= wg -. 1e-6)

let prop_strategies_leaf_bijection =
  Test_support.qtest ~count:60 "every strategy keeps the leaf bijection"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 2 16))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = any_graph rng ~seed n 0.4 in
      List.for_all
        (fun strategy ->
          let d = D.build ~strategy rng g in
          let t = D.tree d in
          Tree.n_leaves t = n
          && List.for_all
               (fun v -> D.vertex_of_leaf d (D.leaf_of_vertex d v) = v)
               (List.init n (fun i -> i)))
        [ D.Low_diameter; D.Bfs_bisection; D.Gomory_hu ])

let test_mixed_ensemble () =
  let rng = Prng.create 21 in
  let g = Gen.grid2d ~rows:4 ~cols:4 in
  let e = Ensemble.sample ~strategy:Ensemble.Mixed rng g ~size:6 in
  Alcotest.(check int) "size" 6 (Ensemble.size e);
  List.iter
    (fun d ->
      Alcotest.(check int) "leaves" 16 (Tree.n_leaves (D.tree d)))
    (Ensemble.to_list e)

let test_spanning_shape_validation () =
  let g = Graph.of_edges 3 [ (0, 1, 1.); (1, 2, 1.) ] in
  Alcotest.(check bool) "no root rejected" true
    (try
       ignore (D.of_spanning_shape g ~parents:[| 1; 2; 0 |]);
       false
     with Invalid_argument _ -> true)

let prop_tree_edge_weights_are_cuts =
  Test_support.qtest ~count:60 "every tree edge weighs its induced G-cut"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 3 12))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = any_graph rng ~seed n 0.35 in
      let g = Gen.randomize_weights rng g ~lo:1.0 ~hi:5.0 in
      let ok = ref true in
      List.iter
        (fun strategy ->
          let d = D.build ~strategy rng g in
          let t = D.tree d in
          for z = 0 to Tree.n_nodes t - 1 do
            if z <> Tree.root t then begin
              let below = Tree.subtree_leaves t z in
              let members = Array.make n false in
              Array.iter (fun l -> members.(D.vertex_of_leaf d l) <- true) below;
              let cut = Hgp_graph.Cuts.cut_weight g (fun v -> members.(v)) in
              if Float.abs (cut -. Tree.edge_weight t z) > 1e-6 then ok := false
            end
          done)
        [ D.Low_diameter; D.Bfs_bisection; D.Gomory_hu ];
      !ok)

let test_distortion_sample () =
  let rng = Prng.create 7 in
  let g = Gen.grid2d ~rows:4 ~cols:4 in
  let d = D.build rng g in
  let ratios = D.distortion_sample d rng ~trials:20 in
  Alcotest.(check bool) "has samples" true (Array.length ratios > 0);
  Array.iter
    (fun r -> Alcotest.(check bool) "every ratio >= 1" true (r >= 1. -. 1e-9))
    ratios

let test_ensemble () =
  let rng = Prng.create 11 in
  let g = Gen.grid2d ~rows:3 ~cols:4 in
  let e = Ensemble.sample rng g ~size:5 in
  Alcotest.(check int) "size" 5 (Ensemble.size e);
  Alcotest.(check int) "to_list" 5 (List.length (Ensemble.to_list e));
  (* best_of finds the minimum score. *)
  let count = ref 0 in
  let idx, res, score =
    Ensemble.best_of e (fun _ ->
        incr count;
        let s = float_of_int ((!count * 7) mod 5) in
        (!count, s))
  in
  Alcotest.(check int) "visited all" 5 !count;
  Test_support.check_close "min score" 0. score;
  Alcotest.(check bool) "consistent result" true (res = idx + 1);
  let avg = Ensemble.average_distortion e rng ~trials:5 in
  Alcotest.(check bool) "distortion >= 1" true (avg >= 1. -. 1e-9)

let () =
  Alcotest.run "decomposition"
    [
      ( "unit",
        [
          Alcotest.test_case "leaf bijection" `Quick test_leaf_bijection;
          Alcotest.test_case "explicit weights" `Quick test_explicit_clustering_weights;
          Alcotest.test_case "missing vertex" `Quick test_missing_vertex_rejected;
          Alcotest.test_case "distortion sample" `Quick test_distortion_sample;
          Alcotest.test_case "ensemble" `Quick test_ensemble;
          Alcotest.test_case "mixed ensemble" `Quick test_mixed_ensemble;
          Alcotest.test_case "spanning shape validation" `Quick test_spanning_shape_validation;
        ] );
      ( "property",
        [
          prop_tree_cut_dominates;
          prop_tree_edge_weights_are_cuts;
          prop_strategies_leaf_bijection;
        ] );
    ]
