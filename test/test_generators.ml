module Graph = Hgp_graph.Graph
module Gen = Hgp_graph.Generators
module Traversal = Hgp_graph.Traversal
module Prng = Hgp_util.Prng

let test_path () =
  let g = Gen.path 5 in
  Alcotest.(check int) "edges" 4 (Graph.m g);
  Alcotest.(check int) "end degree" 1 (Graph.degree g 0);
  Alcotest.(check int) "mid degree" 2 (Graph.degree g 2);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g)

let test_cycle () =
  let g = Gen.cycle 6 in
  Alcotest.(check int) "edges" 6 (Graph.m g);
  for v = 0 to 5 do
    Alcotest.(check int) "degree 2" 2 (Graph.degree g v)
  done

let test_complete () =
  let g = Gen.complete 6 in
  Alcotest.(check int) "edges" 15 (Graph.m g)

let test_star () =
  let g = Gen.star 7 in
  Alcotest.(check int) "edges" 6 (Graph.m g);
  Alcotest.(check int) "center degree" 6 (Graph.degree g 0)

let test_grid () =
  let g = Gen.grid2d ~rows:3 ~cols:4 in
  Alcotest.(check int) "n" 12 (Graph.n g);
  Alcotest.(check int) "m" ((2 * 4) + (3 * 3)) (Graph.m g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g)

let test_torus () =
  let g = Gen.torus2d ~rows:3 ~cols:3 in
  Alcotest.(check int) "n" 9 (Graph.n g);
  Alcotest.(check int) "m" 18 (Graph.m g);
  for v = 0 to 8 do
    Alcotest.(check int) "4-regular" 4 (Graph.degree g v)
  done

let test_binary_tree () =
  let g = Gen.binary_tree 3 in
  Alcotest.(check int) "n" 15 (Graph.n g);
  Alcotest.(check int) "m" 14 (Graph.m g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g)

let test_caterpillar () =
  let g = Gen.caterpillar ~spine:4 ~legs:2 in
  Alcotest.(check int) "n" 12 (Graph.n g);
  Alcotest.(check int) "m" 11 (Graph.m g);
  Alcotest.(check bool) "tree" true (Graph.m g = Graph.n g - 1 && Traversal.is_connected g)

let prop_gnp_connected =
  Test_support.qtest ~count:50 "gnp_connected is connected"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 2 30))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      Traversal.is_connected (Gen.gnp_connected rng n 0.1))

let prop_random_tree_is_tree =
  Test_support.qtest ~count:100 "random_tree is a tree"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 1 40))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Gen.random_tree rng n in
      Graph.m g = n - 1 && Traversal.is_connected g)

let prop_random_regular_degree =
  Test_support.qtest ~count:50 "random_regular degrees"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 2 10))
    (fun (seed, half) ->
      let n = 2 * half in
      let degree = 3 in
      if n <= degree then true
      else begin
        let rng = Prng.create seed in
        let g = Gen.random_regular rng ~n ~degree in
        (* Simple graph by construction; degrees at most the target and
           usually equal. *)
        let ok = ref true in
        for v = 0 to n - 1 do
          if Graph.degree g v > degree then ok := false
        done;
        !ok
      end)

let prop_chung_lu_degree_scale =
  Test_support.qtest ~count:20 "chung_lu average degree in a sane band"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 200 in
      let g = Gen.chung_lu rng ~n ~exponent:2.5 ~avg_degree:4.0 in
      let avg = 2. *. float_of_int (Graph.m g) /. float_of_int n in
      avg > 1.0 && avg < 10.0)

let prop_randomize_weights_bounds =
  Test_support.qtest ~count:50 "randomized weights stay in range"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Gen.randomize_weights rng (Gen.grid2d ~rows:4 ~cols:4) ~lo:2.0 ~hi:3.0 in
      Graph.fold_edges (fun acc _ _ w -> acc && w >= 2.0 && w < 3.0) true g)

let test_hypercube () =
  let g = Gen.hypercube 4 in
  Alcotest.(check int) "n" 16 (Graph.n g);
  Alcotest.(check int) "m" 32 (Graph.m g);
  for v = 0 to 15 do
    Alcotest.(check int) "regular" 4 (Graph.degree g v)
  done;
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  let g0 = Gen.hypercube 0 in
  Alcotest.(check int) "dim 0" 1 (Graph.n g0)

let test_barbell () =
  let g = Gen.barbell ~clique:4 ~bridge:2 in
  Alcotest.(check int) "n" 10 (Graph.n g);
  (* 2 * C(4,2) + 3 bridge edges *)
  Alcotest.(check int) "m" 15 (Graph.m g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  (* The global min cut is a single bridge edge. *)
  let value, _ = Test_support.Mincut.stoer_wagner g in
  Test_support.check_close "bottleneck" 1. value;
  let g0 = Gen.barbell ~clique:3 ~bridge:0 in
  Alcotest.(check int) "direct bridge" 7 (Graph.m g0)

let prop_watts_strogatz =
  Test_support.qtest ~count:50 "watts_strogatz: simple, right size, connected-ish"
    QCheck2.Gen.(triple (int_bound 100000) (int_range 6 30) (float_range 0. 1.))
    (fun (seed, n, beta) ->
      let rng = Prng.create seed in
      let g = Gen.watts_strogatz rng ~n ~k:4 ~beta in
      Graph.n g = n
      && Graph.m g <= 2 * n
      (* rewiring can only drop duplicate edges *)
      && Graph.m g >= n)

let test_errors () =
  Alcotest.check_raises "cycle too small" (Invalid_argument "Generators.cycle: n must be >= 3")
    (fun () -> ignore (Gen.cycle 2));
  Alcotest.check_raises "torus too small" (Invalid_argument "Generators.torus2d: dims must be >= 3")
    (fun () -> ignore (Gen.torus2d ~rows:2 ~cols:3));
  Alcotest.check_raises "chung_lu exponent"
    (Invalid_argument "Generators.chung_lu: exponent must exceed 2") (fun () ->
      ignore (Gen.chung_lu (Prng.create 0) ~n:5 ~exponent:1.5 ~avg_degree:2.))

let () =
  Alcotest.run "generators"
    [
      ( "unit",
        [
          Alcotest.test_case "path" `Quick test_path;
          Alcotest.test_case "cycle" `Quick test_cycle;
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "star" `Quick test_star;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "torus" `Quick test_torus;
          Alcotest.test_case "binary tree" `Quick test_binary_tree;
          Alcotest.test_case "caterpillar" `Quick test_caterpillar;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "barbell" `Quick test_barbell;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
      ( "property",
        [
          prop_gnp_connected;
          prop_random_tree_is_tree;
          prop_random_regular_degree;
          prop_chung_lu_degree_scale;
          prop_randomize_weights_bounds;
          prop_watts_strogatz;
        ] );
    ]
