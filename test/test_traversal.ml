module Graph = Hgp_graph.Graph
module Gen = Hgp_graph.Generators
module Traversal = Hgp_graph.Traversal
module Prng = Hgp_util.Prng

let test_bfs_hops_path () =
  let g = Gen.path 5 in
  Alcotest.(check (array int)) "hops" [| 0; 1; 2; 3; 4 |] (Traversal.bfs_hops g 0)

let test_bfs_unreachable () =
  let g = Graph.of_edges 3 [ (0, 1, 1.) ] in
  let d = Traversal.bfs_hops g 0 in
  Alcotest.(check int) "unreachable" max_int d.(2)

let test_bfs_order () =
  let g = Gen.star 5 in
  let order = Traversal.bfs_order g 0 in
  Alcotest.(check int) "covers all" 5 (Array.length order);
  Alcotest.(check int) "starts at src" 0 order.(0)

(* The reachable ball in BFS order, then the rest in ascending id order. *)
let test_bfs_order_all () =
  let g = Graph.of_edges 6 [ (4, 2, 1.); (2, 5, 1.); (0, 3, 1.) ] in
  Alcotest.(check (array int)) "ball then the rest" [| 4; 2; 5; 0; 1; 3 |]
    (Traversal.bfs_order_all g 4);
  let p = Gen.path 4 in
  Alcotest.(check (array int)) "connected: the bfs order" (Traversal.bfs_order p 2)
    (Traversal.bfs_order_all p 2)

let test_dijkstra_weighted () =
  (* 0 -1- 1 -1- 2, and a heavy shortcut 0 -5- 2. *)
  let g = Graph.of_edges 3 [ (0, 1, 1.); (1, 2, 1.); (0, 2, 5.) ] in
  let d = Traversal.dijkstra g 0 ~edge_length:(fun w -> w) in
  Test_support.check_close "via path" 2. d.(2)

let test_dijkstra_inverse_length () =
  (* With inverse-weight lengths the heavy edge becomes the short route. *)
  let g = Graph.of_edges 3 [ (0, 1, 1.); (1, 2, 1.); (0, 2, 5.) ] in
  let d = Traversal.dijkstra g 0 ~edge_length:(fun w -> 1. /. w) in
  Test_support.check_close "direct heavy edge" 0.2 d.(2)

let test_components () =
  let g = Graph.of_edges 5 [ (0, 1, 1.); (2, 3, 1.) ] in
  let comp, k = Traversal.components g in
  Alcotest.(check int) "three components" 3 k;
  Alcotest.(check bool) "0 and 1 together" true (comp.(0) = comp.(1));
  Alcotest.(check bool) "0 and 2 apart" true (comp.(0) <> comp.(2));
  Alcotest.(check bool) "4 alone" true (comp.(4) <> comp.(0) && comp.(4) <> comp.(2))

let test_ensure_connected () =
  let rng = Prng.create 4 in
  let g = Graph.of_edges 6 [ (0, 1, 1.); (2, 3, 1.); (4, 5, 1.) ] in
  let g' = Traversal.ensure_connected g rng in
  Alcotest.(check bool) "now connected" true (Traversal.is_connected g');
  Alcotest.(check int) "adds exactly k-1 edges" (Graph.m g + 2) (Graph.m g');
  (* Already-connected graphs are returned untouched. *)
  let p = Gen.path 4 in
  Alcotest.(check bool) "same graph" true (p == Traversal.ensure_connected p rng)

let prop_dijkstra_matches_bfs_on_unit =
  Test_support.qtest ~count:100 "dijkstra = bfs on unit lengths"
    (Test_support.gen_graph ())
    (fun g ->
      let hops = Traversal.bfs_hops g 0 in
      let dist = Traversal.dijkstra g 0 ~edge_length:(fun _ -> 1.) in
      let ok = ref true in
      Array.iteri
        (fun v h ->
          let d = dist.(v) in
          if h = max_int then begin
            if d <> infinity then ok := false
          end
          else if Float.abs (d -. float_of_int h) > 1e-9 then ok := false)
        hops;
      !ok)

let prop_dijkstra_triangle_inequality =
  Test_support.qtest ~count:100 "dijkstra satisfies edge relaxation"
    (Test_support.gen_graph ())
    (fun g ->
      let dist = Traversal.dijkstra g 0 ~edge_length:(fun w -> w) in
      Graph.fold_edges
        (fun acc u v w ->
          acc && dist.(v) <= dist.(u) +. w +. 1e-9 && dist.(u) <= dist.(v) +. w +. 1e-9)
        true g)

let prop_components_are_maximal =
  Test_support.qtest ~count:100 "edges never cross components"
    (Test_support.gen_graph ())
    (fun g ->
      let comp, _ = Traversal.components g in
      Graph.fold_edges (fun acc u v _ -> acc && comp.(u) = comp.(v)) true g)

let () =
  Alcotest.run "traversal"
    [
      ( "unit",
        [
          Alcotest.test_case "bfs hops path" `Quick test_bfs_hops_path;
          Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "bfs order" `Quick test_bfs_order;
          Alcotest.test_case "bfs order covering every vertex" `Quick test_bfs_order_all;
          Alcotest.test_case "dijkstra weighted" `Quick test_dijkstra_weighted;
          Alcotest.test_case "dijkstra inverse length" `Quick test_dijkstra_inverse_length;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "ensure connected" `Quick test_ensure_connected;
        ] );
      ( "property",
        [
          prop_dijkstra_matches_bfs_on_unit;
          prop_dijkstra_triangle_inequality;
          prop_components_are_maximal;
        ] );
    ]
