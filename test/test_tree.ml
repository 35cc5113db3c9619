module Tree = Hgp_tree.Tree
module Graph = Hgp_graph.Graph
module Gen = Hgp_graph.Generators

(* A fixed tree:      0
                    / | \
                   1  2  3
                  / \
                 4   5        weights = node index as float *)
let sample () =
  let parents = [| -1; 0; 0; 0; 1; 1 |] in
  let weights = [| 0.; 1.; 2.; 3.; 4.; 5. |] in
  Tree.of_parents ~root:0 ~parents ~weights

let test_structure () =
  let t = sample () in
  Alcotest.(check int) "nodes" 6 (Tree.n_nodes t);
  Alcotest.(check int) "root" 0 (Tree.root t);
  Alcotest.(check int) "parent of 4" 1 (Tree.parent t 4);
  Test_support.check_close "weight of 5" 5. (Tree.edge_weight t 5);
  Alcotest.(check bool) "leaf 4" true (Tree.is_leaf t 4);
  Alcotest.(check bool) "internal 1" false (Tree.is_leaf t 1);
  Alcotest.(check (array int)) "leaves" [| 2; 3; 4; 5 |] (Tree.leaves t);
  Alcotest.(check int) "n_leaves" 4 (Tree.n_leaves t);
  Alcotest.(check int) "depth 4" 2 (Tree.depth t 4);
  Alcotest.(check (array int)) "subtree leaves of 1" [| 4; 5 |] (Tree.subtree_leaves t 1)

let test_post_order () =
  let t = sample () in
  let post = Tree.post_order t in
  Alcotest.(check int) "covers all" 6 (Array.length post);
  (* Every node appears after its children. *)
  let pos = Array.make 6 0 in
  Array.iteri (fun i v -> pos.(v) <- i) post;
  for v = 1 to 5 do
    Alcotest.(check bool) "child before parent" true (pos.(v) < pos.(Tree.parent t v))
  done

let test_of_graph () =
  let g = Graph.of_edges 4 [ (0, 1, 1.); (1, 2, 2.); (1, 3, 3.) ] in
  let t = Tree.of_graph g ~root:2 in
  Alcotest.(check int) "root" 2 (Tree.root t);
  Alcotest.(check int) "parent of 1" 2 (Tree.parent t 1);
  Test_support.check_close "edge weight preserved" 2. (Tree.edge_weight t 1);
  Alcotest.check_raises "not a tree" (Invalid_argument "Tree.of_graph: not a tree (edge count)")
    (fun () -> ignore (Tree.of_graph (Gen.cycle 3) ~root:0))

let test_lift_internal_jobs () =
  let t = sample () in
  let lifted, job_leaf = Tree.lift_internal_jobs t in
  (* 2 internal nodes (0 and 1) gain dummy leaves. *)
  Alcotest.(check int) "two more nodes" 8 (Tree.n_nodes lifted);
  Alcotest.(check int) "leaf count" 6 (Tree.n_leaves lifted);
  (* Original leaves map to themselves. *)
  Alcotest.(check int) "leaf maps to self" 4 job_leaf.(4);
  (* Internal nodes map to fresh leaves attached by infinite edges. *)
  Alcotest.(check bool) "internal mapped to dummy" true (job_leaf.(0) >= 6);
  Alcotest.(check bool) "dummy edge infinite" true
    (Tree.edge_weight lifted job_leaf.(0) = infinity)

let test_total_edge_weight () =
  let t = sample () in
  Test_support.check_close "sum" 15. (Tree.total_edge_weight t);
  let lifted, _ = Tree.lift_internal_jobs t in
  Test_support.check_close "infinite edges excluded" 15. (Tree.total_edge_weight lifted)

let prop_of_graph_roundtrip =
  Test_support.qtest ~count:100 "of_graph preserves weights and adjacency"
    (Test_support.gen_tree ())
    (fun t ->
      let n = Tree.n_nodes t in
      (* Rebuild the graph and re-root at a different node. *)
      let b = Graph.Builder.create n in
      for v = 0 to n - 1 do
        if v <> Tree.root t then Graph.Builder.add_edge b v (Tree.parent t v) (Tree.edge_weight t v)
      done;
      let g = Graph.Builder.build b in
      let t2 = Tree.of_graph g ~root:(n - 1) in
      Tree.n_nodes t2 = n
      && Float.abs (Tree.total_edge_weight t2 -. Tree.total_edge_weight t) < 1e-9)

let prop_subtree_leaves_partition_at_children =
  Test_support.qtest ~count:100 "children's subtree leaves partition the parent's"
    (Test_support.gen_tree ())
    (fun t ->
      let ok = ref true in
      for v = 0 to Tree.n_nodes t - 1 do
        if not (Tree.is_leaf t v) then begin
          let union =
            Array.concat (Array.to_list (Array.map (Tree.subtree_leaves t) (Tree.children t v)))
          in
          let union = Array.to_list union in
          let direct = Array.to_list (Tree.subtree_leaves t v) in
          if List.sort compare union <> List.sort compare direct then ok := false
        end
      done;
      !ok)

let () =
  Alcotest.run "tree"
    [
      ( "unit",
        [
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "post order" `Quick test_post_order;
          Alcotest.test_case "of_graph" `Quick test_of_graph;
          Alcotest.test_case "lift internal jobs" `Quick test_lift_internal_jobs;
          Alcotest.test_case "total edge weight" `Quick test_total_edge_weight;
        ] );
      ( "property",
        [
          prop_of_graph_roundtrip;
          prop_subtree_leaves_partition_at_children;
        ] );
    ]
