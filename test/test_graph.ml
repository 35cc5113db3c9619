module Graph = Hgp_graph.Graph

let triangle () = Graph.of_edges 3 [ (0, 1, 1.); (1, 2, 2.); (0, 2, 3.) ]

let test_counts () =
  let g = triangle () in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g);
  Test_support.check_close "total weight" 6. (Graph.total_weight g)

let test_parallel_edges_merge () =
  let g = Graph.of_edges 2 [ (0, 1, 1.); (1, 0, 2.5) ] in
  Alcotest.(check int) "merged" 1 (Graph.m g);
  Test_support.check_close "summed" 3.5 (Graph.edge_weight g 0 1)

let test_self_loops_ignored () =
  let g = Graph.of_edges 2 [ (0, 0, 5.); (0, 1, 1.) ] in
  Alcotest.(check int) "one edge" 1 (Graph.m g)

let test_neighbors () =
  let g = triangle () in
  let seen = ref [] in
  Graph.iter_neighbors (fun v w -> seen := (v, w) :: !seen) g 0;
  Alcotest.(check int) "degree 2" 2 (List.length !seen);
  Alcotest.(check int) "degree fn" 2 (Graph.degree g 0);
  Test_support.check_close "weighted degree" 4. (Graph.weighted_degree g 0)

let test_edge_lookup () =
  let g = triangle () in
  Test_support.check_close "weight" 2. (Graph.edge_weight g 1 2);
  Test_support.check_close "absent" 0. (Graph.edge_weight g 1 1);
  Alcotest.(check bool) "has" true (Graph.has_edge g 0 2);
  Alcotest.(check bool) "symmetric" true (Graph.has_edge g 2 0)

let test_induced () =
  let g = Graph.of_edges 4 [ (0, 1, 1.); (1, 2, 2.); (2, 3, 3.); (0, 3, 4.) ] in
  let sub, back = Graph.induced g [| 1; 2; 3 |] in
  Alcotest.(check int) "sub n" 3 (Graph.n sub);
  Alcotest.(check int) "sub m" 2 (Graph.m sub);
  Alcotest.(check (array int)) "back map" [| 1; 2; 3 |] back;
  Test_support.check_close "kept weight" 2. (Graph.edge_weight sub 0 1)

(* Racke clustering calls [induced] recursively on ever smaller parts of a
   large graph, so its cost must follow the part, not the graph. *)
let test_induced_cost_follows_part () =
  let n = 200_000 in
  let g = Graph.of_edges n (List.init (n - 1) (fun i -> (i, i + 1, 1.))) in
  let before = Gc.allocated_bytes () in
  let sub, _ = Graph.induced g [| 10; 11; 12; 50_000 |] in
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "sub m" 2 (Graph.m sub);
  if bytes > 8192. then Alcotest.failf "induced on 4 of %d vertices allocated %.0f bytes" n bytes

let test_contract () =
  let g = Graph.of_edges 4 [ (0, 1, 1.); (1, 2, 2.); (2, 3, 3.); (0, 3, 4.) ] in
  let c = Graph.contract g [| 0; 0; 1; 1 |] ~n_parts:2 in
  Alcotest.(check int) "contracted n" 2 (Graph.n c);
  Alcotest.(check int) "contracted m" 1 (Graph.m c);
  Test_support.check_close "parallel merged" 6. (Graph.edge_weight c 0 1)

let test_builder_errors () =
  let b = Graph.Builder.create 2 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.Builder.add_edge: vertex out of range") (fun () ->
      Graph.Builder.add_edge b 0 2 1.);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Graph.Builder.add_edge: negative weight") (fun () ->
      Graph.Builder.add_edge b 0 1 (-1.))

let test_empty_graph () =
  let g = Graph.of_edges 0 [] in
  Alcotest.(check int) "n" 0 (Graph.n g);
  Alcotest.(check int) "m" 0 (Graph.m g)

(* Content fingerprints feed the server's shard choice and every solver
   cache key, so they must not move when the representation does.  Values
   pinned from the hashtable-based builder this CSR build replaced, with the
   total weight's bits (ascending-edge summation) alongside. *)
let test_fingerprint_pins () =
  let module Gen = Hgp_graph.Generators in
  let module Prng = Hgp_util.Prng in
  let w g = Gen.randomize_weights (Prng.create 99) g ~lo:0.5 ~hi:9.5 in
  let gnp () = Gen.gnp_connected (Prng.create 7) 24 0.2 in
  List.iter
    (fun (name, g, hex, total) ->
      Alcotest.(check string) (name ^ ": fingerprint") hex
        (Hgp_util.Fingerprint.to_hex (Graph.fingerprint g));
      Alcotest.(check int64) (name ^ ": total weight bits") (Int64.bits_of_float total)
        (Int64.bits_of_float (Graph.total_weight g)))
    [
      ("path-9", Gen.path 9, "9839f30c4ae99f39", 0x1p+3);
      ("grid2d-4x5", Gen.grid2d ~rows:4 ~cols:5, "8c2e5f4838e119b5", 0x1.fp+4);
      ("barbell-6+3", Gen.barbell ~clique:6 ~bridge:3, "be039e68dd0f11d9", 0x1.1p+5);
      ("gnp-24@7", gnp (), "fa80961778c808c9", 0x1.d8p+5);
      ( "chung_lu-30@42+w",
        w (Gen.chung_lu (Prng.create 42) ~n:30 ~exponent:2.5 ~avg_degree:4.0),
        "af02edf1b40fcdc5", 0x1.f7d07b3470ab3p+7 );
      ( "ws-26@1001+w",
        w (Gen.watts_strogatz (Prng.create 1001) ~n:26 ~k:4 ~beta:0.3),
        "5b97e8b12e841f61", 0x1.c0ecff8933befp+7 );
      ( "gnp-24@7+w contracted to 5 parts",
        Graph.contract (w (gnp ())) (Array.init 24 (fun v -> v mod 5)) ~n_parts:5,
        "a444f94ff810ca01", 0x1.6a90118467c0dp+7 );
    ]

let prop_csr_consistent_with_edges =
  Test_support.qtest ~count:100 "CSR adjacency matches the edge list"
    (Test_support.gen_graph ())
    (fun g ->
      (* Sum of weighted degrees = 2 * total weight. *)
      let sum_deg = ref 0. in
      for v = 0 to Graph.n g - 1 do
        sum_deg := !sum_deg +. Graph.weighted_degree g v
      done;
      Float.abs (!sum_deg -. (2. *. Graph.total_weight g)) < 1e-6
      (* every listed edge is visible from both endpoints *)
      && Graph.fold_edges
           (fun acc u v w ->
             acc
             && Graph.has_edge g u v && Graph.has_edge g v u
             && Float.abs (Graph.edge_weight g u v -. w) < 1e-9
             && Float.abs (Graph.edge_weight g v u -. w) < 1e-9)
           true g)

let prop_contract_preserves_cut_weight =
  Test_support.qtest ~count:100 "contract keeps exactly the crossing weight"
    (Test_support.gen_graph ())
    (fun g ->
      let n = Graph.n g in
      let parts = Array.init n (fun v -> v mod 2) in
      let c = Graph.contract g parts ~n_parts:2 in
      Float.abs (Graph.total_weight c -. Hgp_graph.Cuts.kway_cut g parts) < 1e-6)

let prop_induced_subset =
  Test_support.qtest ~count:100 "induced keeps exactly internal edges"
    (Test_support.gen_graph ())
    (fun g ->
      let n = Graph.n g in
      let vs = Array.init ((n / 2) + 1) (fun i -> i) in
      let sub, back = Graph.induced g vs in
      let expected =
        Graph.fold_edges
          (fun acc u v w ->
            if u <= n / 2 && v <= n / 2 then acc +. w else acc)
          0. g
      in
      Float.abs (Graph.total_weight sub -. expected) < 1e-6 && back = vs)

let () =
  Alcotest.run "graph"
    [
      ( "unit",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "parallel edges merge" `Quick test_parallel_edges_merge;
          Alcotest.test_case "self loops ignored" `Quick test_self_loops_ignored;
          Alcotest.test_case "neighbors" `Quick test_neighbors;
          Alcotest.test_case "edge lookup" `Quick test_edge_lookup;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "induced cost follows the part" `Quick
            test_induced_cost_follows_part;
          Alcotest.test_case "contract" `Quick test_contract;
          Alcotest.test_case "builder errors" `Quick test_builder_errors;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "fingerprint pins" `Quick test_fingerprint_pins;
        ] );
      ( "property",
        [
          prop_csr_consistent_with_edges;
          prop_contract_preserves_cut_weight;
          prop_induced_subset;
        ] );
    ]
