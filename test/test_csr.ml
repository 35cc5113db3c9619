(* Property suite for the CSR build and the vertex-weight layer: over every
   generator preset x seed, Graph's builders, contraction and reweighting
   agree bit-for-bit with an independent hashtable-and-sort reference;
   Csr.of_graph shares the graph; malformed input is rejected with
   structured Hgp_error.Invalid_input; and the build stays within its
   allocation budget. *)

module Graph = Hgp_graph.Graph
module Csr = Hgp_graph.Csr
module Gen = Hgp_graph.Generators
module Prng = Hgp_util.Prng
module E = Hgp_resilience.Hgp_error

(* Every generator preset, at a couple of sizes, over several seeds.
   Deterministic generators appear once per size; seeded ones per seed. *)
let preset_graphs () =
  let seeds = [ 1; 7; 42; 1001; 31337 ] in
  let fixed =
    [
      ("path-9", Gen.path 9);
      ("path-32", Gen.path 32);
      ("cycle-12", Gen.cycle 12);
      ("complete-8", Gen.complete 8);
      ("star-11", Gen.star 11);
      ("grid2d-4x5", Gen.grid2d ~rows:4 ~cols:5);
      ("torus2d-4x4", Gen.torus2d ~rows:4 ~cols:4);
      ("binary_tree-4", Gen.binary_tree 4);
      ("caterpillar-5x3", Gen.caterpillar ~spine:5 ~legs:3);
      ("hypercube-4", Gen.hypercube 4);
      ("barbell-6+3", Gen.barbell ~clique:6 ~bridge:3);
    ]
  in
  let seeded =
    List.concat_map
      (fun seed ->
        let rng () = Prng.create seed in
        [
          (Printf.sprintf "gnp-24@%d" seed, Gen.gnp_connected (rng ()) 24 0.2);
          ( Printf.sprintf "chung_lu-30@%d" seed,
            Gen.chung_lu (rng ()) ~n:30 ~exponent:2.5 ~avg_degree:4.0 );
          ( Printf.sprintf "regular-20@%d" seed,
            Gen.random_regular (rng ()) ~n:20 ~degree:4 );
          (Printf.sprintf "tree-25@%d" seed, Gen.random_tree (rng ()) 25);
          ( Printf.sprintf "ws-26@%d" seed,
            Gen.watts_strogatz (rng ()) ~n:26 ~k:4 ~beta:0.3 );
        ])
      seeds
  in
  (* Random weights exercise float fidelity through the round trip. *)
  let weighted =
    List.map
      (fun (name, g) ->
        (name ^ "+w", Gen.randomize_weights (Prng.create 99) g ~lo:0.5 ~hi:9.5))
      (fixed @ seeded)
  in
  fixed @ seeded @ weighted

let graphs_equal g g' =
  Graph.n g = Graph.n g' && Graph.edges g = Graph.edges g'

(* ---- independent reference ----

   The hashtable-and-sort construction the counting-sort build replaced:
   parallel edges sum in input order starting from [0.], self-loops vanish,
   edges come out ascending by (u, v), and the total weight is their sum in
   that order.  Everything below is checked against it bit-for-bit. *)
let reference_edges edges =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (u, v, w) ->
      if u <> v then begin
        let k = (min u v, max u v) in
        let prev = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
        Hashtbl.replace tbl k (prev +. w)
      end)
    edges;
  let el = Hashtbl.fold (fun (u, v) w acc -> (u, v, w) :: acc) tbl [] in
  let el = Array.of_list (List.sort compare el) in
  (el, Array.fold_left (fun acc (_, _, w) -> acc +. w) 0. el)

let bits = Int64.bits_of_float

(* [g] holds exactly the reference edge set and total, and its CSR arrays
   are well-formed: rows ascending, both slots of an edge bit-identical. *)
let check_against_reference name g (el, total) =
  if Graph.edges g <> el then Alcotest.failf "%s: edge list differs from the reference" name;
  if bits (Graph.total_weight g) <> bits total then
    Alcotest.failf "%s: total weight %h, reference %h" name (Graph.total_weight g) total;
  Alcotest.(check int) (name ^ ": slots") (2 * Array.length el)
    (Array.length g.Graph.adjncy);
  for u = 0 to Graph.n g - 1 do
    let last = ref (-1) in
    Graph.iter_neighbors
      (fun v w ->
        if v <= !last then Alcotest.failf "%s: row %d not ascending" name u;
        last := v;
        if bits (Graph.edge_weight g v u) <> bits w then
          Alcotest.failf "%s: slots of {%d, %d} differ" name u v)
      g u
  done

let edge_list g = Array.to_list (Graph.edges g)

(* ---- round trip ---- *)

let test_round_trip () =
  List.iter
    (fun (name, g) ->
      let csr = Csr.of_graph g in
      (* The vertex-weight layer shares the graph: no copy, no rebuild. *)
      if Csr.to_graph csr != g then Alcotest.failf "%s: to_graph is not the graph" name;
      Alcotest.(check int) (name ^ ": n") (Graph.n g) (Csr.n csr);
      Alcotest.(check (float 0.))
        (name ^ ": default vertex weights") (float_of_int (Graph.n g))
        csr.Csr.total_vw;
      check_against_reference name g (reference_edges (edge_list g)))
    (preset_graphs ())

let test_of_arrays_matches_of_edges () =
  List.iter
    (fun (name, g) ->
      (* Every edge twice — as given, then reversed with a scaled weight —
         with a self-loop in between, so merging and loop dropping do real
         work. *)
      let input =
        List.concat_map
          (fun (u, v, w) -> [ (u, v, w); (v, v, 1.0); (v, u, w *. 0.375) ])
          (edge_list g)
      in
      let src = Array.of_list (List.map (fun (u, _, _) -> u) input) in
      let dst = Array.of_list (List.map (fun (_, v, _) -> v) input) in
      let w = Array.of_list (List.map (fun (_, _, x) -> x) input) in
      let expected = reference_edges input in
      let from_arrays = Graph.of_arrays ~n:(Graph.n g) ~src ~dst ~w () in
      check_against_reference (name ^ ": of_arrays") from_arrays expected;
      let from_edges = Graph.of_edges (Graph.n g) input in
      check_against_reference (name ^ ": of_edges") from_edges expected;
      if Graph.fingerprint from_arrays <> Graph.fingerprint from_edges then
        Alcotest.failf "%s: of_arrays and of_edges fingerprints differ" name)
    (preset_graphs ())

let test_merge_and_self_loop_semantics () =
  (* Parallel edges merge by summing; self-loops vanish. *)
  let g =
    Graph.of_arrays ~n:4
      ~src:[| 0; 1; 2; 0; 3 |]
      ~dst:[| 1; 0; 2; 1; 0 |]
      ~w:[| 1.5; 2.25; 7.0; 0.25; 3.0 |]
      ()
  in
  Alcotest.(check int) "merged m" 2 (Graph.m g);
  Alcotest.(check (float 0.)) "merged weight" 4.0 (Graph.edge_weight g 0 1);
  Alcotest.(check (float 0.)) "merged weight sym" 4.0 (Graph.edge_weight g 1 0);
  Alcotest.(check (float 0.)) "absent edge" 0.0 (Graph.edge_weight g 1 2);
  Alcotest.(check (float 0.)) "total" 7.0 (Graph.total_weight g)

let test_neighbor_order_ascending () =
  List.iter
    (fun (name, g) ->
      for v = 0 to Graph.n g - 1 do
        let last = ref (-1) in
        Graph.iter_neighbors
          (fun u _ ->
            if u <= !last then Alcotest.failf "%s: row %d not ascending" name v;
            last := u)
          g v
      done)
    (preset_graphs ())

(* ---- vertex weights ---- *)

let test_vertex_weights () =
  let g = Gen.cycle 6 in
  let vwgt = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
  let csr = Csr.of_graph ~vwgt g in
  Alcotest.(check (float 0.)) "total vw" 21.0 csr.Csr.total_vw;
  Alcotest.(check (float 0.)) "vw 3" 4.0 csr.Csr.vwgt.(3);
  (* The weights are copied: the caller's array stays the caller's. *)
  vwgt.(3) <- 100.0;
  Alcotest.(check (float 0.)) "vw copied" 4.0 csr.Csr.vwgt.(3);
  (* Default weights are all ones. *)
  let plain = Csr.of_graph g in
  Alcotest.(check (float 0.)) "default vw" 6.0 plain.Csr.total_vw

(* ---- contract ---- *)

let test_contract_matches_graph_contract () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let rng = Prng.create (Hashtbl.hash name) in
      let n_parts = max 1 (n / 3) in
      let map = Array.init n (fun _ -> Prng.int rng n_parts) in
      (* Ensure no part is empty (Csr.contract rejects empty parts). *)
      for p = 0 to n_parts - 1 do
        map.(p mod n) <- p
      done;
      let vwgt = Array.init n (fun v -> 1.0 +. float_of_int (v mod 4)) in
      let csr = Csr.contract (Csr.of_graph ~vwgt g) map ~n_parts in
      (* Reference: relabel the fine edges in ascending order and merge, so
         parallel coarse edges sum in ascending fine-edge order. *)
      let expected =
        reference_edges (List.map (fun (u, v, w) -> (map.(u), map.(v), w)) (edge_list g))
      in
      check_against_reference (name ^ ": Csr.contract") (Csr.to_graph csr) expected;
      check_against_reference (name ^ ": Graph.contract") (Graph.contract g map ~n_parts)
        expected;
      (* Coarse vertex weights are the fine weights summed in vertex order. *)
      let cvw = Array.make n_parts 0. in
      Array.iteri (fun v p -> cvw.(p) <- cvw.(p) +. vwgt.(v)) map;
      Array.iteri
        (fun p w ->
          if bits csr.Csr.vwgt.(p) <> bits w then
            Alcotest.failf "%s: coarse vertex weight %d" name p)
        cvw)
    (preset_graphs ())

(* ---- structured rejection ---- *)

let check_invalid ~context name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_input" name
  | exception E.Error (E.Invalid_input { context = c; _ }) ->
    Alcotest.(check string) (name ^ ": context") context c
  | exception e ->
    Alcotest.failf "%s: expected Invalid_input, got %s" name (Printexc.to_string e)

let test_builder_rejects () =
  let ok_src = [| 0 |] and ok_dst = [| 1 |] and ok_w = [| 1.0 |] in
  let of_arrays = Graph.of_arrays in
  check_invalid ~context:"graph.of_arrays" "dangling high" (fun () ->
      of_arrays ~n:2 ~src:[| 0 |] ~dst:[| 2 |] ~w:ok_w ());
  check_invalid ~context:"graph.of_arrays" "dangling negative" (fun () ->
      of_arrays ~n:2 ~src:[| -1 |] ~dst:[| 1 |] ~w:ok_w ());
  check_invalid ~context:"graph.of_arrays" "negative weight" (fun () ->
      of_arrays ~n:2 ~src:ok_src ~dst:ok_dst ~w:[| -1.0 |] ());
  check_invalid ~context:"graph.of_arrays" "nan weight" (fun () ->
      of_arrays ~n:2 ~src:ok_src ~dst:ok_dst ~w:[| Float.nan |] ());
  check_invalid ~context:"graph.of_arrays" "infinite weight" (fun () ->
      of_arrays ~n:2 ~src:ok_src ~dst:ok_dst ~w:[| Float.infinity |] ());
  check_invalid ~context:"graph.of_arrays" "length mismatch" (fun () ->
      of_arrays ~n:2 ~src:ok_src ~dst:[| 1; 0 |] ~w:ok_w ());
  check_invalid ~context:"graph.of_arrays" "negative n" (fun () ->
      of_arrays ~n:(-1) ~src:[||] ~dst:[||] ~w:[||] ());
  let g = of_arrays ~n:2 ~src:ok_src ~dst:ok_dst ~w:ok_w () in
  check_invalid ~context:"csr.of_graph" "vwgt length" (fun () ->
      Csr.of_graph ~vwgt:[| 1.0 |] g);
  check_invalid ~context:"csr.of_graph" "non-positive vwgt" (fun () ->
      Csr.of_graph ~vwgt:[| 1.0; 0.0 |] g);
  (* The error payload carries the label and exit class of input errors. *)
  (match of_arrays ~n:2 ~src:[| 0 |] ~dst:[| 5 |] ~w:[| 1.0 |] () with
  | _ -> Alcotest.fail "expected raise"
  | exception E.Error e ->
    Alcotest.(check string) "label" "invalid-input" (E.label e);
    Alcotest.(check int) "exit code" 65 (E.exit_code e))

let test_contract_rejects () =
  let csr = Csr.of_graph (Gen.path 4) in
  check_invalid ~context:"graph.contract" "length" (fun () ->
      Csr.contract csr [| 0; 1 |] ~n_parts:2);
  check_invalid ~context:"graph.contract" "range" (fun () ->
      Csr.contract csr [| 0; 1; 2; 9 |] ~n_parts:3);
  check_invalid ~context:"csr.contract" "empty part" (fun () ->
      Csr.contract csr [| 0; 0; 2; 2 |] ~n_parts:3)

(* ---- io normalization regression (ISSUE 6 satellite) ---- *)

let test_sparse_id_normalization () =
  let module Io = Hgp_graph.Io in
  (* Sparse ids compact to dense ones in ascending order. *)
  let dense, originals = Io.normalize_ids [ (10, 20, 2.5); (20, 30, 1.5) ] in
  Alcotest.(check int) "dense n" 3 (Graph.n dense);
  Alcotest.(check int) "dense m" 2 (Graph.m dense);
  Alcotest.(check (float 0.)) "weight preserved" 2.5 (Graph.edge_weight dense 0 1);
  Alcotest.(check (array int)) "id map" [| 10; 20; 30 |] originals;
  (* Already-dense input: normalization is the identity. *)
  let g = Gen.gnp_connected (Prng.create 5) 12 0.3 in
  let dense', map =
    Io.normalize_ids (Array.to_list (Graph.edges g))
  in
  Alcotest.(check bool) "identity on dense" true (graphs_equal g dense');
  Alcotest.(check (array int)) "identity map" (Array.init 12 Fun.id) map;
  (* A negative id is a structured input error. *)
  match Io.normalize_ids [ (-1, 2, 1.0) ] with
  | _ -> Alcotest.fail "expected Invalid_input"
  | exception E.Error (E.Invalid_input _) -> ()

(* ---- allocation budget ---- *)

(* The CSR build must stay allocation-linear: two counting-sort passes over
   the directed arcs plus the final CSR triple.  The ceiling tracks
   test/perf_budget.json's "csr.build_bytes_per_edge_max" (~4x headroom over
   the measured ~80 bytes/edge). *)
let budget_bytes_per_edge = 320.

(* Graph.reweight_edges patches the weights in place; the result must equal
   (full record equality, floats included) a graph holding the reference
   build of the patched edge list. *)
let test_reweight_matches_of_graph () =
  List.iter
    (fun (name, g) ->
      let rng = Prng.create (1 + Hashtbl.hash name) in
      let edges = Graph.edges g in
      let m = Array.length edges in
      if m > 0 then begin
        let k = 1 + Prng.int rng (min 5 m) in
        let updates =
          List.init k (fun _ ->
              let u, v, w = edges.(Prng.int rng m) in
              let factor = 0.25 +. (1.5 *. Prng.float rng 1.) in
              if Prng.bool rng then (u, v, w *. factor) else (v, u, w *. factor))
        in
        (* Reference: replace each patched edge's weight (last update wins)
           and rebuild from the edge list. *)
        let patched =
          Array.map
            (fun (u, v, w) ->
              let w =
                List.fold_left
                  (fun acc (a, b, x) -> if (min a b, max a b) = (u, v) then x else acc)
                  w updates
              in
              (u, v, w))
            edges
        in
        let g' = Graph.reweight_edges g updates in
        check_against_reference name g' (reference_edges (Array.to_list patched));
        (* The skeleton is shared, not rebuilt. *)
        if g'.Graph.adjncy != g.Graph.adjncy then
          Alcotest.failf "%s: adjacency was copied" name
      end)
    (preset_graphs ());
  (* unknown edges and malformed updates are structured rejects *)
  let g = Gen.path 4 in
  List.iter
    (fun bad ->
      check_invalid ~context:"graph.reweight_edges" "bad update" (fun () ->
          Graph.reweight_edges g [ bad ]))
    [ (0, 2, 1.) (* no such edge *); (1, 1, 1.); (0, 9, 1.); (0, 1, -1.); (0, 1, Float.nan) ]

let test_build_allocation_budget () =
  let m = 200_000 in
  let n = m + 1 in
  let src = Array.init m Fun.id in
  let dst = Array.init m (fun i -> i + 1) in
  let w = Array.make m 1.0 in
  let before = Gc.allocated_bytes () in
  let g = Graph.of_arrays ~n ~src ~dst ~w () in
  let after = Gc.allocated_bytes () in
  Alcotest.(check int) "built" m (Graph.m g);
  let per_edge = (after -. before) /. float_of_int m in
  if per_edge > budget_bytes_per_edge then
    Alcotest.failf "CSR build allocated %.1f bytes/edge (budget %.0f)" per_edge
      budget_bytes_per_edge;
  (* Attaching vertex weights copies one float per vertex, nothing per edge. *)
  let vwgt = Array.make n 2.0 in
  let before = Gc.allocated_bytes () in
  ignore (Csr.of_graph ~vwgt g);
  let per_vertex = (Gc.allocated_bytes () -. before) /. float_of_int n in
  if per_vertex > 16. then
    Alcotest.failf "Csr.of_graph allocated %.1f bytes/vertex (budget 16)" per_vertex

let () =
  Alcotest.run "csr"
    [
      ( "round-trip",
        [
          Alcotest.test_case "of_graph/to_graph isomorphism" `Quick test_round_trip;
          Alcotest.test_case "of_arrays = of_edges" `Quick test_of_arrays_matches_of_edges;
          Alcotest.test_case "merge + self-loop semantics" `Quick
            test_merge_and_self_loop_semantics;
          Alcotest.test_case "rows ascending" `Quick test_neighbor_order_ascending;
          Alcotest.test_case "vertex weights" `Quick test_vertex_weights;
        ] );
      ( "contract",
        [
          Alcotest.test_case "bit-identical to Graph.contract" `Quick
            test_contract_matches_graph_contract;
          Alcotest.test_case "structured rejects" `Quick test_contract_rejects;
        ] );
      ( "reweight",
        [
          Alcotest.test_case "patch = rebuild (bit-identical)" `Quick
            test_reweight_matches_of_graph;
        ] );
      ( "validation",
        [
          Alcotest.test_case "builder rejects" `Quick test_builder_rejects;
          Alcotest.test_case "sparse-id normalization" `Quick test_sparse_id_normalization;
        ] );
      ( "perf",
        [ Alcotest.test_case "allocation budget" `Quick test_build_allocation_budget ] );
    ]
