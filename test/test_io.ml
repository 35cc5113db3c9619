module Graph = Hgp_graph.Graph
module Io = Hgp_graph.Io
module Gen = Hgp_graph.Generators

let graphs_equal a b =
  Graph.n a = Graph.n b && Graph.m a = Graph.m b
  && Graph.fold_edges
       (fun acc u v w -> acc && Float.abs (Graph.edge_weight b u v -. w) < 1e-9)
       true a

let test_roundtrip_metis () =
  let g = Graph.of_edges 4 [ (0, 1, 1.5); (1, 2, 2.); (2, 3, 0.5); (0, 3, 4.) ] in
  let g' = Io.of_string (Io.to_string g) in
  Alcotest.(check bool) "roundtrip" true (graphs_equal g g')

let test_unweighted_parse () =
  let s = "3 2\n2 3\n1\n1\n" in
  let g = Io.of_string s in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 2 (Graph.m g);
  Test_support.check_close "unit weight" 1. (Graph.edge_weight g 0 1)

let test_comments_ignored () =
  let s = "% a comment\n2 1\n2\n1\n" in
  let g = Io.of_string s in
  Alcotest.(check int) "m" 1 (Graph.m g)

let invalid_input_at line f =
  match f () with
  | _ -> Alcotest.failf "accepted; expected an error at line %d" line
  | exception
      Hgp_resilience.Hgp_error.Error (Hgp_resilience.Hgp_error.Invalid_input { msg; _ }) ->
    let prefix = Printf.sprintf "line %d:" line in
    Alcotest.(check string) "error names the line" prefix
      (String.sub msg 0 (min (String.length msg) (String.length prefix)))

let test_malformed () =
  invalid_input_at 1 (fun () -> Io.of_string "not a header\n");
  invalid_input_at 4 (fun () -> Io.of_string "3 1\n2\n1\n");
  invalid_input_at 1 (fun () -> Io.of_string "2 5\n2\n1\n");
  invalid_input_at 3 (fun () -> Io.of_string "% c\n2 1\n3\n1\n");
  invalid_input_at 2 (fun () -> Io.of_string "2 1 001\n2\n1 1\n");
  invalid_input_at 3 (fun () -> Io.of_string "2 1\n2\nx\n");
  invalid_input_at 4 (fun () -> Io.of_string "2 1\n2\n1\n9\n");
  invalid_input_at 2 (fun () -> Io.of_string "2 1 001\n2 -1\n1 -1\n")

(* An isolated vertex is an empty adjacency line, which must count as a
   vertex line: the file below has vertices 3 and 4 isolated. *)
let test_isolated_vertex () =
  let g = Io.of_string "4 1 001\n2 1\n1 1\n\n\n" in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "m" 1 (Graph.m g);
  let g = Graph.of_edges 5 [ (0, 1, 1.5); (3, 1, 2.) ] in
  Alcotest.(check bool) "roundtrip with isolated vertices" true
    (graphs_equal g (Io.of_string (Io.to_string g)))

let test_file_roundtrip () =
  let g = Gen.grid2d ~rows:3 ~cols:3 in
  let path = Filename.temp_file "hgp" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc (Io.to_string g));
      let g' = Io.of_string (Hgp_resilience.Reader.load path) in
      Alcotest.(check bool) "file roundtrip" true (graphs_equal g g'))

(* CRLF line endings (and a trailing blank line) must parse identically to
   the LF original. *)
let to_crlf s =
  String.split_on_char '\n' s |> String.concat "\r\n"

let test_crlf_parse () =
  let g = Graph.of_edges 4 [ (0, 1, 1.5); (1, 2, 2.); (2, 3, 0.5); (0, 3, 4.) ] in
  let s = to_crlf (Io.to_string g) ^ "\r\n\r\n" in
  Alcotest.(check bool) "crlf parses to same graph" true
    (graphs_equal g (Io.of_string s))

(* normalize_ids with sparse original ids: the mapping must be dense,
   order-preserving, and cover ~vertices even when they touch no edge —
   the delta layer relies on this to keep a vertex alive after its last
   incident edge is removed. *)
let test_normalize_sparse_ids () =
  let g, map = Io.normalize_ids [ (10, 3, 1.5); (7, 10, 2.) ] in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 2 (Graph.m g);
  Alcotest.(check (array int)) "order-preserving map" [| 3; 7; 10 |] map;
  Test_support.check_close "edge 10-3" 1.5 (Graph.edge_weight g 2 0);
  Test_support.check_close "edge 7-10" 2. (Graph.edge_weight g 1 2)

let test_normalize_isolated_vertices () =
  (* 5 and 42 have no incident edge but must still get dense ids. *)
  let g, map = Io.normalize_ids ~vertices:[ 42; 5; 3 ] [ (3, 9, 1.) ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "m" 1 (Graph.m g);
  Alcotest.(check (array int)) "map" [| 3; 5; 9; 42 |] map;
  Alcotest.(check bool) "edge kept" true (Graph.has_edge g 0 2);
  (* all vertices already covered by edges: ~vertices is a no-op *)
  let g', map' = Io.normalize_ids ~vertices:[ 3; 9 ] [ (3, 9, 1.) ] in
  Alcotest.(check int) "no-op n" 2 (Graph.n g');
  Alcotest.(check (array int)) "no-op map" [| 3; 9 |] map';
  (* edge-free instance: a single surviving isolated vertex *)
  let g'', map'' = Io.normalize_ids ~vertices:[ 6 ] [] in
  Alcotest.(check int) "lonely n" 1 (Graph.n g'');
  Alcotest.(check int) "lonely m" 0 (Graph.m g'');
  Alcotest.(check (array int)) "lonely map" [| 6 |] map'';
  Alcotest.(check bool) "negative id rejected" true
    (try
       ignore (Io.normalize_ids ~vertices:[ -1 ] []);
       false
     with Hgp_resilience.Hgp_error.Error (Hgp_resilience.Hgp_error.Invalid_input _) ->
       true)

let prop_metis_roundtrip =
  Test_support.qtest ~count:50 "METIS roundtrip on random graphs"
    (Test_support.gen_graph ())
    (fun g -> graphs_equal g (Io.of_string (Io.to_string g)))

let () =
  Alcotest.run "io"
    [
      ( "unit",
        [
          Alcotest.test_case "metis roundtrip" `Quick test_roundtrip_metis;
          Alcotest.test_case "unweighted parse" `Quick test_unweighted_parse;
          Alcotest.test_case "comments" `Quick test_comments_ignored;
          Alcotest.test_case "malformed" `Quick test_malformed;
          Alcotest.test_case "isolated vertex" `Quick test_isolated_vertex;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "crlf parse" `Quick test_crlf_parse;
          Alcotest.test_case "normalize sparse ids" `Quick test_normalize_sparse_ids;
          Alcotest.test_case "normalize isolated vertices" `Quick
            test_normalize_isolated_vertices;
        ] );
      ("property", [ prop_metis_roundtrip ]);
    ]
