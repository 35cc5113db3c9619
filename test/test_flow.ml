module Graph = Hgp_graph.Graph
module Gen = Hgp_graph.Generators
module Maxflow = Hgp_flow.Maxflow
module Mincut = Test_support.Mincut
module Cuts = Hgp_graph.Cuts

(* Brute-force minimum s-t cut by enumerating vertex bipartitions. *)
let brute_st_cut g ~src ~dst =
  let n = Graph.n g in
  let best = ref infinity in
  for mask = 0 to (1 lsl n) - 1 do
    let in_set v = (mask lsr v) land 1 = 1 in
    if in_set src && not (in_set dst) then begin
      let w = Cuts.cut_weight g in_set in
      if w < !best then best := w
    end
  done;
  !best

let test_known_flow () =
  (* Classic diamond: 0->{1,2}->3 with a cross edge. *)
  let t = Maxflow.create 4 in
  Maxflow.add_arc t 0 1 3.;
  Maxflow.add_arc t 0 2 2.;
  Maxflow.add_arc t 1 3 2.;
  Maxflow.add_arc t 2 3 3.;
  Maxflow.add_arc t 1 2 1.;
  Test_support.check_close "max flow" 5. (Maxflow.max_flow t ~src:0 ~dst:3)

let test_disconnected_flow () =
  let t = Maxflow.create 3 in
  Maxflow.add_arc t 0 1 4.;
  Test_support.check_close "no path" 0. (Maxflow.max_flow t ~src:0 ~dst:2)

let test_reset () =
  let t = Maxflow.create 2 in
  Maxflow.add_arc t 0 1 7.;
  Test_support.check_close "first" 7. (Maxflow.max_flow t ~src:0 ~dst:1);
  Test_support.check_close "drained" 0. (Maxflow.max_flow t ~src:0 ~dst:1);
  Maxflow.reset t;
  Test_support.check_close "after reset" 7. (Maxflow.max_flow t ~src:0 ~dst:1)

let test_min_cut_side () =
  let g = Graph.of_edges 4 [ (0, 1, 10.); (1, 2, 1.); (2, 3, 10.) ] in
  let t = Maxflow.of_graph g in
  let f = Maxflow.max_flow t ~src:0 ~dst:3 in
  Test_support.check_close "bottleneck" 1. f;
  let side = Maxflow.min_cut_side t ~src:0 in
  Alcotest.(check bool) "src side" true side.(0);
  Alcotest.(check bool) "1 with src" true side.(1);
  Alcotest.(check bool) "dst side" false side.(3)

let prop_flow_equals_brute_cut =
  Test_support.qtest ~count:80 "max-flow = brute min s-t cut"
    (Test_support.gen_graph ~max_n:9 ())
    (fun g ->
      let n = Graph.n g in
      let src = 0 and dst = n - 1 in
      let f = Maxflow.min_cut_value g ~src ~dst in
      let c = brute_st_cut g ~src ~dst in
      Float.abs (f -. c) < 1e-6)

let prop_cut_side_is_min_cut =
  Test_support.qtest ~count:80 "residual side realizes the flow value"
    (Test_support.gen_graph ~max_n:9 ())
    (fun g ->
      let n = Graph.n g in
      let t = Maxflow.of_graph g in
      let f = Maxflow.max_flow t ~src:0 ~dst:(n - 1) in
      let side = Maxflow.min_cut_side t ~src:0 in
      side.(0)
      && (not side.(n - 1))
      && Float.abs (Cuts.cut_weight g (fun v -> side.(v)) -. f) < 1e-6)

let test_stoer_wagner_known () =
  (* Two triangles joined by a single light edge. *)
  let g =
    Graph.of_edges 6
      [
        (0, 1, 3.); (1, 2, 3.); (0, 2, 3.);
        (3, 4, 3.); (4, 5, 3.); (3, 5, 3.);
        (2, 3, 1.);
      ]
  in
  let value, side = Mincut.stoer_wagner g in
  Test_support.check_close "min cut" 1. value;
  Test_support.check_close "side realizes it" 1. (Cuts.cut_weight g (fun v -> side.(v)))

let prop_stoer_wagner_vs_brute =
  Test_support.qtest ~count:60 "Stoer-Wagner = brute global min cut"
    (Test_support.gen_graph ~max_n:9 ())
    (fun g ->
      let sw, side = Mincut.stoer_wagner g in
      let bf, _ = Mincut.brute_force g in
      Float.abs (sw -. bf) < 1e-6
      && Float.abs (Cuts.cut_weight g (fun v -> side.(v)) -. sw) < 1e-6)

let test_errors () =
  Alcotest.(check bool) "src=dst rejected" true
    (try
       let t = Maxflow.create 2 in
       ignore (Maxflow.max_flow t ~src:0 ~dst:0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "tiny stoer-wagner rejected" true
    (try
       ignore (Mincut.stoer_wagner (Graph.of_edges 1 []));
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "flow"
    [
      ( "unit",
        [
          Alcotest.test_case "known flow" `Quick test_known_flow;
          Alcotest.test_case "disconnected" `Quick test_disconnected_flow;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "min cut side" `Quick test_min_cut_side;
          Alcotest.test_case "stoer-wagner known" `Quick test_stoer_wagner_known;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
      ( "property",
        [ prop_flow_equals_brute_cut; prop_cut_side_is_min_cut; prop_stoer_wagner_vs_brute ] );
    ]
