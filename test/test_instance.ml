module Graph = Hgp_graph.Graph
module Gen = Hgp_graph.Generators
module H = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Demand = Hgp_core.Demand
module Prng = Hgp_util.Prng

let hy () = H.create ~degs:[| 2; 2 |] ~cm:[| 10.; 3.; 0. |] ~leaf_capacity:1.0

let test_create_valid () =
  let g = Gen.path 3 in
  let inst = Instance.create g ~demands:[| 0.5; 0.4; 0.3 |] (hy ()) in
  Alcotest.(check int) "n" 3 (Instance.n inst);
  Test_support.check_close "total" 1.2 (Instance.total_demand inst);
  Alcotest.(check bool) "feasible" true (Instance.is_feasible inst)

let test_create_invalid () =
  let g = Gen.path 2 in
  Alcotest.(check bool) "length mismatch" true
    (try
       ignore (Instance.create g ~demands:[| 0.5 |] (hy ()));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero demand" true
    (try
       ignore (Instance.create g ~demands:[| 0.; 0.5 |] (hy ()));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "oversized demand" true
    (try
       ignore (Instance.create g ~demands:[| 1.5; 0.5 |] (hy ()));
       false
     with Invalid_argument _ -> true)

let test_uniform_demands () =
  let g = Gen.path 8 in
  let inst = Instance.uniform_demands g (hy ()) ~load_factor:0.5 in
  (* total capacity 4, load 2, per vertex 0.25 *)
  Test_support.check_close "per vertex" 0.25 inst.demands.(3);
  Test_support.check_close "total" 2.0 (Instance.total_demand inst)

let test_random_demands () =
  let rng = Prng.create 5 in
  let g = Gen.path 10 in
  let inst = Instance.random_demands rng g (hy ()) ~load_factor:0.6 in
  Alcotest.(check bool) "total close to target" true
    (Instance.total_demand inst <= 2.4 +. 1e-9);
  Array.iter
    (fun d -> Alcotest.(check bool) "in range" true (d > 0. && d <= 1.))
    inst.demands

let test_quantize_floor_ceil () =
  let q =
    Demand.quantize ~demands:[| 0.24; 0.26; 1.0 |] ~leaf_capacity:1.0 ~resolution:4
      ~mode:Demand.Floor
  in
  Alcotest.(check (array int)) "floor" [| 0; 1; 4 |] q.units;
  Test_support.check_close "unit size" 0.25 q.unit_size;
  let q2 =
    Demand.quantize ~demands:[| 0.24; 0.26; 1.0 |] ~leaf_capacity:1.0 ~resolution:4
      ~mode:Demand.Ceil
  in
  Alcotest.(check (array int)) "ceil" [| 1; 2; 4 |] q2.units

let test_quantize_edge_values () =
  (* Exact multiples stay exact under both modes. *)
  let for_mode mode =
    (Demand.quantize ~demands:[| 0.5; 0.25 |] ~leaf_capacity:1.0 ~resolution:4 ~mode).units
  in
  Alcotest.(check (array int)) "floor exact" [| 2; 1 |] (for_mode Demand.Floor);
  Alcotest.(check (array int)) "ceil exact" [| 2; 1 |] (for_mode Demand.Ceil)

let test_resolution_for_eps () =
  Alcotest.(check int) "paper resolution" 40 (Demand.resolution_for_eps ~n:10 ~eps:0.25);
  Alcotest.(check bool) "bad eps" true
    (try
       ignore (Demand.resolution_for_eps ~n:10 ~eps:0.);
       false
     with Invalid_argument _ -> true)

let test_capacity_units () =
  let q =
    Demand.quantize ~demands:[| 0.5 |] ~leaf_capacity:1.0 ~resolution:4 ~mode:Demand.Floor
  in
  Alcotest.(check (array int)) "per level" [| 16; 8; 4 |]
    (Demand.capacity_units q ~hierarchy:(hy ()))

module Instance_io = Hgp_core.Instance_io

let test_instance_io_roundtrip () =
  let rng = Prng.create 8 in
  let g = Gen.gnp_connected rng 12 0.35 in
  let hy2 = H.create ~degs:[| 3; 2 |] ~cm:[| 8.; 2.5; 0.5 |] ~leaf_capacity:1.5 in
  let inst = Instance.random_demands rng g hy2 ~load_factor:0.55 in
  let inst' = Instance_io.of_string (Instance_io.to_string inst) in
  Alcotest.(check int) "n" (Instance.n inst) (Instance.n inst');
  Test_support.check_close "total demand" (Instance.total_demand inst)
    (Instance.total_demand inst');
  Test_support.check_close "leaf capacity" 1.5 (H.leaf_capacity inst'.hierarchy);
  Test_support.check_close "cm" 2.5 (H.cm inst'.hierarchy 1);
  (* Costs agree on an arbitrary assignment. *)
  let p = Array.init (Instance.n inst) (fun v -> v mod 6) in
  Test_support.check_close "cost preserved"
    (Hgp_core.Cost.assignment_cost inst p)
    (Hgp_core.Cost.assignment_cost inst' p)

let test_instance_io_ragged_roundtrip () =
  (* A ragged hierarchy serializes as its bracket spec with no separate
     capacity field (the spec embeds per-leaf capacities), and round-trips
     to the same fingerprint. *)
  let rng = Prng.create 9 in
  let g = Gen.gnp_connected rng 12 0.35 in
  let hy = H.Presets.ragged_rack in
  let inst = Instance.uniform_demands g hy ~load_factor:0.5 in
  let text = Instance_io.to_string inst in
  let lines = String.split_on_char '\n' text in
  let is_hline l = String.length l > 10 && String.sub l 0 10 = "hierarchy " in
  let hline = List.find is_hline lines in
  Alcotest.(check int) "hierarchy line is just the spec (no capacity field)" 2
    (List.length (String.split_on_char ' ' hline));
  let inst' = Instance_io.of_string text in
  Alcotest.(check string) "hierarchy fingerprint preserved"
    (Hgp_util.Fingerprint.to_hex (H.fingerprint hy))
    (Hgp_util.Fingerprint.to_hex (H.fingerprint inst'.Instance.hierarchy));
  Alcotest.(check bool) "demands bit-identical" true (inst.demands = inst'.demands);
  (* 'capacity' on a ragged spec is a parse error, not a silent override. *)
  let with_capacity =
    List.map (fun l -> if is_hline l then l ^ " capacity 2.0" else l) lines
    |> String.concat "\n"
  in
  Alcotest.(check bool) "ragged + capacity rejected" true
    (try
       ignore (Instance_io.of_string with_capacity);
       false
     with Hgp_resilience.Hgp_error.Error (Hgp_resilience.Hgp_error.Parse _) -> true)

let test_instance_io_file () =
  let g = Gen.path 4 in
  let inst = Instance.uniform_demands g (hy ()) ~load_factor:0.5 in
  let path = Filename.temp_file "hgp" ".hgp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Instance_io.to_string inst));
      let inst' = Instance_io.load path in
      Alcotest.(check int) "n" 4 (Instance.n inst'))

let test_instance_io_crlf () =
  (* A CRLF-converted instance file (plus trailing blank lines) must load to
     the same instance as the LF original — demands bit-identical, graph
     weights intact. *)
  let rng = Prng.create 11 in
  let g = Gen.gnp_connected rng 10 0.4 in
  let inst = Instance.random_demands rng g (hy ()) ~load_factor:0.5 in
  let crlf =
    (String.split_on_char '\n' (Instance_io.to_string inst) |> String.concat "\r\n")
    ^ "\r\n\r\n"
  in
  let inst' = Instance_io.of_string crlf in
  Alcotest.(check int) "n" (Instance.n inst) (Instance.n inst');
  Alcotest.(check bool) "demands bit-identical" true (inst.demands = inst'.demands);
  let p = Array.init (Instance.n inst) (fun v -> v mod 4) in
  Test_support.check_close "cost preserved"
    (Hgp_core.Cost.assignment_cost inst p)
    (Hgp_core.Cost.assignment_cost inst' p);
  (* And through a file, exercising [Instance_io.load]. *)
  let path = Filename.temp_file "hgp_crlf" ".hgp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc crlf;
      close_out oc;
      let inst'' = Instance_io.load path in
      Alcotest.(check bool) "load accepts crlf" true (inst.demands = inst''.demands))

let test_instance_io_malformed () =
  (* Every malformed input must surface as a structured [Parse] error — the
     taxonomy contract of Instance_io (details in test_resilience.ml). *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "rejected with a Parse error" true
        (try
           ignore (Instance_io.of_string s);
           false
         with Hgp_resilience.Hgp_error.Error (Hgp_resilience.Hgp_error.Parse _) -> true))
    [
      "";
      "graph\n2 1\n2\n1\n";
      "hierarchy 2@1,0 capacity 1\ngraph\n2 1\n2\n1\n";
      "demands 0.5 0.5\ngraph\n2 1\n2\n1\n";
      "hierarchy 2@1,0 capacity 1\ndemands 0.5 0.5\nnonsense\ngraph\n2 1\n2\n1\n";
    ]

let prop_floor_le_ceil =
  Test_support.qtest ~count:200 "floor units <= ceil units, both within resolution"
    QCheck2.Gen.(pair (float_range 0.01 1.0) (int_range 1 64))
    (fun (d, resolution) ->
      let qf =
        Demand.quantize ~demands:[| d |] ~leaf_capacity:1.0 ~resolution ~mode:Demand.Floor
      in
      let qc =
        Demand.quantize ~demands:[| d |] ~leaf_capacity:1.0 ~resolution ~mode:Demand.Ceil
      in
      qf.units.(0) <= qc.units.(0)
      && qc.units.(0) <= resolution
      && qf.units.(0) >= 0
      && qc.units.(0) - qf.units.(0) <= 1)

let prop_rounding_error =
  Test_support.qtest ~count:200 "floor rounding loses less than one unit per job"
    QCheck2.Gen.(pair (float_range 0.01 1.0) (int_range 1 64))
    (fun (d, resolution) ->
      let q =
        Demand.quantize ~demands:[| d |] ~leaf_capacity:1.0 ~resolution ~mode:Demand.Floor
      in
      let represented = float_of_int q.units.(0) *. q.unit_size in
      d -. represented < q.unit_size +. 1e-9
      && represented <= d +. 1e-9
      && Demand.rounding_error_bound q ~n_jobs:1 >= d -. represented -. 1e-9)

let () =
  Alcotest.run "instance"
    [
      ( "unit",
        [
          Alcotest.test_case "create valid" `Quick test_create_valid;
          Alcotest.test_case "create invalid" `Quick test_create_invalid;
          Alcotest.test_case "uniform demands" `Quick test_uniform_demands;
          Alcotest.test_case "random demands" `Quick test_random_demands;
          Alcotest.test_case "quantize floor/ceil" `Quick test_quantize_floor_ceil;
          Alcotest.test_case "quantize exact" `Quick test_quantize_edge_values;
          Alcotest.test_case "resolution for eps" `Quick test_resolution_for_eps;
          Alcotest.test_case "capacity units" `Quick test_capacity_units;
          Alcotest.test_case "instance io roundtrip" `Quick test_instance_io_roundtrip;
          Alcotest.test_case "instance io ragged roundtrip" `Quick
            test_instance_io_ragged_roundtrip;
          Alcotest.test_case "instance io file" `Quick test_instance_io_file;
          Alcotest.test_case "instance io crlf" `Quick test_instance_io_crlf;
          Alcotest.test_case "instance io malformed" `Quick test_instance_io_malformed;
        ] );
      ("property", [ prop_floor_le_ceil; prop_rounding_error ]);
    ]
