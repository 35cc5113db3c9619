module Laminar = Test_support.Laminar

let universe = [| 0; 1; 2; 3; 4; 5 |]

let test_is_partition () =
  Alcotest.(check bool) "valid" true
    (Laminar.is_partition [| [| 0; 1 |]; [| 2; 3; 4 |]; [| 5 |] |] ~universe);
  Alcotest.(check bool) "missing element" false
    (Laminar.is_partition [| [| 0; 1 |]; [| 2; 3 |] |] ~universe);
  Alcotest.(check bool) "duplicate element" false
    (Laminar.is_partition [| [| 0; 1 |]; [| 1; 2; 3; 4; 5 |] |] ~universe)

let test_refines () =
  Alcotest.(check bool) "finer" true
    (Laminar.refines [| [| 0 |]; [| 1 |]; [| 2; 3 |] |] [| [| 0; 1 |]; [| 2; 3 |] |]);
  Alcotest.(check bool) "crossing" false
    (Laminar.refines [| [| 0; 2 |] |] [| [| 0; 1 |]; [| 2; 3 |] |]);
  Alcotest.(check bool) "unknown element" false
    (Laminar.refines [| [| 9 |] |] [| [| 0; 1 |] |])

let family_ok : Laminar.family =
  [|
    [| universe |];
    [| [| 0; 1; 2 |]; [| 3; 4; 5 |] |];
    [| [| 0 |]; [| 1; 2 |]; [| 3 |]; [| 4; 5 |] |];
  |]

let test_is_laminar () =
  Alcotest.(check bool) "valid family" true (Laminar.is_laminar family_ok ~universe);
  let bad : Laminar.family =
    [| [| universe |]; [| [| 0; 3 |]; [| 1; 2; 4; 5 |] |]; [| [| 0; 1 |]; [| 2; 3; 4; 5 |] |] |]
  in
  Alcotest.(check bool) "crossing family" false (Laminar.is_laminar bad ~universe);
  let no_root : Laminar.family = [| [| [| 0; 1; 2 |]; [| 3; 4; 5 |] |] |] in
  Alcotest.(check bool) "level 0 must be the universe" false
    (Laminar.is_laminar no_root ~universe)

let test_refinement_counts () =
  let counts = Laminar.refinement_counts family_ok in
  Alcotest.(check (list int)) "level 0 splits" [ 2 ] counts.(0);
  Alcotest.(check (list int)) "level 1 splits" [ 2; 2 ] counts.(1)

let test_demands () =
  let d = Laminar.demands family_ok ~demand:(fun x -> float_of_int (x + 1)) in
  Alcotest.(check (list (float 1e-9))) "level 1 demands" [ 6.; 15. ] d.(1)

let () =
  Alcotest.run "laminar"
    [
      ( "unit",
        [
          Alcotest.test_case "is_partition" `Quick test_is_partition;
          Alcotest.test_case "refines" `Quick test_refines;
          Alcotest.test_case "is_laminar" `Quick test_is_laminar;
          Alcotest.test_case "refinement counts" `Quick test_refinement_counts;
          Alcotest.test_case "demands" `Quick test_demands;
        ] );
    ]
