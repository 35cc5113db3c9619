module Prng = Hgp_util.Prng

let test_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_different_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr equal
  done;
  Alcotest.(check bool) "streams differ" true (!equal < 4)

let test_copy_independent () =
  let a = Prng.create 9 in
  let _ = Prng.bits64 a in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)

let test_split_independent () =
  let a = Prng.create 5 in
  let b = Prng.split a in
  let xs = Array.init 32 (fun _ -> Prng.bits64 a) in
  let ys = Array.init 32 (fun _ -> Prng.bits64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_int_range_errors () =
  let rng = Prng.create 0 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_shuffle_is_permutation () =
  let rng = Prng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_permutation_uniform_smoke () =
  (* All 6 permutations of 3 elements appear over many draws. *)
  let rng = Prng.create 17 in
  let seen = Hashtbl.create 6 in
  for _ = 1 to 500 do
    Hashtbl.replace seen (Array.to_list (Prng.permutation rng 3)) ()
  done;
  Alcotest.(check int) "all 6 permutations" 6 (Hashtbl.length seen)

let test_sample_without_replacement () =
  let rng = Prng.create 23 in
  for _ = 1 to 50 do
    let k = Prng.int rng 10 in
    let s = Prng.sample_without_replacement rng ~n:10 ~k in
    Alcotest.(check int) "size" k (Array.length s);
    let distinct = List.sort_uniq compare (Array.to_list s) in
    Alcotest.(check int) "distinct" k (List.length distinct);
    Array.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 10)) s
  done

let prop_int_in_bounds =
  Test_support.qtest "int in [0,bound)" QCheck2.Gen.(pair (int_bound 100000) (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

let prop_float_in_bounds =
  Test_support.qtest "float in [0,b)" QCheck2.Gen.(pair (int_bound 100000) (float_range 0.001 1e6))
    (fun (seed, b) ->
      let rng = Prng.create seed in
      let v = Prng.float rng b in
      v >= 0. && v < b)

let prop_int_incl =
  Test_support.qtest "int_incl in [lo,hi]"
    QCheck2.Gen.(triple (int_bound 100000) (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let rng = Prng.create seed in
      let v = Prng.int_incl rng lo (lo + span) in
      v >= lo && v <= lo + span)

let prop_exponential_positive =
  Test_support.qtest "exponential >= 0"
    QCheck2.Gen.(pair (int_bound 100000) (float_range 0.01 100.))
    (fun (seed, rate) ->
      let rng = Prng.create seed in
      Prng.exponential rng ~rate >= 0.)

let prop_pareto_min =
  Test_support.qtest "pareto >= x_min"
    QCheck2.Gen.(triple (int_bound 100000) (float_range 0.5 5.) (float_range 0.1 10.))
    (fun (seed, alpha, x_min) ->
      let rng = Prng.create seed in
      Prng.pareto rng ~alpha ~x_min >= x_min)

(* ---- pinned stream ----

   Every draw kind in a fixed order from a fresh generator per seed, as
   recorded from the boxed-state implementation this one replaced: [bN]
   bits64 in hex, [iN] int (three draws at each of the bounds 1, 7, 1000,
   max_int), [fN] the bits of float 1.0, [T]/[F] bool, [s...] a shuffle of
   0..19, [c...] bits64 then int 1000 from a split-off child, [p...] the
   parent's next bits64.  Any change here changes every seeded answer. *)
let trace seed =
  let t = Prng.create seed in
  let out = ref [] in
  let push s = out := s :: !out in
  for _ = 1 to 3 do
    push (Printf.sprintf "b%Lx" (Prng.bits64 t))
  done;
  List.iter
    (fun b ->
      for _ = 1 to 3 do
        push (Printf.sprintf "i%d" (Prng.int t b))
      done)
    [ 1; 7; 1000; max_int ];
  for _ = 1 to 2 do
    push (Printf.sprintf "f%Lx" (Int64.bits_of_float (Prng.float t 1.0)))
  done;
  for _ = 1 to 4 do
    push (if Prng.bool t then "T" else "F")
  done;
  let a = Array.init 20 Fun.id in
  Prng.shuffle t a;
  push ("s" ^ String.concat "," (Array.to_list (Array.map string_of_int a)));
  let c = Prng.split t in
  push (Printf.sprintf "c%Lx" (Prng.bits64 c));
  push (Printf.sprintf "c%d" (Prng.int c 1000));
  push (Printf.sprintf "p%Lx" (Prng.bits64 t));
  List.rev !out

let golden_traces =
  [
    ( 0,
      [ "be220a8397b1dcdaf"; "b6e789e6aa1b965f4"; "b6c45d188009454f"; "i0"; "i0"; "i0"; "i1"; "i4"; "i1"; "i678"; "i297"; "i14"; "i441810434672810875"; "i1017661051295672623"; "i3841024119370698009"; "f3fe09767f2f2e3b0"; "f3fdf4a60971d5484"; "F"; "F"; "F"; "T"; "s17,2,9,8,15,3,7,14,6,5,4,16,19,12,1,18,10,0,11,13"; "c9b9fb1ffb4bb8a19"; "c563"; "p134f7096918175ce" ] );
    ( 1,
      [ "bbfef8030ddc2d772"; "b5f552ce482f2aa47"; "b70335fc3daf3d8a7"; "i0"; "i0"; "i0"; "i0"; "i6"; "i5"; "i148"; "i110"; "i169"; "i3187103273337202158"; "i3723083104817009959"; "i2857380782389785691"; "f3fe1796175325760"; "f3fb527c1fdc7b0c0"; "F"; "F"; "F"; "F"; "s0,7,1,12,9,13,8,4,14,5,3,2,15,17,18,6,10,11,16,19"; "cdf46807a58f4620b"; "c762"; "p1a3d4958b6ae7633" ] );
    ( 42,
      [ "b989b3f130a063869"; "b290db4bf2570ded7"; "b2a990be63a01b2d5"; "i0"; "i0"; "i0"; "i4"; "i3"; "i1"; "i847"; "i532"; "i716"; "i2766612144852943180"; "i1482940387686048950"; "i700186318760072552"; "f3feb53d1af09b619"; "f3fb158ab517a8ca0"; "T"; "F"; "T"; "T"; "s7,13,2,17,16,1,18,10,9,11,6,12,14,15,4,8,19,5,0,3"; "c6e76e8d4a1693b"; "c89"; "pcf59e55818ecd106" ] );
    ( max_int,
      [ "b2de2ce032c245fa7"; "baf69910c113799ac"; "bc214c2e0626ff3ef"; "i0"; "i0"; "i0"; "i5"; "i0"; "i0"; "i877"; "i451"; "i4"; "i2323302865918290611"; "i252010957438249668"; "i4380397962875938142"; "f3fd86caa10d6ef3e"; "f3fee591d282b8c58"; "F"; "T"; "T"; "F"; "s8,2,4,10,13,18,12,5,14,6,11,16,19,9,7,17,3,1,15,0"; "c4cdb308475b1c66f"; "c789"; "pf9879310efab9f9e" ] );
  ]

let test_golden_stream () =
  List.iter
    (fun (seed, want) -> Alcotest.(check (list string)) (string_of_int seed) want (trace seed))
    golden_traces

(* ---- allocation ----

   The state is unboxed and [int] is a loop, so a draw allocates nothing:
   ten draws (or a shuffle of ten) cost exactly what 100 000 do. *)
let allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  f ();
  Gc.allocated_bytes () -. before

let test_draws_do_not_allocate () =
  let t = Prng.create 3 in
  let draws k () =
    for _ = 1 to k do
      ignore (Prng.int t 1000)
    done
  in
  let small = Array.init 10 Fun.id and large = Array.init 100_000 Fun.id in
  Alcotest.(check (float 0.)) "int: 10 vs 100 000 draws"
    (allocated (draws 10)) (allocated (draws 100_000));
  Alcotest.(check (float 0.)) "shuffle: 10 vs 100 000 elements"
    (allocated (fun () -> Prng.shuffle t small))
    (allocated (fun () -> Prng.shuffle t large))

let () =
  Alcotest.run "prng"
    [
      ( "unit",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "different seeds" `Quick test_different_seeds;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "split" `Quick test_split_independent;
          Alcotest.test_case "int errors" `Quick test_int_range_errors;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "permutation coverage" `Quick test_permutation_uniform_smoke;
          Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "pinned stream" `Quick test_golden_stream;
          Alcotest.test_case "draws do not allocate" `Quick test_draws_do_not_allocate;
        ] );
      ( "property",
        [
          prop_int_in_bounds;
          prop_float_in_bounds;
          prop_int_incl;
          prop_exponential_positive;
          prop_pareto_min;
        ] );
    ]
