module Signature = Hgp_core.Signature

let space () = Signature.create ~cp_units:[| 12; 6; 3 |] ()

let test_encode_decode () =
  let s = space () in
  let sg = [| 5; 2 |] in
  Alcotest.(check (array int)) "roundtrip" sg (Signature.decode s (Signature.encode s sg))

let test_zero_and_leaf () =
  let s = space () in
  Alcotest.(check (array int)) "zero" [| 0; 0 |] (Signature.decode s (Signature.zero s));
  (match Signature.of_leaf s 2 with
  | Some key -> Alcotest.(check (array int)) "leaf sig" [| 2; 2 |] (Signature.decode s key)
  | None -> Alcotest.fail "leaf should fit");
  Alcotest.(check bool) "oversized leaf" true (Signature.of_leaf s 4 = None)

let test_space_size () =
  let s = space () in
  Alcotest.(check int) "dense size" (7 * 4) (Signature.space_size s)

let test_count_valid () =
  let s = space () in
  (* Monotone pairs (a, b) with a in 0..6, b in 0..3, a >= b:
     b=0: 7, b=1: 6, b=2: 5, b=3: 4 -> 22. *)
  Alcotest.(check int) "monotone count" 22 (Signature.count_valid s);
  let s1 = Signature.create ~cp_units:[| 5; 5 |] () in
  Alcotest.(check int) "single level" 6 (Signature.count_valid s1);
  let s0 = Signature.create ~cp_units:[| 5 |] () in
  Alcotest.(check int) "height zero" 1 (Signature.count_valid s0)

let test_validation () =
  Alcotest.(check bool) "increasing capacities rejected" true
    (try
       ignore (Signature.create ~cp_units:[| 2; 5 |] ());
       false
     with Invalid_argument _ -> true);
  let s = space () in
  Alcotest.(check bool) "out of range encode" true
    (try
       ignore (Signature.encode s [| 7; 0 |]);
       false
     with Invalid_argument _ -> true)

let prop_roundtrip =
  Test_support.qtest ~count:300 "encode/decode roundtrip over valid values"
    QCheck2.Gen.(triple (int_range 0 12) (int_range 0 6) (int_range 0 3))
    (fun (_, a, b) ->
      let s = space () in
      let sg = [| a; b |] in
      Signature.decode s (Signature.encode s sg) = sg)

let prop_bucket_idempotent =
  Test_support.qtest ~count:300 "geometric bucket is idempotent and <= value"
    QCheck2.Gen.(pair (float_range 0.05 1.0) (int_range 0 100000))
    (fun (delta, v) ->
      let s = Signature.create ~cp_units:[| 1000000; 1000000 |] ~bucketing:delta () in
      let b = s.Signature.bucket v in
      b <= v && s.Signature.bucket b = b && (v <= 4 || b >= 1))

let prop_bucket_close =
  Test_support.qtest ~count:300 "bucket within a (1+delta) factor"
    QCheck2.Gen.(pair (float_range 0.05 1.0) (int_range 5 100000))
    (fun (delta, v) ->
      let s = Signature.create ~cp_units:[| 1000000 |] ~bucketing:delta () in
      let b = s.Signature.bucket v in
      float_of_int v <= (1. +. delta) *. float_of_int b +. 1.)

let prop_keys_distinct =
  Test_support.qtest ~count:200 "distinct signatures get distinct keys"
    QCheck2.Gen.(pair (pair (int_range 0 6) (int_range 0 3)) (pair (int_range 0 6) (int_range 0 3)))
    (fun ((a1, b1), (a2, b2)) ->
      let s = space () in
      let k1 = Signature.encode s [| a1; b1 |] and k2 = Signature.encode s [| a2; b2 |] in
      (k1 = k2) = (a1 = a2 && b1 = b2))

(* ---- packed dominance words ---- *)

let test_packing_layout () =
  let words caps = (Signature.packing caps).Signature.words in
  Alcotest.(check int) "height zero" 1 (words [||]);
  (* 15 value bits + 1 guard per level: three levels fit one word ... *)
  Alcotest.(check int) "3 x 16 bits" 1 (words [| 32767; 32767; 32767 |]);
  (* ... four 17-bit fields (cap 2^15 needs 16 value bits) do not. *)
  Alcotest.(check int) "4 x 17 bits" 2 (words [| 32768; 32768; 32768; 32768 |]);
  Alcotest.(check int) "six 17-bit fields" 2 (words (Array.make 6 32768));
  Alcotest.(check int) "a zero cap is a lone guard bit" 1 (words [| 0; 0 |]);
  (* The widest field, cap max_int, fills a whole word (guard = sign bit). *)
  let p = Signature.packing [| max_int; 3 |] in
  Alcotest.(check int) "max_int cap" 2 p.Signature.words;
  let pack sg =
    let dst = Array.make p.Signature.words 0 in
    Signature.pack_into p sg dst ~pos:0;
    dst
  in
  let leq a b = Signature.packed_leq p (pack a) ~apos:0 (pack b) ~bpos:0 in
  Alcotest.(check bool) "max_int <= max_int" true (leq [| max_int; 3 |] [| max_int; 3 |]);
  Alcotest.(check bool) "max_int > max_int - 1" false
    (leq [| max_int; 0 |] [| max_int - 1; 0 |]);
  Alcotest.(check bool) "0 <= max_int" true (leq [| 0; 2 |] [| max_int; 2 |])

(* Random per-level caps (h in 1..6, caps up to 2^15 — layouts of one or
   two words) and random in-range signature pairs, the second a small
   perturbation of the first so both outcomes are common: the packed word
   test must equal the componentwise <= loop. *)
let gen_packing_case =
  let open QCheck2.Gen in
  let* h = int_range 1 6 in
  let* caps = array_size (return h) (oneof [ int_range 0 (1 lsl 15); return (1 lsl 15) ]) in
  let value cap = oneof [ return 0; return cap; int_range 0 cap ] in
  let* a = flatten_a (Array.map value caps) in
  let near j =
    let cap = caps.(j) and x = a.(j) in
    oneof [ return x; return (min cap (x + 1)); return (max 0 (x - 1)); int_range 0 cap ]
  in
  let* b = flatten_a (Array.init h near) in
  return (caps, a, b)

let prop_packed_leq =
  Test_support.qtest ~count:2000 "packed dominance test = componentwise <="
    gen_packing_case
    (fun (caps, a, b) ->
      let p = Signature.packing caps in
      let nw = p.Signature.words in
      (* Pack at non-zero offsets into shared rows, as the DP scan does. *)
      let buf = Array.make (1 + (2 * nw)) (-1) in
      Signature.pack_into p a buf ~pos:1;
      Signature.pack_into p b buf ~pos:(1 + nw);
      Signature.packed_leq p buf ~apos:1 buf ~bpos:(1 + nw) = Array.for_all2 ( <= ) a b
      && Signature.packed_leq p buf ~apos:(1 + nw) buf ~bpos:1 = Array.for_all2 ( <= ) b a)

let () =
  Alcotest.run "signature"
    [
      ( "unit",
        [
          Alcotest.test_case "encode decode" `Quick test_encode_decode;
          Alcotest.test_case "zero and leaf" `Quick test_zero_and_leaf;
          Alcotest.test_case "space size" `Quick test_space_size;
          Alcotest.test_case "count valid" `Quick test_count_valid;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "packing layout" `Quick test_packing_layout;
        ] );
      ( "property",
        [
          prop_roundtrip;
          prop_bucket_idempotent;
          prop_bucket_close;
          prop_keys_distinct;
          prop_packed_leq;
        ] );
    ]
