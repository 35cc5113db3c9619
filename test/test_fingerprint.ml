(* The FNV-1a content fingerprint behind every cache key.

   - pinned values: each [add_*] over empty input, negatives,
     [max_int]/[min_int], [-0.], [nan] and [infinity], recorded from the
     per-element closure implementation the array loops replaced — a change
     here would silently re-key every cache;
   - the array and string loops agree with a byte-wise reference
     ([Test_support.Fingerprint_reference]) on random input;
   - hashing an array allocates nothing per element. *)

module F = Hgp_util.Fingerprint
module Ref = Test_support.Fingerprint_reference

let nan = Int64.float_of_bits 0x7ff8000000000000L

let pinned =
  let h f = F.to_hex (f F.seed) in
  [
    ("add_int 0", h (fun s -> F.add_int s 0), "529a2cdc8ff533ac");
    ("add_int -1", h (fun s -> F.add_int s (-1)), "685cd83ad34b3424");
    ("add_int max_int", h (fun s -> F.add_int s max_int), "685d183ad34ba0e4");
    ("add_int min_int", h (fun s -> F.add_int s min_int), "5299ecdc8ff4c6ec");
    ("add_float 0.", h (fun s -> F.add_float s 0.), "0cd92cf54dc615e5");
    ("add_float -0.", h (fun s -> F.add_float s (-0.)), "0cd9acf54dc6ef65");
    ("add_float nan", h (fun s -> F.add_float s nan), "0dcd9df54e958e60");
    ("add_float infinity", h (fun s -> F.add_float s infinity), "0de89df54eac5618");
    ("add_float -2.5", h (fun s -> F.add_float s (-2.5)), "0ccc54f54dbbcf81");
    ("add_string \"\"", h (fun s -> F.add_string s ""), "985b2cc3d2245173");
    ("add_string csr", h (fun s -> F.add_string s "csr"), "45abc172332c6c54");
    ("add_string bytes", h (fun s -> F.add_string s "\xff\x00\x80"), "78d0217494706c25");
    ("add_int_array [||]", h (fun s -> F.add_int_array s [||]), "04f0d7663d895b60");
    ( "add_int_array negatives",
      h (fun s -> F.add_int_array s [| -1; -2; -1000000007 |]),
      "720bceef32c170e9" );
    ( "add_int_array extremes",
      h (fun s -> F.add_int_array s [| max_int; min_int; 0 |]),
      "b752312d50da47db" );
    ("add_float_array [||]", h (fun s -> F.add_float_array s [||]), "bf2fd77efb5a3d99");
    ( "add_float_array specials",
      h (fun s -> F.add_float_array s [| -0.; nan; infinity; neg_infinity; -1.5 |]),
      "78ed91c0ac17192c" );
    ( "chained",
      h (fun s -> F.add_float_array (F.add_int_array (F.add_string s "x") [| 3 |]) [| 0.25 |]),
      "72f5b9ea440c50bf" );
  ]

let test_pinned () =
  List.iter (fun (name, got, want) -> Alcotest.(check string) name want got) pinned

(* ---- agreement with the byte-wise reference ---- *)

let gen_int =
  QCheck2.Gen.(oneof [ int; pure max_int; pure min_int; pure 0; pure (-1); small_signed_int ])

let gen_float =
  QCheck2.Gen.(
    oneof
      [ float; pure (-0.); pure nan; pure infinity; pure neg_infinity; float_range (-1e3) 1e3 ])

let gen_seed = QCheck2.Gen.(map Int64.of_int int)

let same_as name gen lib reference =
  Test_support.qtest ~count:300 name
    QCheck2.Gen.(pair gen_seed gen)
    (fun (h, x) -> Int64.equal (lib h x) (reference h x))

let props =
  [
    same_as "add_int_array = byte-wise" QCheck2.Gen.(array gen_int) F.add_int_array
      Ref.int_array;
    same_as "add_float_array = byte-wise" QCheck2.Gen.(array gen_float) F.add_float_array
      Ref.float_array;
    same_as "add_string = byte-wise" QCheck2.Gen.string F.add_string Ref.string;
    same_as "add_int = byte-wise" gen_int F.add_int Ref.int;
    same_as "add_float = byte-wise" gen_float F.add_float Ref.float;
  ]

(* ---- allocation ----

   The loops keep the running hash unboxed, so digesting 100 000 elements
   allocates exactly what digesting ten does (the boxed result). *)
let allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  f ();
  Gc.allocated_bytes () -. before

let test_arrays_do_not_allocate () =
  let ints n = Array.init n (fun i -> (i * 7919) - 50_000) in
  let floats n = Array.init n (fun i -> float_of_int i *. 0.37) in
  let si = ints 10 and li = ints 100_000 and sf = floats 10 and lf = floats 100_000 in
  Alcotest.(check (float 0.)) "add_int_array: 10 vs 100 000"
    (allocated (fun () -> ignore (F.add_int_array F.seed si)))
    (allocated (fun () -> ignore (F.add_int_array F.seed li)));
  Alcotest.(check (float 0.)) "add_float_array: 10 vs 100 000"
    (allocated (fun () -> ignore (F.add_float_array F.seed sf)))
    (allocated (fun () -> ignore (F.add_float_array F.seed lf)))

let () =
  Alcotest.run "fingerprint"
    [
      ( "unit",
        [
          Alcotest.test_case "pinned values" `Quick test_pinned;
          Alcotest.test_case "arrays do not allocate" `Quick test_arrays_do_not_allocate;
        ] );
      ("property", props);
    ]
