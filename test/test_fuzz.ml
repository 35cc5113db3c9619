(* Seeded mutation fuzzing of the text readers: METIS graphs, instance
   files, delta files and JSON request lines.  Each valid seed text is
   mutated (byte flips, truncation, duplicated or deleted lines, huge and
   negative numbers, CRLF line ends, tabs) a fixed number of times.  A
   mutant must either parse or raise [Hgp_error.Error] with exit code 65;
   [Protocol.parse_any] must answer [Ok] or [Error], and a solve request it
   accepts must resolve to an instance or a structured input error.  No
   other exception may escape. *)

module Graph = Hgp_graph.Graph
module Io = Hgp_graph.Io
module H = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Instance_io = Hgp_core.Instance_io
module Delta = Hgp_core.Delta
module Protocol = Hgp_server.Protocol
module E = Hgp_resilience.Hgp_error
module Prng = Hgp_util.Prng

let mutants_per_seed = 1000

(* A disconnected graph: two components and two isolated vertices. *)
let disconnected = Graph.of_edges 7 [ (0, 1, 1.5); (1, 2, 2.); (3, 4, 0.25) ]
let connected = Graph.of_edges 5 [ (0, 1, 1.); (1, 2, 3.); (2, 3, 0.5); (3, 4, 2.); (0, 4, 1.) ]

let instance g hierarchy =
  Instance.create g ~demands:(Array.make (Graph.n g) 0.25) hierarchy

let regular = H.create ~degs:[| 2; 2 |] ~cm:[| 10.; 3.; 0. |] ~leaf_capacity:1.0

let seeds_metis =
  [ Io.to_string connected; Io.to_string disconnected; "% comment\n3 2\n2 3\n1\n1\n" ]

let seeds_instance =
  [
    Instance_io.to_string (instance connected regular);
    Instance_io.to_string (instance disconnected regular);
    Instance_io.to_string (instance connected H.Presets.ragged_rack);
  ]

let seeds_delta =
  [
    Delta.to_string
      [
        Delta.Reweight_edge (0, 1, 2.5);
        Delta.Add_edge (2, 4, 0.125);
        Delta.Remove_edge (1, 2);
        Delta.Add_vertex (0.75, [ (0, 1.5); (3, 2.) ]);
        Delta.Remove_vertex 2;
      ];
  ]

let seeds_request =
  let inst = instance connected regular in
  [
    Protocol.request_to_line
      (Protocol.inline_request ~id:"r1" ~trees:2 ~seed:5 ~deadline_ms:50. inst);
    Protocol.update_to_line
      (Protocol.update_request ~id:"u1" ~session:"s1" (List.nth seeds_delta 0));
  ]

(* ---- mutations ---- *)

let lines s = Array.of_list (String.split_on_char '\n' s)
let unlines a = String.concat "\n" (Array.to_list a)
let alphabet = "0123456789-+.eE x%#\t\r\n,@[]\"{}:abcz"

let numbers =
  [| "99999999999999999999"; "4611686018427387904"; "1e308"; "1e400"; "-1"; "-7.5"; "0"; "nan" |]

(* Replace one maximal run of digits (with its sign and fraction). *)
let replace_number rng s =
  let is_num c = (c >= '0' && c <= '9') || c = '.' || c = '-' in
  let starts = ref [] in
  String.iteri
    (fun i c -> if is_num c && (i = 0 || not (is_num s.[i - 1])) then starts := i :: !starts)
    s;
  match !starts with
  | [] -> s
  | l ->
    let a = Array.of_list l in
    let i = Prng.choose rng a in
    let j = ref i in
    while !j < String.length s && is_num s.[!j] do
      incr j
    done;
    String.sub s 0 i ^ Prng.choose rng numbers ^ String.sub s !j (String.length s - !j)

let mutate rng s =
  let n = String.length s in
  match Prng.int rng 7 with
  | 0 when n > 0 ->
    let b = Bytes.of_string s in
    let c =
      if Prng.bool rng then alphabet.[Prng.int rng (String.length alphabet)]
      else Char.chr (Prng.int rng 256)
    in
    Bytes.set b (Prng.int rng n) c;
    Bytes.to_string b
  | 1 -> String.sub s 0 (Prng.int rng (n + 1))
  | 2 ->
    let a = lines s in
    let i = Prng.int rng (Array.length a) in
    unlines (Array.concat [ Array.sub a 0 (i + 1); [| a.(i) |]; Array.sub a (i + 1) (Array.length a - i - 1) ])
  | 3 ->
    let a = lines s in
    let i = Prng.int rng (Array.length a) in
    unlines (Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (Array.length a - i - 1)))
  | 4 -> replace_number rng s
  | 5 -> String.concat "\r\n" (String.split_on_char '\n' s)
  | _ -> String.map (fun c -> if c = ' ' && Prng.bool rng then '\t' else c) s

let mutants rng seed =
  List.init mutants_per_seed (fun _ ->
      let rec go k s = if k = 0 then s else go (k - 1) (mutate rng s) in
      go (1 + Prng.int rng 3) seed)

(* ---- checks ---- *)

(* The generator must reach both outcomes, or the suite shows nothing. *)
let check_reader name parse seeds () =
  let rng = Prng.create (String.length name) in
  let parsed = ref 0 and refused = ref 0 in
  List.iter
    (fun seed ->
      ignore (parse seed);
      List.iter
        (fun text ->
          match parse text with
          | _ -> incr parsed
          | exception E.Error e when E.exit_code e = 65 -> incr refused
          | exception exn ->
            Alcotest.failf "%s: mutant %S raised %s" name text (Printexc.to_string exn))
        (mutants rng seed))
    seeds;
  Alcotest.(check bool) (Printf.sprintf "%s: %d parsed, %d refused" name !parsed !refused) true
    (!parsed > 0 && !refused > 0)

let check_requests () =
  let rng = Prng.create 17 in
  List.iter
    (fun seed ->
      List.iter
        (fun line ->
          match Protocol.parse_any line with
          | Error _ | Ok (Protocol.Update _) -> ()
          | Ok (Protocol.Solve r) -> (
            match Protocol.resolve r with
            | Ok _ -> ()
            | Error e when E.exit_code e = 65 || E.exit_code e = 66 -> ()
            | Error e -> Alcotest.failf "request %S resolved to %s" line (E.to_string e))
          | exception exn ->
            Alcotest.failf "parse_any: mutant %S raised %s" line (Printexc.to_string exn))
        (mutants rng seed))
    seeds_request

let test_disconnected_parses () =
  let g = Io.of_string (Io.to_string disconnected) in
  Alcotest.(check int) "n" 7 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g);
  let inst = Instance_io.of_string (Instance_io.to_string (instance disconnected regular)) in
  Alcotest.(check int) "instance n" 7 (Instance.n inst)

(* A hierarchy spec too large to build is refused before anything is
   allocated: by the spec parser, and as a structured exit-65 error when it
   is an instance file's hierarchy line. *)
let mentions hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_oversized_hierarchies () =
  let regular_text = Instance_io.to_string (instance connected regular) in
  let with_hierarchy spec =
    lines regular_text
    |> Array.map (fun l ->
           if String.starts_with ~prefix:"hierarchy " l then "hierarchy " ^ spec else l)
    |> unlines
  in
  List.iter
    (fun (what, spec) ->
      (match Hgp_hierarchy.Topology.parse_result spec with
      | Ok _ -> Alcotest.failf "%s: spec accepted" what
      | Error msg ->
        Alcotest.(check bool) (what ^ ": names the limit") true
          (mentions msg "hierarchy too large"));
      match Instance_io.of_string (with_hierarchy spec) with
      | _ -> Alcotest.failf "%s: instance accepted" what
      | exception E.Error e -> Alcotest.(check int) (what ^ ": exit code") 65 (E.exit_code e))
    [
      ("regular 100000x100000", Test_support.huge_regular_spec);
      ("ragged chain", Test_support.deep_chain_spec ());
    ]

let () =
  Alcotest.run "fuzz"
    [
      ( "mutants",
        [
          Alcotest.test_case "METIS" `Quick (check_reader "metis" Io.of_string seeds_metis);
          Alcotest.test_case "%hgp-instance" `Quick
            (check_reader "instance" Instance_io.of_string seeds_instance);
          Alcotest.test_case "%hgp-delta" `Quick (check_reader "delta" Delta.of_string seeds_delta);
          Alcotest.test_case "request lines" `Quick check_requests;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "disconnected graph parses" `Quick test_disconnected_parses;
          Alcotest.test_case "oversized hierarchies are input errors" `Quick
            test_oversized_hierarchies;
        ] );
    ]
