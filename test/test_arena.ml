module Arena = Hgp_util.Arena
module Workspace = Hgp_util.Workspace
module Prng = Hgp_util.Prng

(* ---- growable buffers ---- *)

let test_ibuf_growth () =
  let b = Arena.Ibuf.create ~capacity:2 () in
  for i = 0 to 99 do
    Arena.Ibuf.push b (i * 3)
  done;
  Alcotest.(check int) "length" 100 (Arena.Ibuf.length b);
  Alcotest.(check bool) "grew" true (Arena.Ibuf.grows b > 0);
  for i = 0 to 99 do
    if Arena.Ibuf.get b i <> i * 3 then Alcotest.failf "growth lost entry %d" i
  done;
  Arena.Ibuf.clear b;
  Alcotest.(check int) "cleared length" 0 (Arena.Ibuf.length b);
  Alcotest.(check bool) "capacity kept" true (Arena.Ibuf.capacity b >= 100)

let test_ibuf_alloc_segments () =
  let b = Arena.Ibuf.create ~capacity:4 () in
  let o1 = Arena.Ibuf.alloc b 5 in
  let o2 = Arena.Ibuf.alloc b 7 in
  Alcotest.(check int) "first segment at 0" 0 o1;
  Alcotest.(check int) "second segment after first" 5 o2;
  Alcotest.(check int) "length covers both" 12 (Arena.Ibuf.length b);
  let data = Arena.Ibuf.data b in
  for i = 0 to 11 do
    data.(i) <- 100 + i
  done;
  (* growing must preserve both segments *)
  let o3 = Arena.Ibuf.alloc b 100 in
  Alcotest.(check int) "third segment offset" 12 o3;
  let data = Arena.Ibuf.data b in
  for i = 0 to 11 do
    if data.(i) <> 100 + i then Alcotest.failf "segment entry %d lost across growth" i
  done

let test_fbuf_roundtrip () =
  let b = Arena.Fbuf.create ~capacity:1 () in
  for i = 0 to 49 do
    Arena.Fbuf.push b (float_of_int i /. 7.)
  done;
  for i = 0 to 49 do
    if not (Float.equal (Arena.Fbuf.get b i) (float_of_int i /. 7.)) then
      Alcotest.failf "fbuf entry %d" i
  done

(* ---- open-addressed table ---- *)

let test_table_probe_wraparound () =
  (* Fill a minimal table far enough that probes must wrap past the end of
     the slot array; every key must remain findable. *)
  let t = Arena.Table.create ~capacity:16 () in
  let keys = Array.init 200 (fun i -> (i * 7919) + 13) in
  Array.iteri (fun i k -> ignore (Arena.Table.upsert t k (float_of_int i) 0 0 0)) keys;
  Alcotest.(check int) "all distinct keys resident" 200 (Arena.Table.size t);
  Array.iteri
    (fun i k ->
      match Arena.Table.find_opt t k with
      | Some c when Float.equal c (float_of_int i) -> ()
      | Some c -> Alcotest.failf "key %d: cost %f, expected %d" k c i
      | None -> Alcotest.failf "key %d lost (probe/wraparound)" k)
    keys

let test_table_epoch_clear () =
  let t = Arena.Table.create () in
  for k = 0 to 40 do
    ignore (Arena.Table.upsert t k 1. 0 0 0)
  done;
  let cap_before = Arena.Table.capacity t in
  Arena.Table.clear t;
  Alcotest.(check int) "empty after clear" 0 (Arena.Table.size t);
  Alcotest.(check int) "capacity kept" cap_before (Arena.Table.capacity t);
  Alcotest.(check bool) "old keys gone" false (Arena.Table.mem t 3);
  (* stale slots from the previous epoch must not shadow fresh inserts *)
  Alcotest.(check bool) "reinsert is new" true (Arena.Table.upsert t 3 2. 1 1 1);
  Alcotest.(check (option (float 0.))) "fresh value" (Some 2.) (Arena.Table.find_opt t 3)

let test_table_growth_preserves_entries () =
  let t = Arena.Table.create ~capacity:16 () in
  let rng = Prng.create 42 in
  let inserted = Hashtbl.create 64 in
  for _ = 1 to 2000 do
    let k = Prng.int rng 10_000 in
    let c = float_of_int (Prng.int rng 1000) in
    ignore (Arena.Table.upsert t k c 0 0 0);
    (match Hashtbl.find_opt inserted k with
    | Some old when old <= c -> ()
    | _ -> Hashtbl.replace inserted k c)
  done;
  Alcotest.(check bool) "table grew" true (Arena.Table.grows t > 0);
  Alcotest.(check int) "size matches model" (Hashtbl.length inserted) (Arena.Table.size t);
  Hashtbl.iter
    (fun k c ->
      match Arena.Table.find_opt t k with
      | Some c' when Float.equal c c' -> ()
      | Some c' -> Alcotest.failf "key %d: %f <> model %f" k c' c
      | None -> Alcotest.failf "key %d lost across growth" k)
    inserted

let test_table_upsert_canonical_ties () =
  let t = Arena.Table.create () in
  Alcotest.(check bool) "first insert new" true (Arena.Table.upsert t 5 10. 3 3 3);
  Alcotest.(check bool) "higher cost not new" false (Arena.Table.upsert t 5 11. 1 1 1);
  Alcotest.(check (option (float 0.))) "kept min" (Some 10.) (Arena.Table.find_opt t 5);
  (* equal cost, smaller payload wins regardless of insertion order *)
  ignore (Arena.Table.upsert t 5 10. 2 9 9);
  ignore (Arena.Table.upsert t 5 10. 2 9 8);
  ignore (Arena.Table.upsert t 5 10. 4 0 0);
  let found = ref None in
  Arena.Table.iter t (fun k _ b1 b2 b3 -> if k = 5 then found := Some (b1, b2, b3));
  Alcotest.(check (option (triple int int int)))
    "canonical payload" (Some (2, 9, 8)) !found

(* The packed payload orders exactly as the triple does, field widths are
   enforced, and the extreme fields survive the round trip. *)
let test_table_pack_order_and_ranges () =
  let rng = Prng.create 99 in
  let a_max = (1 lsl Arena.Table.b_bits) - 1 and c_max = (1 lsl Arena.Table.c_bits) - 1 in
  let pick hi = if Prng.int rng 4 = 0 then hi - Prng.int rng 2 else Prng.int rng 5 in
  let pack (a, b, c) = Arena.Table.pack a b c in
  for _ = 1 to 5_000 do
    let x = (pick a_max, pick a_max, pick c_max) and y = (pick a_max, pick a_max, pick c_max) in
    let px = pack x and py = pack y in
    Alcotest.(check bool) "non-negative" true (px >= 0 && py >= 0);
    Alcotest.(check int) "int order = lexicographic order" (compare x y) (compare px py)
  done;
  let t = Arena.Table.create () in
  ignore (Arena.Table.upsert t 1 0. a_max a_max c_max);
  Arena.Table.iter t (fun _ _ a b c ->
      Alcotest.(check (triple int int int)) "extremes round-trip" (a_max, a_max, c_max) (a, b, c));
  List.iter
    (fun ((a, b, c) as x) ->
      match pack x with
      | _ -> Alcotest.failf "(%d, %d, %d) packed" a b c
      | exception Invalid_argument _ -> ())
    [ (a_max + 1, 0, 0); (0, a_max + 1, 0); (0, 0, c_max + 1); (-1, 0, 0); (0, -1, 0); (0, 0, -1) ];
  match Arena.Table.upsert t 2 0. 0 0 (c_max + 1) with
  | _ -> Alcotest.fail "upsert accepted an unpackable payload"
  | exception Invalid_argument _ -> ()

(* Canonical upsert rule as a Hashtbl model: minimum cost per key, exact
   cost ties won by the lexicographically smallest (b1, b2, b3) payload. *)
let model_upsert model k c b =
  match Hashtbl.find_opt model k with
  | Some (c', b') when c' < c || (c' = c && b' <= b) -> ()
  | _ -> Hashtbl.replace model k (c, b)

let check_against_model tag t model =
  Alcotest.(check int) (tag ^ ": size") (Hashtbl.length model) (Arena.Table.size t);
  let seen = ref 0 in
  Arena.Table.iter t (fun k c b1 b2 b3 ->
      incr seen;
      match Hashtbl.find_opt model k with
      | Some (c', b') when Float.equal c c' && b' = (b1, b2, b3) -> ()
      | Some _ -> Alcotest.failf "%s: key %d has the wrong cost or payload" tag k
      | None -> Alcotest.failf "%s: iter returned stale key %d" tag k);
  Alcotest.(check int) (tag ^ ": iter visits") (Hashtbl.length model) !seen

let test_table_grow_under_bounded_mask () =
  let t = Arena.Table.create ~capacity:1024 () in
  Arena.Table.clear_bounded t 3;
  Alcotest.(check int) "narrowed to 2*(3+1)" 16 (Arena.Table.capacity t);
  (* Under-state the bound: 100 inserts into a table sized for 3. *)
  for k = 0 to 99 do
    ignore (Arena.Table.upsert t (k * 31) 1. 0 0 0)
  done;
  Alcotest.(check bool) "grew" true (Arena.Table.grows t > 0);
  Alcotest.(check int) "all resident" 100 (Arena.Table.size t);
  Arena.Table.clear t;
  let phys = Arena.Table.capacity t in
  Alcotest.(check bool) "growth kept the physical length" true (phys >= 1024);
  Arena.Table.clear_bounded t 1_000_000;
  Alcotest.(check int) "bound capped at the physical length" phys
    (Arena.Table.capacity t);
  (* Growth at full width still doubles. *)
  for k = 0 to phys do
    ignore (Arena.Table.upsert t (k * 17) 1. 0 0 0)
  done;
  Alcotest.(check bool) "full-width growth doubles" true
    (Arena.Table.capacity t >= 2 * phys)

(* Random shrink -> grow -> shrink rounds of [clear_bounded] + [upsert],
   checked against the Hashtbl model after every round.  Some rounds
   under-state their bound so growth happens under a narrowed mask. *)
let test_table_bounded_rounds_match_model () =
  let rng = Prng.create 2024 in
  let t = Arena.Table.create ~capacity:64 () in
  for round = 0 to 59 do
    let bound, inserts =
      match round mod 3 with
      | 0 -> (1 + Prng.int rng 8, 1 + Prng.int rng 8) (* shrink *)
      | 1 -> (1 + Prng.int rng 4, 50 + Prng.int rng 400) (* grow past it *)
      | _ -> (Prng.int rng 3, Prng.int rng 3) (* shrink again *)
    in
    Arena.Table.clear_bounded t bound;
    let model = Hashtbl.create 64 in
    for _ = 1 to inserts do
      let k = Prng.int rng 300 in
      let c = float_of_int (Prng.int rng 4) in
      let b = (Prng.int rng 3, Prng.int rng 3, Prng.int rng 3) in
      let b1, b2, b3 = b in
      let fresh = Arena.Table.upsert t k c b1 b2 b3 in
      if fresh = Hashtbl.mem model k then
        Alcotest.failf "round %d: upsert of %d misreported novelty" round k;
      model_upsert model k c b
    done;
    check_against_model (Printf.sprintf "round %d" round) t model
  done

let test_table_scans_current_epoch_after_shrink () =
  let t = Arena.Table.create ~capacity:256 () in
  for k = 0 to 99 do
    ignore (Arena.Table.upsert t k 5. 0 0 0)
  done;
  Arena.Table.clear_bounded t 2;
  ignore (Arena.Table.upsert t 1000 1. 1 2 3);
  ignore (Arena.Table.upsert t 7 2. 0 0 0);
  let model = Hashtbl.create 4 in
  model_upsert model 1000 1. (1, 2, 3);
  model_upsert model 7 2. (0, 0, 0);
  check_against_model "narrowed" t model;
  Alcotest.(check int) "fold_slots counts current epoch only" 2
    (Arena.Table.fold_slots t (fun n _ _ _ _ _ -> n + 1) 0);
  (* Widening again must not resurrect the first epoch's slots. *)
  Arena.Table.clear t;
  check_against_model "widened" t (Hashtbl.create 1);
  Alcotest.(check bool) "old key gone" false (Arena.Table.mem t 50)

(* ---- permutation heap / block sorts ---- *)

(* Pops [count] entries from a min-heap over [0 .. len-1]; returns them in
   pop order and checks each landed in the freed tail slot. *)
let pop_prefix perm len count costs keys =
  Array.iteri (fun i _ -> perm.(i) <- i) perm;
  Arena.heapify_perm_min perm len costs keys;
  List.init count (fun k ->
      let e = Arena.pop_perm_min perm (len - k) costs keys in
      if perm.(len - 1 - k) <> e then Alcotest.failf "pop %d not stored in tail slot" k;
      e)

let test_heap_perm_by_cost_key () =
  let costs = [| 3.; 1.; 3.; 0.; 1. |] in
  let keys = [| 9; 4; 2; 7; 1 |] in
  let perm = Array.make 5 0 in
  (* (0.,7) (1.,1) (1.,4) (3.,2) (3.,9) *)
  Alcotest.(check (list int)) "popped by (cost,key)" [ 3; 4; 1; 2; 0 ]
    (pop_prefix perm 5 5 costs keys);
  Alcotest.(check (array int)) "sorted from the tail" [| 0; 2; 1; 4; 3 |] perm;
  (* A partial pop of a larger heap with many cost ties is the prefix of
     the full (cost, key) sort. *)
  let rng = Prng.create 11 in
  let len = 300 in
  let costs = Array.init len (fun _ -> float_of_int (Prng.int rng 6)) in
  let keys = Array.init len (fun i -> (i * 7919) mod 10_007) in
  let sorted =
    List.sort (fun i j -> compare (costs.(i), keys.(i)) (costs.(j), keys.(j)))
      (List.init len Fun.id)
  in
  Alcotest.(check (list int)) "lazy prefix = full sort prefix"
    (List.filteri (fun k _ -> k < 40) sorted)
    (pop_prefix (Array.make len 0) len 40 costs keys)

(* ---- workspace pooling ---- *)

let test_workspace_reuse_and_nesting () =
  let l1 = Workspace.acquire () in
  let outer_ws = l1.Workspace.workspace in
  (* nested acquire on the same domain must hand out a DIFFERENT workspace *)
  let l2 = Workspace.acquire () in
  Alcotest.(check bool) "nested acquire is transient" true
    (l2.Workspace.workspace != outer_ws);
  Workspace.release l2;
  Workspace.release l1;
  (* after release, the resident workspace is handed out again *)
  let l3 = Workspace.acquire () in
  Alcotest.(check bool) "resident workspace reused" true
    (l3.Workspace.workspace == outer_ws);
  Workspace.release l3

let test_workspace_note_use () =
  let ws = Workspace.create () in
  Alcotest.(check bool) "first use is not a reuse" false (Workspace.note_use ws);
  Alcotest.(check bool) "second use is a reuse" true (Workspace.note_use ws)

let test_workspace_grows_accumulates () =
  let ws = Workspace.create () in
  let g0 = Workspace.grows ws in
  for i = 0 to 5000 do
    Arena.Ibuf.push ws.Workspace.node_keys i
  done;
  Alcotest.(check bool) "member growth counted" true (Workspace.grows ws > g0);
  Workspace.reset ws;
  Alcotest.(check int) "reset clears lengths" 0
    (Arena.Ibuf.length ws.Workspace.node_keys);
  Alcotest.(check bool) "reset keeps grow count" true (Workspace.grows ws > g0)

let () =
  Alcotest.run "arena"
    [
      ( "buffers",
        [
          Alcotest.test_case "ibuf growth preserves entries" `Quick test_ibuf_growth;
          Alcotest.test_case "segment alloc" `Quick test_ibuf_alloc_segments;
          Alcotest.test_case "fbuf roundtrip" `Quick test_fbuf_roundtrip;
        ] );
      ( "table",
        [
          Alcotest.test_case "probe wraparound" `Quick test_table_probe_wraparound;
          Alcotest.test_case "epoch clear" `Quick test_table_epoch_clear;
          Alcotest.test_case "growth preserves entries" `Quick
            test_table_growth_preserves_entries;
          Alcotest.test_case "canonical tie-break" `Quick test_table_upsert_canonical_ties;
          Alcotest.test_case "packed payload order and ranges" `Quick
            test_table_pack_order_and_ranges;
          Alcotest.test_case "grow under a bounded mask" `Quick
            test_table_grow_under_bounded_mask;
          Alcotest.test_case "bounded rounds match model" `Quick
            test_table_bounded_rounds_match_model;
          Alcotest.test_case "scans current epoch after shrink" `Quick
            test_table_scans_current_epoch_after_shrink;
        ] );
      ( "sorts",
        [
          Alcotest.test_case "perm by (cost,key)" `Quick test_heap_perm_by_cost_key;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "reuse and nesting" `Quick test_workspace_reuse_and_nesting;
          Alcotest.test_case "note_use" `Quick test_workspace_note_use;
          Alcotest.test_case "grows accumulates" `Quick test_workspace_grows_accumulates;
        ] );
    ]
