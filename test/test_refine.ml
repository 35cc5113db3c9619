(* Refinement test layer.

   The FM and greedy engines are pinned two ways.  A differential runs them
   against the reference engines in [Test_support.Refine_reference] (the
   list-and-Hashtbl implementation the flat kernel replaced) and demands
   the same moves bit for bit.  Structural properties on the observable
   event stream pin what the reference itself must satisfy:

   - gain queue: a model test against the documented contract (highest
     bucket first, FIFO within a bucket, exact bucket indices, negative
     gains, requeue after a pop);
   - gain exactness: every reported move gain equals the recomputed cost
     delta on a shadow assignment, across arbitrary interleavings of moves,
     lazy updates and rollbacks;
   - band legality: after EVERY event (including mid-rollback states) the
     shadow assignment stays inside the slack band on every hierarchy node —
     regular and ragged trees alike — which is the invariant the certified
     (1+eps)(1+h) argument needs;
   - incremental boundary: the boundary flags the engine maintains in O(deg)
     per move match the brute O(n + m) recomputation after every event;
   - best-prefix rollback: in a single hill-climbing pass the kept prefix is
     the earliest maximum of the cumulative-gain sequence, undone strictly
     LIFO;
   - positive-only FM vs greedy: the V-cycle stacks FM on the greedy fixed
     point (Vcycle's refine dispatch), so with hill-climbing disabled the
     composite can never end worse than greedy; 120 seeded instances pin
     that construction — and that hill-climbing keeps the dominance while
     escaping greedy's local minimum. *)

module Graph = Hgp_graph.Graph
module Csr = Hgp_graph.Csr
module Gen = Hgp_graph.Generators
module Prng = Hgp_util.Prng
module Hierarchy = Hgp_hierarchy.Hierarchy
module Refine = Hgp_multilevel.Refine

(* ---- helpers ---- *)

(* Demands small enough that several vertices fit on any leaf, so the band
   actually admits moves. *)
let csr_of rng g hy =
  let n = Graph.n g in
  let dmax = Hierarchy.min_leaf_capacity hy in
  let vwgt = Array.init n (fun _ -> dmax *. (0.05 +. Prng.float rng 0.2)) in
  Csr.of_graph ~vwgt g

(* Smallest multiplier under which [assignment] fits every node's capacity:
   random assignments ignore capacities, so each case derives the slack that
   makes its own starting point band-feasible — exactly how the V-cycle's
   certified bound relates to the projected assignment. *)
let min_slack csr hy assignment =
  let h = Hierarchy.height hy in
  let worst = ref 1.0 in
  for j = 1 to h do
    let loads = Array.make (Hierarchy.nodes_at_level hy j) 0. in
    for v = 0 to Csr.n csr - 1 do
      let a = Hierarchy.ancestor hy ~level:j assignment.(v) in
      loads.(a) <- loads.(a) +. Csr.vertex_weight csr v
    done;
    Array.iteri
      (fun i load -> worst := Float.max !worst (load /. Hierarchy.capacity_of hy ~level:j i))
      loads
  done;
  !worst

let slack_for csr hy assignment = (min_slack csr hy assignment *. 1.25) +. 0.01

(* ---- bucket queue model ---- *)

(* A script of queue operations: pushes (negative gains included), pops,
   and requeues — pop the front entry and push it back at a new gain, the
   FM engine's move when the band shrank under an entry. *)
type bq_op = Push of float | Pop | Requeue of float

let gen_bucketq_case =
  let open QCheck2.Gen in
  let* quantum = float_range 0.001 10.0 in
  let gain = float_range (-50.) 50. in
  let* gains = list_size (int_range 0 40) gain in
  let* script =
    list_size (int_range 0 60)
      (frequency
         [ (3, map (fun g -> Push g) gain); (2, pure Pop); (1, map (fun g -> Requeue g) gain) ])
  in
  return (quantum, gains, script)

let pop_entry bq =
  if Refine.Bucketq.pop bq then
    Some (Refine.Bucketq.bucket bq, (Refine.Bucketq.vertex bq, Refine.Bucketq.stamp bq))
  else None

let prop_bucketq (quantum, gains, script) =
  let bq = Refine.Bucketq.create ~quantum in
  List.iteri (fun i g -> Refine.Bucketq.push bq ~gain:g i (-i)) gains;
  let n = List.length gains in
  if Refine.Bucketq.length bq <> n then QCheck2.Test.fail_report "length after pushes";
  let gains = Array.of_list gains in
  let pops = ref [] in
  let rec drain () =
    match pop_entry bq with
    | None -> ()
    | Some (bucket, (id, st)) ->
      if st <> -id then QCheck2.Test.fail_reportf "id %d came back with stamp %d" id st;
      pops := (bucket, id) :: !pops;
      drain ()
  in
  drain ();
  let pops = Array.of_list (List.rev !pops) in
  if Array.length pops <> n then QCheck2.Test.fail_report "pop count";
  if Refine.Bucketq.length bq <> 0 then QCheck2.Test.fail_report "length after drain";
  Array.iteri
    (fun i (bucket, id) ->
      (* Exact bucket: an entry comes out of floor (gain / quantum). *)
      if bucket <> Refine.Bucketq.index_of bq gains.(id) then
        QCheck2.Test.fail_reportf "pop %d: bucket %d but index_of says %d" i bucket
          (Refine.Bucketq.index_of bq gains.(id));
      (* Highest bucket first. *)
      if i > 0 then begin
        let prev, _ = pops.(i - 1) in
        if bucket > prev then QCheck2.Test.fail_reportf "pop %d: bucket order violated" i
      end)
    pops;
  (* FIFO within a bucket: ids sharing a bucket come out in push order. *)
  let last_id = Hashtbl.create 8 in
  Array.iter
    (fun (bucket, id) ->
      (match Hashtbl.find_opt last_id bucket with
      | Some prev when prev > id ->
        QCheck2.Test.fail_reportf "bucket %d: id %d popped after %d" bucket id prev
      | _ -> ());
      Hashtbl.replace last_id bucket id)
    pops;
  (* Interleaved pushes, pops and requeues against a list model: the front
     is the highest bucket, and within it the earliest push. *)
  let model = ref [] and seq = ref 0 and next_id = ref 0 in
  let model_push gain id st =
    model := (Refine.Bucketq.index_of bq gain, !seq, id, st) :: !model;
    incr seq;
    Refine.Bucketq.push bq ~gain id st
  in
  let model_pop () =
    match !model with
    | [] -> None
    | e0 :: _ ->
      let front =
        List.fold_left
          (fun ((b, s, _, _) as best) ((b', s', _, _) as e) ->
            if b' > b || (b' = b && s' < s) then e else best)
          e0 !model
      in
      model := List.filter (fun e -> e != front) !model;
      let b, _, id, st = front in
      Some (b, (id, st))
  in
  let check_pop what =
    let got = pop_entry bq and want = model_pop () in
    if got <> want then QCheck2.Test.fail_reportf "%s: queue and model disagree" what;
    got
  in
  List.iter
    (function
      | Push g ->
        model_push g !next_id (7 * !next_id);
        incr next_id
      | Pop -> ignore (check_pop "pop")
      | Requeue g -> (
        match check_pop "requeue" with
        | Some (_, (id, st)) -> model_push g id st
        | None -> ()))
    script;
  if Refine.Bucketq.length bq <> List.length !model then
    QCheck2.Test.fail_report "length after script";
  while check_pop "final drain" <> None do
    ()
  done;
  (* clear resets to a working empty queue. *)
  Refine.Bucketq.push bq ~gain:1.0 0 0;
  Refine.Bucketq.clear bq;
  if Refine.Bucketq.pop bq then QCheck2.Test.fail_report "pop after clear";
  Refine.Bucketq.push bq ~gain:(-3.0) 5 9;
  if pop_entry bq <> Some (Refine.Bucketq.index_of bq (-3.0), (5, 9)) then
    QCheck2.Test.fail_report "push after clear";
  true

(* ---- FM event-stream properties ---- *)

(* Shared harness: run [refine_fm] with an observer that replays every event
   on a shadow assignment and checks gain exactness, band legality and
   boundary-flag equality at each step; returns the data the individual
   properties then assert on. *)
type harness = {
  initial_cost : float;
  final_cost : float;
  result : int array;
  shadow : int array;
  stats : Refine.stats;
  events : Refine.move list;  (** in emission order *)
}

let run_harness ?(max_passes = 3) csr hy a0 ~hill_climb ~slack =
  let shadow = Array.copy a0 in
  let shadow_cost = ref (Refine.cost csr hy shadow) in
  let events = ref [] in
  let applied = ref [] in
  let observe (mv : Refine.move) flags =
    events := mv :: !events;
    if shadow.(mv.Refine.vertex) <> mv.Refine.src then
      Alcotest.failf "event for vertex %d: shadow on %d, event says src %d" mv.Refine.vertex
        shadow.(mv.Refine.vertex) mv.Refine.src;
    shadow.(mv.Refine.vertex) <- mv.Refine.dst;
    (* Gain exactness: the engine's incremental bookkeeping vs the full
       objective recomputation. *)
    let c = Refine.cost csr hy shadow in
    Test_support.check_close ~eps:1e-6 "move gain = recomputed cost delta"
      mv.Refine.move_gain (!shadow_cost -. c);
    shadow_cost := c;
    (* Band legality of every intermediate state. *)
    if not (Refine.in_band csr hy shadow ~slack) then
      Alcotest.failf "vertex %d -> %d pushed some node out of band" mv.Refine.vertex
        mv.Refine.dst;
    (* Incremental boundary flags vs brute recomputation. *)
    let brute = Refine.boundary csr shadow in
    Array.iteri
      (fun v b ->
        if b <> brute.(v) then
          Alcotest.failf "boundary flag of %d diverged from brute recomputation" v)
      flags;
    (* Rollbacks undo applied moves strictly LIFO. *)
    if mv.Refine.undo then begin
      match !applied with
      | [] -> Alcotest.fail "undo with no live applied move"
      | (top : Refine.move) :: rest ->
        if
          top.Refine.vertex <> mv.Refine.vertex
          || top.Refine.src <> mv.Refine.dst
          || top.Refine.dst <> mv.Refine.src
        then Alcotest.failf "undo of vertex %d is not LIFO" mv.Refine.vertex;
        Test_support.check_close ~eps:1e-9 "undo gain negates the application"
          (-.top.Refine.move_gain) mv.Refine.move_gain;
        applied := rest
    end
    else applied := mv :: !applied
  in
  let initial_cost = Refine.cost csr hy a0 in
  let result, stats = Refine.refine_fm csr hy a0 ~slack ~max_passes ~hill_climb ~observe () in
  {
    initial_cost;
    final_cost = Refine.cost csr hy result;
    result;
    shadow;
    stats;
    events = List.rev !events;
  }

let gen_fm_case hy_gen =
  let open QCheck2.Gen in
  let* g = Test_support.gen_graph ~max_n:14 () in
  let* hy = hy_gen in
  let* a0 = Test_support.gen_assignment (Graph.n g) hy in
  let* hill_climb = bool in
  let* dseed = int_bound 1_000_000 in
  return (g, hy, a0, hill_climb, dseed)

let prop_fm_events (g, hy, a0, hill_climb, dseed) =
  let csr = csr_of (Prng.create dseed) g hy in
  let slack = slack_for csr hy a0 in
  let h = run_harness csr hy a0 ~hill_climb ~slack in
  (* The observer replayed exactly the engine's state evolution. *)
  if h.result <> h.shadow then QCheck2.Test.fail_report "result <> event replay";
  let applies = List.filter (fun (m : Refine.move) -> not m.Refine.undo) h.events in
  let undos = List.filter (fun (m : Refine.move) -> m.Refine.undo) h.events in
  if h.stats.Refine.moves <> List.length applies then
    QCheck2.Test.fail_report "stats.moves <> applied events";
  if h.stats.Refine.rollbacks <> List.length undos then
    QCheck2.Test.fail_report "stats.rollbacks <> undo events";
  if (not hill_climb) && h.stats.Refine.rollbacks <> 0 then
    QCheck2.Test.fail_report "positive-only mode rolled back";
  (* A pass never makes things worse, and stats.gain is the true total. *)
  Test_support.check_close ~eps:1e-6 "stats.gain = initial - final" h.stats.Refine.gain
    (h.initial_cost -. h.final_cost);
  if h.final_cost > h.initial_cost +. 1e-9 then
    QCheck2.Test.fail_report "refinement increased the cost";
  (* Determinism: the engine is seed-free, so a rerun is bit-identical. *)
  let again, stats2 =
    Refine.refine_fm csr hy a0 ~slack ~max_passes:3 ~hill_climb ()
  in
  if again <> h.result || stats2 <> h.stats then
    QCheck2.Test.fail_report "refine_fm is not deterministic";
  true

(* Best-prefix rollback, isolated to a single pass so the event stream is
   unambiguous: applies (in order), then the rolled-back tail. *)
let prop_best_prefix (g, hy, a0, _hill, dseed) =
  let csr = csr_of (Prng.create dseed) g hy in
  let slack = slack_for csr hy a0 in
  let h = run_harness ~max_passes:1 csr hy a0 ~hill_climb:true ~slack in
  let gains =
    h.events
    |> List.filter (fun (m : Refine.move) -> not m.Refine.undo)
    |> List.map (fun (m : Refine.move) -> m.Refine.move_gain)
    |> Array.of_list
  in
  let k = Array.length gains in
  let kept = k - h.stats.Refine.rollbacks in
  if kept < 0 then QCheck2.Test.fail_report "more undos than applies";
  let prefix = Array.make (k + 1) 0. in
  for i = 0 to k - 1 do
    prefix.(i + 1) <- prefix.(i) +. gains.(i)
  done;
  (* The kept prefix attains the maximum cumulative gain (never negative —
     the empty prefix is always available)... *)
  Array.iter
    (fun s ->
      if prefix.(kept) < s -. 1e-9 then
        QCheck2.Test.fail_reportf "kept prefix %.9g below reachable %.9g" prefix.(kept) s)
    prefix;
  if prefix.(kept) < -1e-9 then QCheck2.Test.fail_report "kept a negative prefix";
  (* ...and the single-pass gain is exactly that prefix sum. *)
  Test_support.check_close ~eps:1e-6 "pass gain = best prefix sum" h.stats.Refine.gain
    prefix.(kept);
  true

(* ---- greedy engine: incremental boundary + band stay intact ---- *)

let prop_greedy_invariants (g, hy, a0, _hill, dseed) =
  let csr = csr_of (Prng.create dseed) g hy in
  let slack = slack_for csr hy a0 in
  let refined, stats = Refine.refine csr hy a0 ~slack ~max_passes:3 in
  if stats.Refine.rollbacks <> 0 then QCheck2.Test.fail_report "greedy reported rollbacks";
  Test_support.check_close ~eps:1e-6 "greedy gain = cost delta" stats.Refine.gain
    (Refine.cost csr hy a0 -. Refine.cost csr hy refined);
  if not (Refine.in_band csr hy refined ~slack) then
    QCheck2.Test.fail_report "greedy left the band";
  true

(* ---- positive-only FM vs greedy over seeded instances ---- *)

let test_fm_positive_only_never_worse () =
  let hierarchies =
    [
      ("dual_socket", Hierarchy.Presets.dual_socket);
      ("flat16", Hierarchy.Presets.flat ~k:16);
      ("ragged_rack", Hierarchy.Presets.ragged_rack);
      ("gpu_cpu_tier", Hierarchy.Presets.gpu_cpu_tier);
    ]
  in
  let cases = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun (hname, hy) ->
          incr cases;
          let rng = Prng.create seed in
          let g = Gen.gnp_connected rng 48 0.12 in
          let g = Gen.randomize_weights rng g ~lo:0.5 ~hi:4.5 in
          let csr = csr_of rng g hy in
          let k = Hierarchy.num_leaves hy in
          let a0 = Array.init (Graph.n g) (fun _ -> Prng.int rng k) in
          let slack = slack_for csr hy a0 in
          (* The production composite (Vcycle's FM dispatch): FM warm-starts
             from the greedy fixed point. *)
          let greedy, _ = Refine.refine csr hy a0 ~slack ~max_passes:4 in
          let cg = Refine.cost csr hy greedy in
          let pos, _ =
            Refine.refine_fm csr hy greedy ~slack ~max_passes:4 ~hill_climb:false ()
          in
          let cpos = Refine.cost csr hy pos in
          if cpos > cg +. 1e-9 then
            Alcotest.failf "%s seed=%d: positive-only FM %.6g worse than greedy %.6g" hname
              seed cpos cg;
          let hill, _ =
            Refine.refine_fm csr hy greedy ~slack ~max_passes:4 ~hill_climb:true ()
          in
          let chill = Refine.cost csr hy hill in
          if chill > cg +. 1e-9 then
            Alcotest.failf "%s seed=%d: hill-climb FM %.6g worse than greedy %.6g" hname
              seed chill cg)
        hierarchies)
    (List.init 30 (fun i -> (i * 271) + 5));
  Alcotest.(check bool)
    (Printf.sprintf "at least 120 seeded cases (%d run)" !cases)
    true (!cases >= 120)

(* ---- kernel = reference, bit for bit ----

   [Test_support.Refine_reference] keeps the list-and-Hashtbl engines the
   flat kernel replaced.  Both must make the same moves: the same result,
   the same statistics (gain compared by its bits) and the same [?observe]
   stream, boundary flags included.  Non-integer edge weights catch any
   regrouping of a float sum; small integer weights make gains tie, which
   catches any change to the queue's FIFO order or to the candidate
   tie-break. *)

module Reference = Test_support.Refine_reference

type event = int * int * int * int64 * bool * bool array

let record events (mv : Refine.move) flags =
  events :=
    ( mv.Refine.vertex,
      mv.Refine.src,
      mv.Refine.dst,
      Int64.bits_of_float mv.Refine.move_gain,
      mv.Refine.undo,
      flags )
    :: !events

let same_stats (a : Refine.stats) (b : Refine.stats) =
  a.Refine.passes = b.Refine.passes
  && a.Refine.moves = b.Refine.moves
  && a.Refine.rollbacks = b.Refine.rollbacks
  && Int64.bits_of_float a.Refine.gain = Int64.bits_of_float b.Refine.gain

(* The level objective in {!Graph.iter_edges} order, through
   [Hierarchy.edge_cost]: [Refine.cost] must match it bit for bit. *)
let reference_cost csr hy a =
  let acc = ref 0. in
  Graph.iter_edges
    (fun u v w -> acc := !acc +. (w *. Hierarchy.edge_cost hy a.(u) a.(v)))
    csr.Csr.graph;
  !acc

let test_kernel_vs_reference () =
  let hierarchies =
    [
      ("dual_socket", Hierarchy.Presets.dual_socket);
      ("quad_socket", Hierarchy.Presets.quad_socket);
      ("ragged_rack", Hierarchy.Presets.ragged_rack);
    ]
  in
  let runs = ref 0 and moves = ref 0 and rollbacks = ref 0 in
  for seed = 0 to 199 do
    let integer = seed mod 2 = 1 in
    List.iter
      (fun (hname, hy) ->
        let rng = Prng.create ((seed * 7919) + 13) in
        let n = 30 + Prng.int rng 60 in
        let g = Gen.gnp_connected rng n (0.05 +. Prng.float rng 0.1) in
        let g =
          if integer then
            Graph.of_edges n
              (Array.to_list
                 (Array.map
                    (fun (u, v, _) -> (u, v, float_of_int (1 + Prng.int rng 3)))
                    (Graph.edges g)))
          else Gen.randomize_weights rng g ~lo:0.3 ~hi:7.7
        in
        let csr = csr_of rng g hy in
        let k = Hierarchy.num_leaves hy in
        let a0 = Array.init n (fun _ -> Prng.int rng k) in
        let slack = slack_for csr hy a0 in
        let where = Printf.sprintf "%s seed=%d integer=%b" hname seed integer in
        if
          Int64.bits_of_float (Refine.cost csr hy a0)
          <> Int64.bits_of_float (reference_cost csr hy a0)
        then Alcotest.failf "%s: Refine.cost differs from the reference" where;
        List.iter
          (fun max_passes ->
            let got, gst = Refine.refine csr hy a0 ~slack ~max_passes in
            let want, wst = Reference.refine csr hy a0 ~slack ~max_passes in
            if got <> want || not (same_stats gst wst) then
              Alcotest.failf "%s max_passes=%d: greedy differs from the reference" where
                max_passes;
            List.iter
              (fun hill_climb ->
                incr runs;
                let ev_got = ref [] and ev_want = ref [] in
                let got, gst =
                  Refine.refine_fm csr hy a0 ~slack ~max_passes ~hill_climb
                    ~observe:(record ev_got) ()
                in
                let want, wst =
                  Reference.refine_fm csr hy a0 ~slack ~max_passes ~hill_climb
                    ~observe:(record ev_want) ()
                in
                let case =
                  Printf.sprintf "%s max_passes=%d hill_climb=%b" where max_passes hill_climb
                in
                if (!ev_got : event list) <> !ev_want then
                  Alcotest.failf "%s: observe streams differ (%d vs %d events)" case
                    (List.length !ev_got) (List.length !ev_want);
                if got <> want then Alcotest.failf "%s: assignments differ" case;
                if not (same_stats gst wst) then Alcotest.failf "%s: stats differ" case;
                (* observe = None takes the same path. *)
                let quiet, qst = Refine.refine_fm csr hy a0 ~slack ~max_passes ~hill_climb () in
                if quiet <> got || not (same_stats qst gst) then
                  Alcotest.failf "%s: observe changed the run" case;
                moves := !moves + gst.Refine.moves;
                rollbacks := !rollbacks + gst.Refine.rollbacks)
              [ true; false ])
          [ 1; 4 ])
      hierarchies
  done;
  (* The grid must exercise the engine, rollbacks included. *)
  Alcotest.(check bool)
    (Printf.sprintf "2400 runs with moves and rollbacks (%d runs, %d moves, %d rollbacks)"
       !runs !moves !rollbacks)
    true
    (!runs = 2400 && !moves > 10 * !runs && !rollbacks > !runs)

(* The kernel indexes its tables by leaf, so a leaf outside [0, k) must be
   rejected, not read from a neighbouring row. *)
let test_rejects_non_leaf () =
  let hy = Hierarchy.Presets.dual_socket in
  let g = Graph.of_edges 3 [ (0, 1, 1.); (1, 2, 2.) ] in
  let csr = Csr.of_graph g in
  let k = Hierarchy.num_leaves hy in
  List.iter
    (fun bad ->
      let a = [| 0; bad; 1 |] in
      let raises what f =
        match f () with
        | _ -> Alcotest.failf "%s accepted leaf %d" what bad
        | exception Invalid_argument _ -> ()
      in
      raises "cost" (fun () -> ignore (Refine.cost csr hy a));
      raises "in_band" (fun () -> ignore (Refine.in_band csr hy a ~slack:2.));
      raises "refine" (fun () -> ignore (Refine.refine csr hy a ~slack:2. ~max_passes:1));
      raises "refine_fm" (fun () ->
          ignore (Refine.refine_fm csr hy a ~slack:2. ~max_passes:1 ~hill_climb:true ())))
    [ k; -1 ]

let () =
  let qtest = Test_support.qtest in
  Alcotest.run "refine"
    [
      ("bucketq", [ qtest ~count:300 "bucket queue model" gen_bucketq_case prop_bucketq ]);
      ( "fm_regular",
        [
          qtest ~count:150 "event stream: gains, band, boundary (regular)"
            (gen_fm_case Test_support.gen_hierarchy)
            prop_fm_events;
          qtest ~count:150 "best-prefix rollback (regular)"
            (gen_fm_case Test_support.gen_hierarchy)
            prop_best_prefix;
        ] );
      ( "fm_ragged",
        [
          qtest ~count:150 "event stream: gains, band, boundary (ragged)"
            (gen_fm_case Test_support.gen_ragged_hierarchy)
            prop_fm_events;
          qtest ~count:150 "best-prefix rollback (ragged)"
            (gen_fm_case Test_support.gen_ragged_hierarchy)
            prop_best_prefix;
        ] );
      ( "greedy",
        [
          qtest ~count:150 "incremental boundary keeps greedy in band"
            (gen_fm_case Test_support.gen_hierarchy)
            prop_greedy_invariants;
          qtest ~count:100 "greedy in band (ragged)"
            (gen_fm_case Test_support.gen_ragged_hierarchy)
            prop_greedy_invariants;
        ] );
      ( "differential",
        [
          Alcotest.test_case "positive-only FM never worse than greedy (120 cases)" `Slow
            test_fm_positive_only_never_worse;
          Alcotest.test_case "kernel = reference, 200 seeds x 3 hierarchies x configs" `Slow
            test_kernel_vs_reference;
          Alcotest.test_case "leaf out of range is rejected" `Quick test_rejects_non_leaf;
        ] );
    ]
