(* Batch solve service (lib/server/server.ml) and its sharded scheduler.

   Contracts under test: bounded admission rejects with a structured
   [Overloaded] response and never drops admitted work; drain answers in
   submission order; duplicate in-flight requests coalesce onto one solve
   with bit-identical responses; a queue-expired deadline and an injected
   fault poison only their own responses while the server keeps serving;
   the scheduler executes every item exactly once, respects priority within
   a shard, and steals to cover a skewed shard layout. *)

module Gen = Hgp_graph.Generators
module H = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Pipeline = Hgp_core.Pipeline
module Artifact_cache = Hgp_resilience.Artifact_cache
module Prng = Hgp_util.Prng
module Fingerprint = Hgp_util.Fingerprint
module Domain_pool = Hgp_util.Domain_pool
module Protocol = Hgp_server.Protocol
module Scheduler = Hgp_server.Scheduler
module Server = Hgp_server.Server
module Hgp_error = Hgp_resilience.Hgp_error
module Faults = Hgp_resilience.Faults

let hy () = H.create ~degs:[| 2; 2 |] ~cm:[| 10.; 3.; 0. |] ~leaf_capacity:1.0

let mk_instance ?(n = 16) seed =
  let rng = Prng.create seed in
  let g = Gen.gnp_connected rng n (5.0 /. float_of_int n) in
  Instance.uniform_demands g (hy ()) ~load_factor:0.6

let req ?deadline_ms ?priority ~id ~seed inst =
  Protocol.inline_request ~id ~trees:2 ~seed ?deadline_ms ?priority inst

let mk_server ?(workers = 2) ?(queue_limit = 16) () =
  Server.create ~config:{ Server.workers; queue_limit; slack = 1.25 } ()

let submit_ok server r =
  match Server.submit_any server (Protocol.Solve r) with
  | `Admitted -> ()
  | `Rejected resp ->
    Alcotest.failf "unexpected rejection: %s" (Protocol.response_to_line resp)

let solved (r : Protocol.response) =
  match r.Protocol.outcome with
  | Protocol.Solved s -> s
  | Protocol.Updated _ ->
    Alcotest.failf "request %s answered as an update" r.Protocol.id
  | Protocol.Failed e ->
    Alcotest.failf "request %s failed: %s" r.Protocol.id (Hgp_error.to_string e)

(* ---- scheduler ---- *)

let test_shard_of_fingerprint () =
  let fp = Fingerprint.add_int Fingerprint.seed 1234 in
  let s = Scheduler.shard_of_fingerprint fp ~shards:7 in
  Alcotest.(check int) "deterministic" s (Scheduler.shard_of_fingerprint fp ~shards:7);
  Alcotest.(check bool) "in range" true (s >= 0 && s < 7);
  (* Negative fingerprints (the sign bit is live) still land in range. *)
  for i = 0 to 99 do
    let fp = Fingerprint.add_int Fingerprint.seed i in
    let s = Scheduler.shard_of_fingerprint fp ~shards:4 in
    Alcotest.(check bool) "range sweep" true (s >= 0 && s < 4)
  done

let test_scheduler_runs_everything () =
  let pool = Domain_pool.create ~size:3 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let items = Array.init 23 (fun i -> i) in
      let results, stats =
        Scheduler.run ~pool ~shards:3
          ~shard_of:(fun i -> Fingerprint.add_int Fingerprint.seed (i mod 5))
          ~priority_of:(fun _ -> 0)
          ~f:(fun i -> i * i)
          items
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) "result in input order" (i * i) v
          | Error e -> Alcotest.failf "item %d errored: %s" i (Printexc.to_string e))
        results;
      Alcotest.(check int) "per_shard covers all" 23
        (Array.fold_left ( + ) 0 stats.Scheduler.per_shard))

let test_scheduler_priority_within_shard () =
  (* One shard, one runner: execution order must be priority-descending with
     ties in submission order. *)
  let pool = Domain_pool.create ~size:1 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let order = ref [] in
      let lock = Mutex.create () in
      let prios = [| 0; 5; 1; 5; -2 |] in
      let results, _ =
        Scheduler.run ~pool ~shards:1
          ~shard_of:(fun _ -> Fingerprint.seed)
          ~priority_of:(fun i -> prios.(i))
          ~f:(fun i ->
            Mutex.lock lock;
            order := i :: !order;
            Mutex.unlock lock;
            i)
          (Array.init 5 (fun i -> i))
      in
      Array.iter (fun r -> ignore (Result.get_ok r)) results;
      Alcotest.(check (list int)) "priority order" [ 1; 3; 2; 0; 4 ] (List.rev !order))

let test_scheduler_item_fence () =
  (* A raising item fills its own slot with Error; siblings are unaffected. *)
  let pool = Domain_pool.create ~size:2 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let results, _ =
        Scheduler.run ~pool ~shards:2
          ~shard_of:(fun i -> Fingerprint.add_int Fingerprint.seed i)
          ~priority_of:(fun _ -> 0)
          ~f:(fun i -> if i = 2 then failwith "poisoned item" else i)
          (Array.init 6 (fun i -> i))
      in
      Array.iteri
        (fun i r ->
          match (i, r) with
          | 2, Error (Failure m) -> Alcotest.(check string) "its own error" "poisoned item" m
          | 2, _ -> Alcotest.fail "item 2 should have errored"
          | _, Ok v -> Alcotest.(check int) "sibling ok" i v
          | _, Error e -> Alcotest.failf "sibling %d errored: %s" i (Printexc.to_string e))
        results)

let test_scheduler_steals_skewed_shard () =
  (* Both items share a home shard.  Item 0 spins until item 1 has run, so
     completion REQUIRES runner 2 to steal item 1 from the back of shard 1's
     queue.  A bounded spin keeps a scheduling regression a failure instead
     of a hang. *)
  let pool = Domain_pool.create ~size:2 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let second_ran = Atomic.make false in
      let results, stats =
        Scheduler.run ~pool ~shards:2
          ~shard_of:(fun _ -> Fingerprint.seed)
          ~priority_of:(fun _ -> 0)
          ~f:(fun i ->
            if i = 1 then Atomic.set second_ran true
            else begin
              let deadline =
                Int64.add (Hgp_obs.Obs.now_ns ()) 10_000_000_000L (* 10 s *)
              in
              while
                (not (Atomic.get second_ran)) && Hgp_obs.Obs.now_ns () < deadline
              do
                Domain.cpu_relax ()
              done
            end;
            i)
          [| 0; 1 |]
      in
      Alcotest.(check bool) "stolen item ran concurrently" true (Atomic.get second_ran);
      (* At least the unblocking theft; the thief may also grab item 0 if it
         starts first. *)
      Alcotest.(check bool) "stole" true (stats.Scheduler.steals >= 1);
      Array.iter (fun r -> ignore (Result.get_ok r)) results)

(* ---- server ---- *)

let test_admission_bounds () =
  let inst = mk_instance 1 in
  let server = mk_server ~queue_limit:2 () in
  submit_ok server (req ~id:"a" ~seed:1 inst);
  submit_ok server (req ~id:"b" ~seed:2 inst);
  Alcotest.(check int) "pending" 2 (Server.pending server);
  (match Server.submit_any server (Protocol.Solve (req ~id:"c" ~seed:3 inst)) with
  | `Admitted -> Alcotest.fail "queue_limit not enforced"
  | `Rejected resp -> (
    match resp.Protocol.outcome with
    | Protocol.Failed (Hgp_error.Overloaded { queued; limit }) ->
      Alcotest.(check int) "queued" 2 queued;
      Alcotest.(check int) "limit" 2 limit;
      Alcotest.(check string) "id echoed" "c" resp.Protocol.id;
      Alcotest.(check int) "exit code 75" 75
        (Hgp_error.exit_code (Hgp_error.Overloaded { queued; limit }))
    | _ -> Alcotest.failf "expected Overloaded: %s" (Protocol.response_to_line resp)));
  let responses = Server.shutdown server in
  Alcotest.(check (list string)) "admitted work never dropped, in order" [ "a"; "b" ]
    (List.map (fun (r : Protocol.response) -> r.Protocol.id) responses);
  List.iter (fun r -> ignore (solved r)) responses;
  let st = Server.stats server in
  Alcotest.(check int) "submitted" 3 st.Server.submitted;
  Alcotest.(check int) "admitted" 2 st.Server.admitted;
  Alcotest.(check int) "rejected" 1 st.Server.rejected_overloaded;
  Alcotest.(check int) "ok" 2 st.Server.ok;
  Alcotest.(check int) "conservation: submitted = accounted" st.Server.submitted
    (st.Server.admitted + st.Server.rejected_overloaded + st.Server.rejected_resolve)

let test_submit_after_shutdown () =
  let server = mk_server () in
  ignore (Server.shutdown server);
  match Server.submit_any server (Protocol.Solve (req ~id:"late" ~seed:1 (mk_instance 1))) with
  | `Admitted -> Alcotest.fail "admitted after shutdown"
  | `Rejected resp -> (
    match resp.Protocol.outcome with
    | Protocol.Failed (Hgp_error.Overloaded _) -> ()
    | _ -> Alcotest.failf "expected Overloaded: %s" (Protocol.response_to_line resp))

let test_resolve_rejection_frees_slot () =
  let server = mk_server ~queue_limit:1 () in
  (match
     Server.submit_any server
       (Protocol.Solve (Protocol.request ~id:"bad" (Protocol.Inline "garbage")))
   with
  | `Admitted -> Alcotest.fail "admitted garbage"
  | `Rejected resp -> (
    match resp.Protocol.outcome with
    | Protocol.Failed (Hgp_error.Parse _) -> ()
    | _ -> Alcotest.failf "expected Parse: %s" (Protocol.response_to_line resp)));
  Alcotest.(check int) "slot released" 0 (Server.pending server);
  (* The released slot is usable: a valid request still fits. *)
  submit_ok server (req ~id:"good" ~seed:1 (mk_instance 1));
  ignore (Server.shutdown server);
  Alcotest.(check int) "resolve reject counted" 1
    (Server.stats server).Server.rejected_resolve

let test_coalescing_bit_identical () =
  let inst = mk_instance 7 in
  Pipeline.clear_caches ();
  let server = mk_server ~workers:3 () in
  (* 2 distinct keys x 3 duplicates, interleaved. *)
  for d = 0 to 2 do
    submit_ok server (req ~id:(Printf.sprintf "x%d" d) ~seed:5 inst);
    submit_ok server (req ~id:(Printf.sprintf "y%d" d) ~seed:6 inst)
  done;
  let responses = Server.drain server in
  Alcotest.(check (list string)) "submission order"
    [ "x0"; "y0"; "x1"; "y1"; "x2"; "y2" ]
    (List.map (fun (r : Protocol.response) -> r.Protocol.id) responses);
  let by_prefix p =
    List.filter (fun (r : Protocol.response) -> r.Protocol.id.[0] = p) responses
    |> List.map solved
  in
  List.iter
    (fun group ->
      match group with
      | leader :: rest ->
        List.iter
          (fun (s : Protocol.solved) ->
            Alcotest.(check bool) "assignment bit-identical" true
              (s.Protocol.assignment = leader.Protocol.assignment);
            Alcotest.(check bool) "cost bit-identical" true
              (Int64.bits_of_float s.Protocol.cost
              = Int64.bits_of_float leader.Protocol.cost);
            Alcotest.(check bool) "follower marked cache_hit" true s.Protocol.cache_hit)
          rest
      | [] -> Alcotest.fail "empty group")
    [ by_prefix 'x'; by_prefix 'y' ];
  let st = Server.stats server in
  Alcotest.(check int) "coalesced followers" 4 st.Server.coalesced;
  Alcotest.(check bool) "cache hits include followers" true (st.Server.cache_hits >= 4);
  Alcotest.(check int) "all ok" 6 st.Server.ok;
  ignore (Server.shutdown server)

let test_coalesced_matches_solo () =
  (* The coalesced answer equals a plain one-shot supervised solve: sharing
     is invisible. *)
  let inst = mk_instance 9 in
  Pipeline.clear_caches ();
  let solo =
    match
      Hgp_core.Solver.solve_supervised
        ~options:{ Hgp_core.Solver.default_options with ensemble_size = 2; seed = 3 }
        inst
    with
    | Ok s -> s.Hgp_core.Solver.solution
    | Error e -> Alcotest.failf "solo solve failed: %s" (Hgp_error.to_string e)
  in
  Pipeline.clear_caches ();
  let server = mk_server () in
  submit_ok server (req ~id:"a" ~seed:3 inst);
  submit_ok server (req ~id:"b" ~seed:3 inst);
  let responses = Server.drain server in
  List.iter
    (fun r ->
      let s = solved r in
      Alcotest.(check bool) "matches solo solve" true
        (s.Protocol.assignment = solo.Hgp_core.Solver.assignment))
    responses;
  ignore (Server.shutdown server)

let test_queue_deadline_and_fault_isolation () =
  (* One request expires in the queue (deadline 0), one trips an injected
     ensemble_cache.lookup crash and degrades; the other requests of the same
     drain are answered normally — per-request isolation end to end. *)
  let inst_a = mk_instance 11 in
  let inst_b = mk_instance ~n:14 12 in
  Pipeline.clear_caches ();
  let server = mk_server ~workers:2 () in
  submit_ok server (req ~id:"ok1" ~seed:1 inst_a);
  submit_ok server (req ~id:"late" ~seed:2 ~deadline_ms:0. inst_b);
  submit_ok server (req ~id:"ok2" ~seed:3 inst_b);
  let plan =
    match Faults.parse "seed=1;ensemble_cache.lookup=crash" with
    | Ok p -> p
    | Error e -> Alcotest.failf "bad plan: %s" e
  in
  let responses = Faults.with_plan plan (fun () -> Server.drain server) in
  Alcotest.(check int) "every request answered" 3 (List.length responses);
  List.iter
    (fun (r : Protocol.response) ->
      match (r.Protocol.id, r.Protocol.outcome) with
      | "late", Protocol.Failed (Hgp_error.Deadline_exceeded { stage; _ }) ->
        Alcotest.(check string) "expired in queue" "queue" stage;
        Alcotest.(check bool) "not solved" true (r.Protocol.solve_ms = 0.)
      | "late", o ->
        Alcotest.failf "late: expected queue deadline, got %s"
          (match o with
          | Protocol.Solved _ -> "a solution"
          | Protocol.Updated _ -> "an update"
          | Protocol.Failed e -> Hgp_error.to_string e)
      | _, Protocol.Solved s ->
        (* The armed fault bypasses the caches and crashes the ensemble
           lookup site; the supervised ladder absorbs it. *)
        Alcotest.(check bool) "degraded under fault" true s.Protocol.degraded
      | id, Protocol.Updated _ ->
        Alcotest.failf "%s unexpectedly answered as an update" id
      | id, Protocol.Failed e ->
        Alcotest.failf "%s should have degraded, not failed: %s" id
          (Hgp_error.to_string e))
    responses;
  (* The server survives: a fresh batch with the fault disarmed is clean. *)
  submit_ok server (req ~id:"after" ~seed:4 inst_a);
  (match Server.drain server with
  | [ r ] ->
    let s = solved r in
    Alcotest.(check bool) "clean solve after the storm" false s.Protocol.degraded
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  let st = Server.stats server in
  Alcotest.(check int) "deadline counted" 1 st.Server.deadline_expired;
  Alcotest.(check int) "errors = deadline only" 1 st.Server.errors;
  Alcotest.(check int) "ok" 3 st.Server.ok;
  Alcotest.(check int) "degraded counted" 2 st.Server.degraded;
  ignore (Server.shutdown server)

let test_drain_empty_and_shutdown_idempotent () =
  let server = mk_server () in
  Alcotest.(check int) "empty drain" 0 (List.length (Server.drain server));
  Alcotest.(check int) "shutdown" 0 (List.length (Server.shutdown server));
  Alcotest.(check int) "shutdown again" 0 (List.length (Server.shutdown server));
  Alcotest.(check int) "no batches counted for empty drains" 0
    (Server.stats server).Server.batches

let test_render_stats_line () =
  let server = mk_server () in
  submit_ok server (req ~id:"a" ~seed:1 (mk_instance 2));
  ignore (Server.shutdown server);
  let line = Server.render_stats (Server.stats server) in
  let contains needle =
    let nl = String.length needle and ll = String.length line in
    let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "stats line has %s" needle) true
        (contains needle))
    [ "submitted=1"; "admitted=1"; "ok=1"; "batches=1" ]

(* ---- incremental sessions ---- *)

module Delta = Hgp_core.Delta
module Solver = Hgp_core.Solver

let submit_update_ok server u =
  match Server.submit_any server (Protocol.Update u) with
  | `Admitted -> ()
  | `Rejected resp ->
    Alcotest.failf "unexpected update rejection: %s" (Protocol.response_to_line resp)

(* A session-opening solve and an update against it in the SAME batch: the
   drain runs updates after the solve batch, so the session is visible; the
   updated assignment must be bit-identical to a cache-disabled cold solve
   of the post-delta instance. *)
let test_session_update_bit_identical () =
  Pipeline.clear_caches ();
  let inst = mk_instance 11 in
  let u, v, w =
    let e = (Hgp_graph.Graph.edges inst.Instance.graph).(0) in
    e
  in
  let delta = [ Delta.Reweight_edge (u, v, (w *. 3.) +. 0.5) ] in
  let solve_req =
    Protocol.inline_request ~id:"open" ~trees:2 ~seed:5 ~session:"s1" inst
  in
  let server = mk_server () in
  submit_ok server solve_req;
  submit_update_ok server
    (Protocol.update_request ~id:"upd" ~session:"s1" (Delta.to_string delta));
  (match Server.drain server with
  | [ first; second ] -> (
    (match first.Protocol.outcome with
    | Protocol.Solved _ -> ()
    | _ -> Alcotest.failf "open: %s" (Protocol.response_to_line first));
    Alcotest.(check string) "order" "upd" second.Protocol.id;
    match second.Protocol.outcome with
    | Protocol.Updated up ->
      let options =
        match Protocol.resolve solve_req with
        | Ok res -> res.Protocol.options
        | Error e -> Alcotest.failf "resolve: %s" (Hgp_error.to_string e)
      in
      let inst' = Delta.apply inst delta in
      Pipeline.clear_caches ();
      Artifact_cache.set_enabled false;
      let cold =
        Fun.protect
          ~finally:(fun () -> Artifact_cache.set_enabled true)
          (fun () -> Pipeline.run inst' options)
      in
      (match cold with
      | None -> Alcotest.fail "cold solve infeasible"
      | Some sol ->
        Alcotest.(check bool) "assignment bit-identical" true
          (up.Protocol.up_assignment = sol.Solver.assignment);
        Alcotest.(check bool) "cost bits" true
          (Int64.bits_of_float up.Protocol.up_cost
          = Int64.bits_of_float sol.Solver.cost));
      Alcotest.(check bool) "certified" true up.Protocol.up_certified;
      Alcotest.(check bool) "churn in [0,1]" true
        (up.Protocol.up_churn >= 0. && up.Protocol.up_churn <= 1.);
      Alcotest.(check bool) "some subtrees reused" true
        (up.Protocol.up_reused_subtrees > 0);
      Alcotest.(check bool) "a reweight is incremental" true up.Protocol.up_incremental
    | _ -> Alcotest.failf "upd: %s" (Protocol.response_to_line second))
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
  (* A structural delta re-solves the session from scratch, and says so. *)
  submit_update_ok server
    (Protocol.update_request ~id:"grow" ~session:"s1"
       (Delta.to_string [ Delta.Add_vertex (0.1, [ (0, 1.0) ]) ]));
  (match Server.drain server with
  | [ { Protocol.outcome = Protocol.Updated up; _ } ] ->
    Alcotest.(check bool) "a structural delta is not incremental" false
      up.Protocol.up_incremental
  | [ r ] -> Alcotest.failf "grow: %s" (Protocol.response_to_line r)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  Alcotest.(check int) "session registered" 1 (Server.session_count server);
  Alcotest.(check int) "updates counted" 2 (Server.stats server).Server.updates;
  ignore (Server.shutdown server)

(* A structured error while opening a session (an injected crash in the
   session solve's quantization, the first hit of that site) takes the
   fallback path: the failed open is counted, the request is answered by
   the supervised ladder, and no session is registered, so a later update
   to it is an unknown session. *)
let test_session_open_error_falls_back () =
  Pipeline.clear_caches ();
  let inst = mk_instance 11 in
  let server = mk_server () in
  submit_ok server (Protocol.inline_request ~id:"open" ~trees:2 ~seed:5 ~session:"s1" inst);
  let plan =
    match Faults.parse "seed=1;demand.quantize=crash@1" with
    | Ok p -> p
    | Error e -> Alcotest.failf "bad plan: %s" e
  in
  let was_enabled = Hgp_obs.Obs.enabled () in
  Hgp_obs.Obs.enable ();
  let failed0 = Hgp_obs.Obs.counter_value "server.sessions.open_failed" in
  (match
     Fun.protect
       ~finally:(fun () -> if not was_enabled then Hgp_obs.Obs.disable ())
       (fun () -> Faults.with_plan plan (fun () -> Server.drain server))
   with
  | [ r ] -> ignore (solved r)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  Alcotest.(check int) "failed open counted" 1
    (Hgp_obs.Obs.counter_value "server.sessions.open_failed" - failed0);
  Alcotest.(check int) "no session registered" 0 (Server.session_count server);
  submit_update_ok server
    (Protocol.update_request ~id:"upd" ~session:"s1"
       (Delta.to_string [ Delta.Reweight_edge (0, 1, 2.) ]));
  (match Server.drain server with
  | [ { Protocol.outcome = Protocol.Failed (Hgp_error.Invalid_input _); _ } ] -> ()
  | [ r ] -> Alcotest.failf "expected unknown session, got %s" (Protocol.response_to_line r)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  ignore (Server.shutdown server)

(* Session paths run under the request's remaining budget.  A DP stalled
   past it ([tree_dp.solve=delay]) makes a session open expire: the
   request falls back to the ladder, whose rungs all see the spent budget
   down to the emergency placement, and no session is registered. *)
let delay_plan ms =
  match Faults.parse (Printf.sprintf "seed=1;tree_dp.solve=delay:%g" ms) with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad plan: %s" e

let test_session_open_obeys_deadline () =
  Pipeline.clear_caches ();
  let inst = mk_instance 11 in
  let server = mk_server () in
  submit_ok server
    (Protocol.inline_request ~id:"open" ~trees:2 ~seed:5 ~session:"s1" ~deadline_ms:100.
       inst);
  (match Faults.with_plan (delay_plan 300.) (fun () -> Server.drain server) with
  | [ r ] -> Alcotest.(check string) "ladder answered" "emergency" (solved r).Protocol.rung
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  Alcotest.(check int) "no session registered" 0 (Server.session_count server);
  ignore (Server.shutdown server)

(* An update that outlives its budget answers [deadline], naming the stage
   that noticed (the stalled DP), and leaves the session at its pre-delta
   state: a later empty update re-solves the original 16 vertices, not the
   17 of the expired delta, bit-identically to the open. *)
let test_session_update_obeys_deadline () =
  Pipeline.clear_caches ();
  let inst = mk_instance 11 in
  let server = mk_server () in
  submit_ok server (Protocol.inline_request ~id:"open" ~trees:2 ~seed:5 ~session:"s1" inst);
  let opened =
    match Server.drain server with
    | [ r ] -> solved r
    | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)
  in
  submit_update_ok server
    (Protocol.update_request ~id:"late" ~session:"s1" ~deadline_ms:100.
       (Delta.to_string [ Delta.Add_vertex (0.1, [ (0, 1.0) ]) ]));
  (match Faults.with_plan (delay_plan 300.) (fun () -> Server.drain server) with
  | [ { Protocol.outcome = Protocol.Failed (Hgp_error.Deadline_exceeded { stage; _ }); _ } ]
    ->
    Alcotest.(check string) "stage that noticed" "tree_dp" stage
  | [ r ] -> Alcotest.failf "expected deadline, got %s" (Protocol.response_to_line r)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  Alcotest.(check int) "counted as expired" 1 (Server.stats server).Server.deadline_expired;
  submit_update_ok server (Protocol.update_request ~id:"noop" ~session:"s1" "%hgp-delta 1\n");
  (match Server.drain server with
  | [ { Protocol.outcome = Protocol.Updated up; _ } ] ->
    Alcotest.(check (array int)) "pre-delta session" opened.Protocol.assignment
      up.Protocol.up_assignment
  | [ r ] -> Alcotest.failf "session broken: %s" (Protocol.response_to_line r)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  ignore (Server.shutdown server)

let test_update_unknown_session () =
  let server = mk_server () in
  submit_update_ok server
    (Protocol.update_request ~id:"u" ~session:"nope"
       (Delta.to_string [ Delta.Reweight_edge (0, 1, 2.) ]));
  (match Server.drain server with
  | [ r ] -> (
    match r.Protocol.outcome with
    | Protocol.Failed (Hgp_error.Invalid_input { context; _ }) ->
      Alcotest.(check string) "context" "server.update" context
    | _ -> Alcotest.failf "expected invalid-input, got %s" (Protocol.response_to_line r))
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  ignore (Server.shutdown server)

(* An update whose delta cuts a vertex off is answered with a structured
   invalid-input failure (the solver needs a connected graph), and the
   session keeps serving updates. *)
let test_update_disconnecting_delta () =
  Pipeline.clear_caches ();
  let inst = mk_instance 11 in
  let g = inst.Instance.graph in
  let cut =
    Hgp_graph.Graph.fold_neighbors (fun acc u _ -> Delta.Remove_edge (0, u) :: acc) [] g 0
  in
  let server = mk_server () in
  submit_ok server (Protocol.inline_request ~id:"open" ~trees:2 ~seed:5 ~session:"s1" inst);
  submit_update_ok server
    (Protocol.update_request ~id:"cut" ~session:"s1" (Delta.to_string cut));
  (match Server.drain server with
  | [ _; r ] -> (
    match r.Protocol.outcome with
    | Protocol.Failed (Hgp_error.Invalid_input { context; _ }) ->
      Alcotest.(check string) "context" "delta" context
    | _ -> Alcotest.failf "expected invalid-input, got %s" (Protocol.response_to_line r))
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
  submit_update_ok server (Protocol.update_request ~id:"noop" ~session:"s1" "%hgp-delta 1\n");
  (match Server.drain server with
  | [ { Protocol.outcome = Protocol.Updated _; _ } ] -> ()
  | [ r ] -> Alcotest.failf "session broken: %s" (Protocol.response_to_line r)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  ignore (Server.shutdown server)

let test_update_bad_delta_rejected_at_admission () =
  let server = mk_server () in
  (match
     Server.submit_any server
       (Protocol.Update (Protocol.update_request ~id:"bad" ~session:"s" "not a delta"))
   with
  | `Rejected { Protocol.outcome = Protocol.Failed (Hgp_error.Parse _); _ } -> ()
  | `Rejected r -> Alcotest.failf "expected parse error, got %s" (Protocol.response_to_line r)
  | `Admitted -> Alcotest.fail "malformed delta admitted");
  Alcotest.(check int) "slot freed" 0 (Server.pending server);
  ignore (Server.shutdown server)

(* Solves and updates share one admission path: one queue budget, one
   index space, one set of counters.  An update submitted before the solve
   that opens its session is still answered [Updated] (updates run after
   the solve batch) and responses come back in submission order; with
   [queue_limit] 2 one solve and one update fill the queue, so the next
   request of either kind is [Overloaded]; a malformed delta is a resolve
   rejection; and [submitted] is fully accounted across both kinds. *)
let test_mixed_window_shared_admission () =
  Pipeline.clear_caches ();
  let inst = mk_instance 11 in
  let u, v, w = (Hgp_graph.Graph.edges inst.Instance.graph).(0) in
  let delta = Delta.to_string [ Delta.Reweight_edge (u, v, (w *. 2.) +. 1.) ] in
  let server = mk_server ~queue_limit:2 () in
  let submit r = Server.submit_any server r in
  (match submit (Protocol.Update (Protocol.update_request ~id:"bad" ~session:"s1" "nope")) with
  | `Rejected { Protocol.outcome = Protocol.Failed (Hgp_error.Parse _); _ } -> ()
  | `Rejected r -> Alcotest.failf "bad: expected parse, got %s" (Protocol.response_to_line r)
  | `Admitted -> Alcotest.fail "malformed delta admitted");
  List.iter
    (fun r ->
      match submit r with
      | `Admitted -> ()
      | `Rejected resp -> Alcotest.failf "rejected: %s" (Protocol.response_to_line resp))
    [
      Protocol.Update (Protocol.update_request ~id:"upd" ~session:"s1" delta);
      Protocol.Solve (Protocol.inline_request ~id:"open" ~trees:2 ~seed:5 ~session:"s1" inst);
    ];
  Alcotest.(check int) "queue full" 2 (Server.pending server);
  List.iter
    (fun r ->
      match submit r with
      | `Rejected { Protocol.outcome = Protocol.Failed (Hgp_error.Overloaded { queued; _ }); _ }
        ->
        Alcotest.(check int) "queued at rejection" 2 queued
      | `Rejected resp ->
        Alcotest.failf "expected overloaded, got %s" (Protocol.response_to_line resp)
      | `Admitted -> Alcotest.fail "admitted past queue_limit")
    [
      Protocol.Solve (req ~id:"x" ~seed:6 inst);
      Protocol.Update (Protocol.update_request ~id:"y" ~session:"s1" delta);
    ];
  (match Server.drain server with
  | [ first; second ] ->
    Alcotest.(check (list string)) "submission order" [ "upd"; "open" ]
      [ first.Protocol.id; second.Protocol.id ];
    (match first.Protocol.outcome with
    | Protocol.Updated _ -> ()
    | _ -> Alcotest.failf "upd: %s" (Protocol.response_to_line first));
    ignore (solved second)
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
  ignore (Server.shutdown server);
  let st = Server.stats server in
  Alcotest.(check int) "submitted" 5 st.Server.submitted;
  Alcotest.(check int) "admitted" 2 st.Server.admitted;
  Alcotest.(check int) "overloaded" 2 st.Server.rejected_overloaded;
  Alcotest.(check int) "bad delta is a resolve rejection" 1 st.Server.rejected_resolve;
  Alcotest.(check int) "conservation across both kinds" st.Server.submitted
    (st.Server.admitted + st.Server.rejected_overloaded + st.Server.rejected_resolve);
  Alcotest.(check int) "ok" 2 st.Server.ok;
  Alcotest.(check int) "updates" 1 st.Server.updates

let () =
  Alcotest.run "server"
    [
      ( "scheduler",
        [
          Alcotest.test_case "shard of fingerprint" `Quick test_shard_of_fingerprint;
          Alcotest.test_case "runs everything" `Quick test_scheduler_runs_everything;
          Alcotest.test_case "priority within shard" `Quick test_scheduler_priority_within_shard;
          Alcotest.test_case "item fence" `Quick test_scheduler_item_fence;
          Alcotest.test_case "steals skewed shard" `Quick test_scheduler_steals_skewed_shard;
        ] );
      ( "server",
        [
          Alcotest.test_case "admission bounds" `Quick test_admission_bounds;
          Alcotest.test_case "submit after shutdown" `Quick test_submit_after_shutdown;
          Alcotest.test_case "resolve rejection" `Quick test_resolve_rejection_frees_slot;
          Alcotest.test_case "coalescing bit-identical" `Quick test_coalescing_bit_identical;
          Alcotest.test_case "coalesced matches solo" `Quick test_coalesced_matches_solo;
          Alcotest.test_case "deadline+fault isolation" `Quick test_queue_deadline_and_fault_isolation;
          Alcotest.test_case "empty drain / idempotent shutdown" `Quick
            test_drain_empty_and_shutdown_idempotent;
          Alcotest.test_case "render stats" `Quick test_render_stats_line;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "session update bit-identical" `Quick
            test_session_update_bit_identical;
          Alcotest.test_case "unknown session" `Quick test_update_unknown_session;
          Alcotest.test_case "session open obeys the deadline" `Quick
            test_session_open_obeys_deadline;
          Alcotest.test_case "session update obeys the deadline" `Quick
            test_session_update_obeys_deadline;
          Alcotest.test_case "session open error falls back" `Quick
            test_session_open_error_falls_back;
          Alcotest.test_case "bad delta rejected" `Quick
            test_update_bad_delta_rejected_at_admission;
          Alcotest.test_case "disconnecting delta is invalid input" `Quick
            test_update_disconnecting_delta;
          Alcotest.test_case "mixed window shares admission" `Quick
            test_mixed_window_shared_admission;
        ] );
    ]
