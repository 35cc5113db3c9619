module Fingerprint = Hgp_util.Fingerprint
module Domain_pool = Hgp_util.Domain_pool
module Obs = Hgp_obs.Obs
module Hgp_error = Hgp_resilience.Hgp_error
module Deadline = Hgp_resilience.Deadline
module Solver = Hgp_core.Solver
module Pipeline = Hgp_core.Pipeline
module Delta = Hgp_core.Delta
module B = Hgp_baselines

let log_src = Logs.Src.create "hgp.server" ~doc:"HGP batch solve service"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = { workers : int; queue_limit : int; slack : float }

let default_config =
  {
    workers = max 1 (Domain.recommended_domain_count () - 1);
    queue_limit = 256;
    slack = 1.25;
  }

type stats = {
  submitted : int;
  admitted : int;
  rejected_overloaded : int;
  rejected_resolve : int;
  deadline_expired : int;
  coalesced : int;
  ok : int;
  errors : int;
  degraded : int;
  cache_hits : int;
  steals : int;
  batches : int;
  updates : int;
}

let zero_stats =
  {
    submitted = 0;
    admitted = 0;
    rejected_overloaded = 0;
    rejected_resolve = 0;
    deadline_expired = 0;
    coalesced = 0;
    ok = 0;
    errors = 0;
    degraded = 0;
    cache_hits = 0;
    steals = 0;
    batches = 0;
    updates = 0;
  }

type pending = { resolved : Protocol.resolved; submit_ns : int64; index : int }

type pending_update = {
  update : Protocol.update_request;
  delta : Delta.t;  (* parsed at admission, like [resolve] for solves *)
  u_submit_ns : int64;
  u_index : int;
}

type t = {
  config : config;
  pool : Domain_pool.t;
  mutex : Mutex.t;
  mutable queue : pending list;  (* newest first *)
  mutable update_queue : pending_update list;  (* newest first *)
  mutable queued : int;
  mutable next_index : int;
  mutable stopping : bool;
  mutable stats : stats;
  coalesced_live : int Atomic.t;  (* bumped on worker domains, folded in [stats] *)
  smutex : Mutex.t;  (* guards [sessions]; never held with [mutex] *)
  sessions : (string, Pipeline.session) Hashtbl.t;
}

let create ?(config = default_config) () =
  if config.workers < 1 then invalid_arg "Server.create: workers must be >= 1";
  if config.queue_limit < 1 then invalid_arg "Server.create: queue_limit must be >= 1";
  {
    config;
    (* The draining thread runs shard 0 itself. *)
    pool = Domain_pool.create ~size:(config.workers - 1);
    mutex = Mutex.create ();
    queue = [];
    update_queue = [];
    queued = 0;
    next_index = 0;
    stopping = false;
    stats = zero_stats;
    coalesced_live = Atomic.make 0;
    smutex = Mutex.create ();
    sessions = Hashtbl.create 8;
  }

let config t = t.config

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let with_slock t f =
  Mutex.lock t.smutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.smutex) f

let session_count t = with_slock t (fun () -> Hashtbl.length t.sessions)

let pending t = with_lock t (fun () -> t.queued)

let stats t =
  with_lock t (fun () -> { t.stats with coalesced = Atomic.get t.coalesced_live })

let render_stats (s : stats) =
  Printf.sprintf
    "submitted=%d admitted=%d overloaded=%d resolve_rejects=%d deadline=%d \
     coalesced=%d ok=%d errors=%d degraded=%d cache_hits=%d steals=%d batches=%d \
     updates=%d"
    s.submitted s.admitted s.rejected_overloaded s.rejected_resolve s.deadline_expired
    s.coalesced s.ok s.errors s.degraded s.cache_hits s.steals s.batches s.updates

(* ---- admission ---- *)

let rejected_response (req : Protocol.request) e =
  { Protocol.id = req.Protocol.id; outcome = Protocol.Failed e; queue_ms = 0.; solve_ms = 0. }

let submit t (req : Protocol.request) =
  Obs.count "server.requests" 1;
  let verdict =
    with_lock t (fun () ->
        t.stats <- { t.stats with submitted = t.stats.submitted + 1 };
        if t.stopping || t.queued >= t.config.queue_limit then begin
          t.stats <- { t.stats with rejected_overloaded = t.stats.rejected_overloaded + 1 };
          `Full t.queued
        end
        else begin
          (* Reserve the slot now; the (possibly expensive) instance parse
             happens outside the lock. *)
          t.queued <- t.queued + 1;
          let index = t.next_index in
          t.next_index <- index + 1;
          `Reserved index
        end)
  in
  match verdict with
  | `Full queued ->
    Obs.count "server.rejected.overloaded" 1;
    `Rejected
      (rejected_response req (Hgp_error.Overloaded { queued; limit = t.config.queue_limit }))
  | `Reserved index -> (
    let submit_ns = Obs.now_ns () in
    match Protocol.resolve req with
    | Error e ->
      with_lock t (fun () ->
          t.queued <- t.queued - 1;
          t.stats <- { t.stats with rejected_resolve = t.stats.rejected_resolve + 1 });
      Obs.count "server.rejected.resolve" 1;
      `Rejected (rejected_response req e)
    | Ok resolved ->
      with_lock t (fun () ->
          t.queue <- { resolved; submit_ns; index } :: t.queue;
          t.stats <- { t.stats with admitted = t.stats.admitted + 1 });
      Obs.count "server.admitted" 1;
      `Admitted)

let rejected_update (u : Protocol.update_request) e =
  {
    Protocol.id = u.Protocol.u_id;
    outcome = Protocol.Failed e;
    queue_ms = 0.;
    solve_ms = 0.;
  }

(* Updates share the solve queue's admission budget and index space, so
   responses interleave in submission order and back-pressure covers both
   kinds of work. *)
let submit_update t (u : Protocol.update_request) =
  Obs.count "server.requests" 1;
  let verdict =
    with_lock t (fun () ->
        t.stats <- { t.stats with submitted = t.stats.submitted + 1 };
        if t.stopping || t.queued >= t.config.queue_limit then begin
          t.stats <- { t.stats with rejected_overloaded = t.stats.rejected_overloaded + 1 };
          `Full t.queued
        end
        else begin
          t.queued <- t.queued + 1;
          let index = t.next_index in
          t.next_index <- index + 1;
          `Reserved index
        end)
  in
  match verdict with
  | `Full queued ->
    Obs.count "server.rejected.overloaded" 1;
    `Rejected
      (rejected_update u (Hgp_error.Overloaded { queued; limit = t.config.queue_limit }))
  | `Reserved u_index -> (
    let u_submit_ns = Obs.now_ns () in
    match Delta.of_string u.Protocol.u_delta with
    | exception Hgp_error.Error e ->
      with_lock t (fun () ->
          t.queued <- t.queued - 1;
          t.stats <- { t.stats with rejected_resolve = t.stats.rejected_resolve + 1 });
      Obs.count "server.rejected.resolve" 1;
      `Rejected (rejected_update u e)
    | delta ->
      with_lock t (fun () ->
          t.update_queue <- { update = u; delta; u_submit_ns; u_index } :: t.update_queue;
          t.stats <- { t.stats with admitted = t.stats.admitted + 1 });
      Obs.count "server.admitted" 1;
      `Admitted)

let submit_any t = function
  | Protocol.Solve r -> submit t r
  | Protocol.Update u -> submit_update t u

(* ---- dispatch ---- *)

type group = { key : Fingerprint.t; members : pending list; priority : int }

(* Session-bearing solves go through [Pipeline.start_session] fail-fast,
   under the request's remaining budget, so the registered session state
   and the response embody the same bit-identical pipeline solution.  On
   infeasibility or a structured error (an expired deadline, an injected
   fault) the group falls back to the supervised ladder below with nothing
   registered — a fallback-rung answer has no DP snapshots to update
   incrementally.
   Distinct session names in one coalesced group each get their own session
   (the repeat solves hit the warm caches); the solutions are bit-identical,
   so answering the group from the first is sound. *)
let register_sessions t ~deadline ~inst ~options alive =
  let names =
    List.filter_map (fun p -> p.resolved.Protocol.request.Protocol.session) alive
    |> List.sort_uniq compare
  in
  List.fold_left
    (fun acc name ->
      match Pipeline.start_session ~deadline inst options with
      | exception Hgp_error.Error _ | None -> acc
      | Some (sess, sol) ->
        with_slock t (fun () -> Hashtbl.replace t.sessions name sess);
        Obs.count "server.sessions.opened" 1;
        (match acc with None -> Some sol | some -> some))
    None names

(* Runs on a shard worker.  Answers every member of one coalesced group:
   queue-expired members get their structured deadline error, the survivors
   share one solve — a session open, else the supervised ladder — under the
   leader's remaining budget. *)
let handle t group =
  let dispatch_ns = Obs.now_ns () in
  let queue_ms p = Int64.to_float (Int64.sub dispatch_ns p.submit_ns) /. 1e6 in
  List.iter
    (fun p -> Obs.gauge_max "server.queue_wait_max_ms" (queue_ms p))
    group.members;
  let expired, alive =
    List.partition
      (fun p ->
        match p.resolved.Protocol.request.Protocol.deadline_ms with
        | Some d -> queue_ms p >= d
        | None -> false)
      group.members
  in
  let expired_responses =
    List.map
      (fun p ->
        let req = p.resolved.Protocol.request in
        let budget = Option.value ~default:0. req.Protocol.deadline_ms in
        ( p.index,
          {
            Protocol.id = req.Protocol.id;
            outcome =
              Protocol.Failed
                (Hgp_error.Deadline_exceeded
                   { budget_ms = budget; elapsed_ms = queue_ms p; stage = "queue" });
            queue_ms = queue_ms p;
            solve_ms = 0.;
          } ))
      expired
  in
  match alive with
  | [] -> expired_responses
  | leader :: followers ->
    if followers <> [] then begin
      Atomic.fetch_and_add t.coalesced_live (List.length followers) |> ignore;
      Obs.count "server.coalesced" (List.length followers)
    end;
    let { Protocol.inst; options; request; _ } = leader.resolved in
    let deadline =
      Deadline.of_budget_ms
        (Option.map (fun d -> d -. queue_ms leader) request.Protocol.deadline_ms)
    in
    let t0 = Obs.now_ns () in
    let result =
      Obs.span "server.solve" (fun () ->
          match register_sessions t ~deadline ~inst ~options alive with
          | Some sol -> `Session sol
          | None -> (
            try
              `Ladder
                (Solver.solve_supervised ~options
                   ?deadline_ms:(Deadline.remaining_ms deadline)
                   ~fallbacks:
                     (B.Portfolio.ladder ~slack:t.config.slack ~seed:options.Solver.seed)
                   inst)
            with exn ->
              (* [solve_supervised] promises not to raise; fence anyway so a
                 broken promise poisons one response, not the batch. *)
              `Ladder
                (Error
                   (Hgp_error.Internal
                      { stage = "server.solve"; msg = Hgp_error.message_of_exn exn }))))
    in
    let solve_ms = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e6 in
    let outcome_of ~follower =
      match result with
      | `Session sol ->
        Protocol.Solved
          {
            cost = sol.Solver.cost;
            violation = sol.Solver.max_violation;
            rung = "ensemble";
            degraded = false;
            tree_failures = 0;
            cache_hit =
              follower || (sol.Solver.dp_states = 0 && sol.Solver.cached_dp_states > 0);
            dp_states = sol.Solver.dp_states;
            cached_dp_states = sol.Solver.cached_dp_states;
            assignment = sol.Solver.assignment;
          }
      | `Ladder (Ok s) ->
        let sol = s.Solver.solution in
        Protocol.Solved
          {
            cost = sol.Solver.cost;
            violation = sol.Solver.max_violation;
            rung = s.Solver.rung;
            degraded = s.Solver.degraded;
            tree_failures = List.length s.Solver.tree_failures;
            cache_hit =
              follower || (sol.Solver.dp_states = 0 && sol.Solver.cached_dp_states > 0);
            dp_states = sol.Solver.dp_states;
            cached_dp_states = sol.Solver.cached_dp_states;
            assignment = sol.Solver.assignment;
          }
      | `Ladder (Error e) -> Protocol.Failed e
    in
    ( leader.index,
      {
        Protocol.id = request.Protocol.id;
        outcome = outcome_of ~follower:false;
        queue_ms = queue_ms leader;
        solve_ms;
      } )
    :: List.map
         (fun p ->
           ( p.index,
             {
               Protocol.id = p.resolved.Protocol.request.Protocol.id;
               outcome = outcome_of ~follower:true;
               queue_ms = queue_ms p;
               solve_ms = 0.;
             } ))
         followers
    @ expired_responses

(* Runs on the drain thread, after the solve batch: sessions opened by
   same-batch solves are visible, and per-session serialization (the
   [Pipeline.resolve_delta] contract) comes for free. *)
let run_update t (pu : pending_update) ~dispatch_ns =
  let u = pu.update in
  let queue_ms = Int64.to_float (Int64.sub dispatch_ns pu.u_submit_ns) /. 1e6 in
  Obs.gauge_max "server.queue_wait_max_ms" queue_ms;
  let expired =
    match u.Protocol.u_deadline_ms with Some d -> queue_ms >= d | None -> false
  in
  if expired then
    ( pu.u_index,
      {
        Protocol.id = u.Protocol.u_id;
        outcome =
          Protocol.Failed
            (Hgp_error.Deadline_exceeded
               {
                 budget_ms = Option.value ~default:0. u.Protocol.u_deadline_ms;
                 elapsed_ms = queue_ms;
                 stage = "queue";
               });
        queue_ms;
        solve_ms = 0.;
      } )
  else begin
    let sess = with_slock t (fun () -> Hashtbl.find_opt t.sessions u.Protocol.u_session) in
    let t0 = Obs.now_ns () in
    let outcome =
      match sess with
      | None ->
        Protocol.Failed
          (Hgp_error.Invalid_input
             {
               context = "server.update";
               msg =
                 Printf.sprintf
                   "unknown session %S (open one with a solve request carrying \
                    \"session\")"
                   u.Protocol.u_session;
             })
      | Some sess -> (
        Obs.span "server.update" @@ fun () ->
        (* The budget left when the update starts, like a solve's. *)
        let deadline =
          Deadline.of_budget_ms
            (Option.map
               (fun d -> d -. (Int64.to_float (Int64.sub t0 pu.u_submit_ns) /. 1e6))
               u.Protocol.u_deadline_ms)
        in
        try
          match Pipeline.resolve_delta ~deadline sess pu.delta with
          | Some r ->
            let sol = r.Pipeline.u_solution in
            Protocol.Updated
              {
                up_cost = sol.Solver.cost;
                up_violation = sol.Solver.max_violation;
                up_churn = r.Pipeline.churn;
                up_resolved_subtrees = r.Pipeline.resolved_subtrees;
                up_reused_subtrees = r.Pipeline.reused_subtrees;
                up_incremental = true;
                up_certified = r.Pipeline.certified;
                up_assignment = sol.Solver.assignment;
              }
          | None ->
            let inst = Pipeline.session_instance sess in
            let options = Pipeline.session_options sess in
            Protocol.Failed
              (Hgp_error.Infeasible
                 {
                   resolution = Pipeline.resolution_of inst options;
                   retried = false;
                   msg =
                     "post-delta instance is infeasible at the session's \
                      resolution; submit a fresh solve request";
                 })
        with
        | Hgp_error.Error e -> Protocol.Failed e
        | exn ->
          Protocol.Failed
            (Hgp_error.Internal
               { stage = "server.update"; msg = Hgp_error.message_of_exn exn }))
    in
    let solve_ms = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e6 in
    (pu.u_index, { Protocol.id = u.Protocol.u_id; outcome; queue_ms; solve_ms })
  end

let tally t (responses : Protocol.response list) steals =
  with_lock t (fun () ->
      let s = ref { t.stats with steals = t.stats.steals + steals } in
      List.iter
        (fun (r : Protocol.response) ->
          match r.Protocol.outcome with
          | Protocol.Solved sol ->
            s := { !s with ok = !s.ok + 1 };
            if sol.Protocol.degraded then s := { !s with degraded = !s.degraded + 1 };
            if sol.Protocol.cache_hit then s := { !s with cache_hits = !s.cache_hits + 1 }
          | Protocol.Updated _ ->
            s := { !s with ok = !s.ok + 1; updates = !s.updates + 1 }
          | Protocol.Failed (Hgp_error.Deadline_exceeded _) ->
            s :=
              { !s with errors = !s.errors + 1; deadline_expired = !s.deadline_expired + 1 }
          | Protocol.Failed _ -> s := { !s with errors = !s.errors + 1 })
        responses;
      t.stats <- !s);
  List.iter
    (fun (r : Protocol.response) ->
      match r.Protocol.outcome with
      | Protocol.Solved sol ->
        Obs.count "server.responses.ok" 1;
        if sol.Protocol.degraded then Obs.count "server.degraded" 1;
        if sol.Protocol.cache_hit then Obs.count "server.cache_hits" 1
      | Protocol.Updated _ ->
        Obs.count "server.responses.ok" 1;
        Obs.count "server.updates" 1
      | Protocol.Failed (Hgp_error.Deadline_exceeded _) ->
        Obs.count "server.responses.error" 1;
        Obs.count "server.deadline_expired" 1
      | Protocol.Failed _ -> Obs.count "server.responses.error" 1)
    responses

let drain t =
  let batch, updates =
    with_lock t (fun () ->
        let grabbed = List.rev t.queue in
        let upds = List.rev t.update_queue in
        t.queue <- [];
        t.update_queue <- [];
        t.queued <- t.queued - List.length grabbed - List.length upds;
        (grabbed, upds))
  in
  if batch = [] && updates = [] then []
  else begin
    with_lock t (fun () -> t.stats <- { t.stats with batches = t.stats.batches + 1 });
    Obs.count "server.batches" 1;
    Obs.gauge "server.queue_depth"
      (float_of_int (List.length batch + List.length updates));
    Obs.span "server.drain" @@ fun () ->
    let responses = ref [] in
    let steals = ref 0 in
    if batch <> [] then begin
      (* Coalesce by affinity key, preserving first-seen order so the response
         order and the shard layout are both deterministic. *)
      let tbl : (Fingerprint.t, pending list ref) Hashtbl.t = Hashtbl.create 32 in
      let order = ref [] in
      List.iter
        (fun p ->
          let k = p.resolved.Protocol.key in
          match Hashtbl.find_opt tbl k with
          | None ->
            Hashtbl.add tbl k (ref [ p ]);
            order := k :: !order
          | Some r -> r := p :: !r)
        batch;
      let groups =
        !order
        |> List.rev_map (fun k ->
               let members = List.rev !(Hashtbl.find tbl k) in
               let priority =
                 List.fold_left
                   (fun a p -> max a p.resolved.Protocol.request.Protocol.priority)
                   min_int members
               in
               { key = k; members; priority })
        |> List.rev
        |> Array.of_list
      in
      Log.info (fun m ->
          m "drain: %d requests in %d groups over %d workers" (List.length batch)
            (Array.length groups) t.config.workers);
      let results, sstats =
        Scheduler.run ~pool:t.pool ~shards:t.config.workers
          ~shard_of:(fun g -> g.key)
          ~priority_of:(fun g -> g.priority)
          ~f:(handle t) groups
      in
      steals := sstats.Scheduler.steals;
      Array.iteri
        (fun gi slot ->
          match slot with
          | Ok rs -> responses := rs @ !responses
          | Error exn ->
            (* The per-group fence failed — answer every member structurally
               rather than dropping them. *)
            let msg = Hgp_error.message_of_exn exn in
            List.iter
              (fun p ->
                responses :=
                  ( p.index,
                    {
                      Protocol.id = p.resolved.Protocol.request.Protocol.id;
                      outcome =
                        Protocol.Failed
                          (Hgp_error.Internal { stage = "server.dispatch"; msg });
                      queue_ms = 0.;
                      solve_ms = 0.;
                    } )
                  :: !responses)
              groups.(gi).members)
        results
    end;
    if updates <> [] then begin
      Log.info (fun m -> m "drain: %d updates" (List.length updates));
      let dispatch_ns = Obs.now_ns () in
      List.iter
        (fun pu -> responses := run_update t pu ~dispatch_ns :: !responses)
        (List.sort (fun a b -> compare a.u_index b.u_index) updates)
    end;
    let ordered =
      List.sort (fun (a, _) (b, _) -> compare a b) !responses |> List.map snd
    in
    tally t ordered !steals;
    ordered
  end

let shutdown t =
  with_lock t (fun () -> t.stopping <- true);
  let rest = drain t in
  Domain_pool.shutdown t.pool;
  rest
