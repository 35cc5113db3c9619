module Fingerprint = Hgp_util.Fingerprint
module Domain_pool = Hgp_util.Domain_pool
module Obs = Hgp_obs.Obs
module Hgp_error = Hgp_resilience.Hgp_error
module Deadline = Hgp_resilience.Deadline
module Solver = Hgp_core.Solver
module Delta = Hgp_core.Delta
module Vcycle = Hgp_multilevel.Vcycle
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

(* One admitted request of either kind: a solve carries its resolved
   instance, an update its session name and the delta parsed at admission. *)
type work = Solve of Protocol.resolved | Update of (string * Delta.t)

type 'w pending = {
  id : string;
  deadline_ms : float option;
  work : 'w;
  submit_ns : int64;
  index : int;  (* submission order, shared by both kinds *)
}

type t = {
  config : config;
  pool : Domain_pool.t;
  mutex : Mutex.t;
  mutable queue : work pending list;  (* newest first *)
  mutable queued : int;
  mutable next_index : int;
  mutable stopping : bool;
  mutable stats : stats;
  coalesced_live : int Atomic.t;  (* bumped on worker domains, folded in [stats] *)
  smutex : Mutex.t;  (* guards [sessions]; never held with [mutex] *)
  sessions : (string, Vcycle.session) Hashtbl.t;
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

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* Both kinds share one admission budget and index space, so responses
   interleave in submission order and back-pressure covers all work.  The
   slot is reserved under the lock; the (possibly expensive) instance or
   delta parse happens outside it.  The queue-wait clock starts here. *)
let submit_any t (req : Protocol.any_request) =
  Obs.count "server.requests" 1;
  let id, deadline_ms =
    match req with
    | Protocol.Solve r -> (r.Protocol.id, r.Protocol.deadline_ms)
    | Protocol.Update u -> (u.Protocol.u_id, u.Protocol.u_deadline_ms)
  in
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
      (Protocol.failed id (Hgp_error.Overloaded { queued; limit = t.config.queue_limit }))
  | `Reserved index -> (
    let submit_ns = Obs.now_ns () in
    let work =
      match req with
      | Protocol.Solve r -> Result.map (fun res -> Solve res) (Protocol.resolve r)
      | Protocol.Update u -> (
        match Delta.of_string u.Protocol.u_delta with
        | exception Hgp_error.Error e -> Error e
        | delta -> Ok (Update (u.Protocol.u_session, delta)))
    in
    match work with
    | Error e ->
      with_lock t (fun () ->
          t.queued <- t.queued - 1;
          t.stats <- { t.stats with rejected_resolve = t.stats.rejected_resolve + 1 });
      Obs.count "server.rejected.resolve" 1;
      `Rejected (Protocol.failed id e)
    | Ok work ->
      with_lock t (fun () ->
          t.queue <- { id; deadline_ms; work; submit_ns; index } :: t.queue;
          t.stats <- { t.stats with admitted = t.stats.admitted + 1 });
      Obs.count "server.admitted" 1;
      `Admitted)

(* ---- dispatch ---- *)

let respond p ~queue_ms ~solve_ms outcome =
  (p.index, { Protocol.id = p.id; outcome; queue_ms; solve_ms })

(* The queue wait of [p] at [dispatch_ns], or — when its budget ran out
   while it waited — its structured deadline response: it is not run. *)
let dequeue ~dispatch_ns p =
  let queue_ms = ms_between p.submit_ns dispatch_ns in
  Obs.gauge_max "server.queue_wait_max_ms" queue_ms;
  match p.deadline_ms with
  | Some budget_ms when queue_ms >= budget_ms ->
    Either.Right
      (respond p ~queue_ms ~solve_ms:0.
         (Protocol.Failed
            (Hgp_error.Deadline_exceeded
               { budget_ms; elapsed_ms = queue_ms; stage = "queue" })))
  | _ -> Either.Left (p, queue_ms)

(* The budget [p] has left when its work starts at [now_ns]. *)
let budget_left p ~now_ns =
  Deadline.of_budget_ms
    (Option.map (fun d -> d -. ms_between p.submit_ns now_ns) p.deadline_ms)

type group = { key : Fingerprint.t; members : Protocol.resolved pending list; priority : int }

(* Session-bearing solves open an exact session (a V-cycle that never
   coarsens) fail-fast, under the request's remaining budget, so the
   registered session state and the response embody the same bit-identical
   pipeline solution.  On a structured error (infeasible after the retry,
   an expired deadline, an injected fault) the open is counted and logged,
   and the group falls back to the supervised ladder below with nothing
   registered — a fallback-rung answer has no DP snapshots to update
   incrementally.
   Distinct session names in one coalesced group each get their own session
   (the repeat solves hit the warm caches); the solutions are bit-identical,
   so answering the group from the first is sound. *)
let register_sessions t ~deadline ~inst ~options alive =
  let names =
    List.filter_map (fun (p, _) -> p.work.Protocol.request.Protocol.session) alive
    |> List.sort_uniq compare
  in
  let options = { Vcycle.default_options with threshold = max_int; solver = options } in
  List.fold_left
    (fun acc name ->
      match Vcycle.start_session ~deadline ~options inst with
      | exception Hgp_error.Error e ->
        Obs.count "server.sessions.open_failed" 1;
        Log.warn (fun m ->
            m "session %S not opened, answering from the ladder: %s" name
              (Hgp_error.to_string e));
        acc
      | sess, r ->
        with_slock t (fun () -> Hashtbl.replace t.sessions name sess);
        Obs.count "server.sessions.opened" 1;
        (match acc with None -> Some r.Vcycle.solution | some -> some))
    None names

(* Runs on a shard worker, whose per-item fence catches what escapes.
   Answers every member of one coalesced group: queue-expired members get
   their structured deadline error, the survivors share one solve — a
   session open, else the supervised ladder — under the leader's remaining
   budget. *)
let handle t group =
  let dispatch_ns = Obs.now_ns () in
  let alive, expired = List.partition_map (dequeue ~dispatch_ns) group.members in
  match alive with
  | [] -> expired
  | (leader, leader_queue_ms) :: followers ->
    if followers <> [] then begin
      Atomic.fetch_and_add t.coalesced_live (List.length followers) |> ignore;
      Obs.count "server.coalesced" (List.length followers)
    end;
    let { Protocol.inst; options; _ } = leader.work in
    let deadline = budget_left leader ~now_ns:dispatch_ns in
    let t0 = Obs.now_ns () in
    let result =
      Obs.span "server.solve" (fun () ->
          match register_sessions t ~deadline ~inst ~options alive with
          | Some sol -> Ok (sol, "ensemble", false, 0)
          | None ->
            Solver.solve_supervised ~options
              ?deadline_ms:(Deadline.remaining_ms deadline)
              ~fallbacks:(B.Portfolio.ladder ~slack:t.config.slack ~seed:options.Solver.seed)
              inst
            |> Result.map (fun (s : Solver.supervised) ->
                   ( s.Solver.solution,
                     s.Solver.rung,
                     s.Solver.degraded,
                     List.length s.Solver.tree_failures )))
    in
    let solve_ms = ms_between t0 (Obs.now_ns ()) in
    let outcome ~follower =
      match result with
      | Error e -> Protocol.Failed e
      | Ok (sol, rung, degraded, tree_failures) ->
        Protocol.Solved
          {
            cost = sol.Solver.cost;
            violation = sol.Solver.max_violation;
            rung;
            degraded;
            tree_failures;
            cache_hit =
              follower || (sol.Solver.dp_states = 0 && sol.Solver.cached_dp_states > 0);
            dp_states = sol.Solver.dp_states;
            cached_dp_states = sol.Solver.cached_dp_states;
            assignment = sol.Solver.assignment;
          }
    in
    respond leader ~queue_ms:leader_queue_ms ~solve_ms (outcome ~follower:false)
    :: List.map
         (fun (p, queue_ms) -> respond p ~queue_ms ~solve_ms:0. (outcome ~follower:true))
         followers
    @ expired

(* Runs on the drain thread, after the solve batch: sessions opened by
   same-batch solves are visible, and per-session serialization (the
   [Vcycle.resolve_delta] contract) comes for free.  The [try] is the
   update's fence, as the scheduler's is a group's. *)
let run_update t ~dispatch_ns p =
  match dequeue ~dispatch_ns p with
  | Either.Right expired -> expired
  | Either.Left (p, queue_ms) ->
    let name, delta = p.work in
    let sess = with_slock t (fun () -> Hashtbl.find_opt t.sessions name) in
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
                   name;
             })
      | Some sess -> (
        Obs.span "server.update" @@ fun () ->
        let deadline = budget_left p ~now_ns:t0 in
        try
          let r = Vcycle.resolve_delta ~deadline sess delta in
          let sol = r.Vcycle.u_result.Vcycle.solution in
          Protocol.Updated
            {
              up_cost = sol.Solver.cost;
              up_violation = sol.Solver.max_violation;
              up_churn = r.Vcycle.u_churn;
              up_resolved_subtrees = r.Vcycle.u_resolved_subtrees;
              up_reused_subtrees = r.Vcycle.u_reused_subtrees;
              up_incremental = r.Vcycle.u_incremental;
              up_certified = r.Vcycle.u_certified;
              up_assignment = sol.Solver.assignment;
            }
        with
        | Hgp_error.Error e -> Protocol.Failed e
        | exn ->
          Protocol.Failed
            (Hgp_error.Internal
               { stage = "server.update"; msg = Hgp_error.message_of_exn exn }))
    in
    respond p ~queue_ms ~solve_ms:(ms_between t0 (Obs.now_ns ())) outcome

(* One pass over the drained responses feeds both [stats] and the
   [server.*] counters. *)
let tally t (responses : Protocol.response list) steals =
  let bump name = Obs.count name 1 in
  let add (s : stats) (r : Protocol.response) =
    match r.Protocol.outcome with
    | Protocol.Solved sol ->
      bump "server.responses.ok";
      let s = { s with ok = s.ok + 1 } in
      let s =
        if sol.Protocol.degraded then (
          bump "server.degraded";
          { s with degraded = s.degraded + 1 })
        else s
      in
      if sol.Protocol.cache_hit then (
        bump "server.cache_hits";
        { s with cache_hits = s.cache_hits + 1 })
      else s
    | Protocol.Updated _ ->
      bump "server.responses.ok";
      bump "server.updates";
      { s with ok = s.ok + 1; updates = s.updates + 1 }
    | Protocol.Failed (Hgp_error.Deadline_exceeded _) ->
      bump "server.responses.error";
      bump "server.deadline_expired";
      { s with errors = s.errors + 1; deadline_expired = s.deadline_expired + 1 }
    | Protocol.Failed _ ->
      bump "server.responses.error";
      { s with errors = s.errors + 1 }
  in
  with_lock t (fun () ->
      t.stats <- List.fold_left add { t.stats with steals = t.stats.steals + steals } responses)

(* Coalesce solves by affinity key, preserving first-seen order so the
   response order and the shard layout are both deterministic. *)
let groups_of solves =
  let tbl : (Fingerprint.t, Protocol.resolved pending list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let order = ref [] in
  List.iter
    (fun p ->
      let k = p.work.Protocol.key in
      match Hashtbl.find_opt tbl k with
      | None ->
        Hashtbl.add tbl k (ref [ p ]);
        order := k :: !order
      | Some r -> r := p :: !r)
    solves;
  !order
  |> List.rev_map (fun k ->
         let members = List.rev !(Hashtbl.find tbl k) in
         let priority =
           List.fold_left
             (fun a p -> max a p.work.Protocol.request.Protocol.priority)
             min_int members
         in
         { key = k; members; priority })
  |> List.rev
  |> Array.of_list

let drain t =
  let grabbed =
    with_lock t (fun () ->
        let grabbed = List.rev t.queue in
        t.queue <- [];
        t.queued <- t.queued - List.length grabbed;
        grabbed)
  in
  if grabbed = [] then []
  else begin
    with_lock t (fun () -> t.stats <- { t.stats with batches = t.stats.batches + 1 });
    Obs.count "server.batches" 1;
    Obs.gauge "server.queue_depth" (float_of_int (List.length grabbed));
    Obs.span "server.drain" @@ fun () ->
    let solves, updates =
      List.partition_map
        (fun p ->
          match p.work with
          | Solve r -> Either.Left { p with work = r }
          | Update u -> Either.Right { p with work = u })
        grabbed
    in
    let solved, steals =
      if solves = [] then ([], 0)
      else begin
        let groups = groups_of solves in
        Log.info (fun m ->
            m "drain: %d requests in %d groups over %d workers" (List.length solves)
              (Array.length groups) t.config.workers);
        let results, sstats =
          Scheduler.run ~pool:t.pool ~shards:t.config.workers
            ~shard_of:(fun g -> g.key)
            ~priority_of:(fun g -> g.priority)
            ~f:(handle t) groups
        in
        ( List.concat
            (List.mapi
               (fun gi slot ->
                 match slot with
                 | Ok rs -> rs
                 | Error exn ->
                   (* The group's fence caught a raise: answer every member
                      structurally rather than dropping them. *)
                   let e =
                     Hgp_error.Internal
                       { stage = "server.dispatch"; msg = Hgp_error.message_of_exn exn }
                   in
                   List.map
                     (fun p -> respond p ~queue_ms:0. ~solve_ms:0. (Protocol.Failed e))
                     groups.(gi).members)
               (Array.to_list results)),
          sstats.Scheduler.steals )
      end
    in
    let updated =
      if updates = [] then []
      else begin
        Log.info (fun m -> m "drain: %d updates" (List.length updates));
        let dispatch_ns = Obs.now_ns () in
        List.map (run_update t ~dispatch_ns) updates
      end
    in
    let ordered =
      List.sort (fun (a, _) (b, _) -> compare a b) (solved @ updated) |> List.map snd
    in
    tally t ordered steals;
    ordered
  end

let shutdown t =
  with_lock t (fun () -> t.stopping <- true);
  let rest = drain t in
  Domain_pool.shutdown t.pool;
  rest
