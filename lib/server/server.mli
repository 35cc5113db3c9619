(** Long-running batch solve service over the artifact caches.

    The service model is {e windowed batching}: requests of both kinds —
    solves and session updates — are admitted into one bounded queue
    ({!submit_any}) and dispatched as a batch ({!drain}) onto a
    dedicated worker-domain pool through the cache-affine {!Scheduler}.  The
    process-wide [Ensemble_cache] and packed-solution LRUs are shared by the
    whole fleet, so a graph that has been embedded once is never embedded
    again, no matter which request — or which worker — asks next.

    Guarantees (see [docs/SERVING.md] for the full contract):

    - {b bounded admission}: once [queue_limit] requests are pending, further
      submits are rejected with a structured
      [Hgp_error.Overloaded] response — load sheds at the front door, never
      by falling over mid-solve;
    - {b per-request deadlines}: a request whose budget expired while it
      waited in the queue is answered with a [Deadline_exceeded] error
      without being solved; one that reaches a worker solves under its
      {e remaining} budget via the supervised degradation ladder, so late
      requests degrade per-request instead of failing the batch;
    - {b coalescing}: requests with equal affinity keys (same instance and
      solve-determining options) in one drain are solved once; followers
      receive the same outcome marked [cache_hit] — duplicate in-flight
      requests are bit-identical by construction, not by luck;
    - {b isolation}: a request that fails — injected fault, infeasible
      instance, poisoned input — produces an error {e response}; the server,
      its workers, and every other request keep going;
    - {b graceful drain}: {!shutdown} stops admission, flushes everything
      already admitted, and joins the pool; nothing admitted is ever dropped.

    Telemetry: [server.*] counters/spans (see [docs/OBSERVABILITY.md]). *)

type config = {
  workers : int;
      (** scheduler shards, run concurrently: shard 0 on the draining
          thread, the others on [workers - 1] worker domains *)
  queue_limit : int;  (** bounded admission queue *)
  slack : float;  (** capacity slack for the heuristic fallback rungs *)
}

(** [{workers = max 1 (recommended_domain_count () - 1); queue_limit = 256;
     slack = 1.25}] *)
val default_config : config

type stats = {
  submitted : int;
  admitted : int;
  rejected_overloaded : int;
  rejected_resolve : int;  (** parse / io failures at admission *)
  deadline_expired : int;  (** budget ran out while queued *)
  coalesced : int;  (** followers served by an identical in-flight solve *)
  ok : int;
  errors : int;
  degraded : int;
  cache_hits : int;  (** packed-cache hits + coalesced followers *)
  steals : int;
  batches : int;
  updates : int;  (** update requests answered with status ["updated"] *)
}

type t

(** [create ?config ()] — the pool is created immediately but its domains
    spawn lazily on the first drain. *)
val create : ?config:config -> unit -> t

val config : t -> config

(** Requests admitted but not yet drained. *)
val pending : t -> int

(** [submit_any t req] is the one admission entry, for solves and updates
    alike.  It counts the request, reserves a slot in the bounded queue
    (or rejects with [Overloaded] once [queue_limit] requests are pending,
    or after {!shutdown}), then resolves the work outside the lock: a solve's
    instance is parsed or loaded and its affinity key computed, an update's
    delta is parsed.  A request that does not resolve releases its slot and
    is rejected with its structured [Parse] / [Io_error] error.  Otherwise it
    is admitted, and its queue-wait clock starts.  Solves and updates share
    the queue budget and one submission index, so {!drain} answers both in
    submission order.

    {b Incremental sessions.}  A solve carrying [session = Some name] opens
    an exact [Hgp_multilevel.Vcycle] session — threshold [max_int], so it
    never coarsens — fail-fast: the response and the registered session
    embody the same bit-identical pipeline solution, and later updates
    naming the session re-solve only the dirty cone of the delta
    (docs/INCREMENTAL.md).  An instance infeasible at the base resolution
    opens its session through the solver's retry.  If the open still
    raises (infeasible after the retry, an expired budget, a fault), it is
    counted under [server.sessions.open_failed] and logged at warning
    level, the request falls back to the supervised degradation ladder,
    and {e no} session is registered — a fallback-rung answer has no DP
    snapshots to update.  Re-using a name replaces the session.  The
    session open runs under the request's remaining [deadline_ms] budget,
    and the ladder gets what is left of it.

    Updates execute during {!drain}, {e after} the solve batch (so a session
    opened in the same batch is visible, even by an update submitted before
    it) and in submission order.  Failure modes per update: unknown session
    → [Invalid_input]; a re-solve that outlives the remaining budget →
    [Deadline_exceeded] naming the stage that noticed; post-delta
    infeasibility after the retry → [Infeasible].  On every failure the
    session keeps its pre-delta state.  An [updated] response's
    [incremental] field is [false] for a structural delta, which re-solves
    the session from scratch.  Either kind whose budget expired while it was queued
    is answered [Deadline_exceeded] with stage ["queue"] without running. *)
val submit_any :
  t -> Protocol.any_request -> [ `Admitted | `Rejected of Protocol.response ]

(** Currently registered sessions. *)
val session_count : t -> int

(** [drain t] dispatches every pending request and returns their responses in
    submission order.  Blocks until the batch completes.  Never raises on
    request failures — those become error responses. *)
val drain : t -> Protocol.response list

(** [shutdown t] stops admission (subsequent submits are rejected as
    overloaded), drains what is pending, joins the pool, and returns the
    final responses.  Idempotent on an already-stopped server. *)
val shutdown : t -> Protocol.response list

(** Cumulative since {!create}. *)
val stats : t -> stats

(** One [key=value] summary line for operators ("submitted=… ok=… …"). *)
val render_stats : stats -> string
