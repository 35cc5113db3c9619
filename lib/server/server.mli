(** Long-running batch solve service over the artifact caches.

    The service model is {e windowed batching}: requests are admitted into a
    bounded queue ({!submit}) and dispatched as a batch ({!drain}) onto a
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

(** [submit t req] resolves the request (parsing the embedded instance,
    computing the affinity key) and admits it, or returns the ready-to-send
    rejection response ([overloaded], [parse], [io], ...).  The queue-wait
    clock starts here. *)
val submit : t -> Protocol.request -> [ `Admitted | `Rejected of Protocol.response ]

(** {1 Incremental sessions}

    A solve request carrying [session = Some name] is solved fail-fast
    through [Pipeline.start_session]: the response and the registered
    session embody the same bit-identical pipeline solution, and later
    {!submit_update} requests naming the session re-solve only the dirty
    cone of the delta (docs/INCREMENTAL.md).  If the fail-fast solve is
    infeasible or raises, the request falls back to the supervised
    degradation ladder and {e no} session is registered — a fallback-rung
    answer has no DP snapshots to update.  Re-using a name replaces the
    session.  The session open runs under the request's remaining
    [deadline_ms] budget: an open that expires registers nothing and falls
    back to the ladder with what is left of the budget. *)

(** [submit_update t u] admits a delta against a named session under the
    same bounded queue ([Overloaded] past the limit); a malformed delta is
    rejected at admission with its structured [Parse] error.  Updates
    execute during {!drain}, {e after} the solve batch (so a session opened
    in the same batch is visible) and in submission order; responses
    interleave with solve responses by submission index.  Failure modes per
    update: unknown session → [Invalid_input]; queue-expired deadline →
    [Deadline_exceeded] with stage ["queue"]; a re-solve that outlives the
    remaining budget → [Deadline_exceeded] naming the stage that noticed;
    post-delta infeasibility → [Infeasible].  On every failure the session
    keeps its pre-delta state. *)
val submit_update :
  t -> Protocol.update_request -> [ `Admitted | `Rejected of Protocol.response ]

(** Dispatches on the request kind. *)
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
