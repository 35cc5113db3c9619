(** Sharded, cache-affine batch scheduler with work stealing.

    A batch of items is partitioned into [shards] home queues by a
    fingerprint ({!shard_of_fingerprint}), so items with equal keys — and
    therefore interchangeable cached artifacts — always share a home shard
    and run back-to-back on the same worker, turning the process-wide
    [Ensemble_cache] / packed-solution LRUs into per-shard warm caches.
    Within a shard, items run in priority order (higher first; ties keep
    submission order).

    Affinity alone strands workers when the key distribution is skewed, so
    idle runners {e steal from the back} of sibling queues — the lowest
    priority, latest-arrival end — bounding the tail at the cost of a
    cold-cache execution for the stolen item.  Steals are counted
    ([server.steals] and {!stats}).

    Execution rides the existing {!Hgp_util.Domain_pool}: one runner task per
    shard is dispatched via [run_batch] — runner 0 on the calling thread —
    inheriting its per-slot crash capture, its inline fallback when domains
    are unavailable, and its "no task outlives the call" guarantee.  The
    caller's open telemetry span is the parent of every item's spans,
    whichever runner executes it.  Every item is additionally
    fenced: an item that raises fills its own slot with [Error] and the
    runner moves on — one poisoned request never takes down its shard. *)

type stats = {
  steals : int;  (** items executed away from their home shard *)
  per_shard : int array;
      (** items {e assigned} to each home shard (length = effective shard
          count) — deterministic, unlike who executed them *)
}

(** Deterministic home shard of a fingerprint, [0 <= result < shards]. *)
val shard_of_fingerprint : Hgp_util.Fingerprint.t -> shards:int -> int

(** [run ~pool ~shards ~shard_of ~priority_of ~f items] executes [f] on every
    item and returns per-item results in input order, plus scheduling stats.
    The effective shard count is [min shards (Array.length items)], at least
    1.  Blocks until every item completed; at most
    [min shards (Domain_pool.size pool + 1)] items run concurrently, the
    caller running one. *)
val run :
  pool:Hgp_util.Domain_pool.t ->
  shards:int ->
  shard_of:('a -> Hgp_util.Fingerprint.t) ->
  priority_of:('a -> int) ->
  f:('a -> 'b) ->
  'a array ->
  ('b, exn) result array * stats
