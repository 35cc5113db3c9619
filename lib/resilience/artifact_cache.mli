(** Process-wide artifact caches: every memo of solve artifacts (sampled
    ensembles, packed solutions, per-subtree DP snapshots, coarsening
    chains) is one of these.

    Each cache is a bounded {!Hgp_util.Lru} behind its own mutex, so callers
    on any domain share it without locking.  All caches obey one rule: while
    the switch is off ({!set_enabled}[ false]) or a fault plan is armed
    ({!Faults.armed}), {!find} misses and {!add} drops the value without
    touching the cache or its counters — every fault site then fires as in
    an uncached run, and no faulted artifact is retained.  A cache only
    stores values that are bit-identical to what a miss would recompute;
    the owners state their key's legality argument ([docs/ARCHITECTURE.md]
    has the table).

    Telemetry: every lookup counts [cache.hit] or [cache.miss] and
    [cache.NAME.hit] or [cache.NAME.miss]; an insertion that evicts counts
    [cache.evict] and [cache.NAME.evict]. *)

type ('k, 'v) t

(** [create ~name ~capacity] makes an empty cache and registers it under
    [name] for {!clear_all}, {!stats_all} and {!reset_all}; the registry
    keeps creation order.  Meant for module initialization, once per name.
    @raise Invalid_argument when [capacity < 1]. *)
val create : name:string -> capacity:int -> ('k, 'v) t

(** [find t k] is the cached value under [k], refreshing its recency;
    [None] when absent or when caching is bypassed (see above). *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [add t k v] stores [v] under [k], evicting the least-recently-used
    entry when full; a no-op when caching is bypassed. *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

(** The one caching switch, on by default; [set_enabled false] makes every
    cache miss and drop (tests and cold oracles use it to force cold
    solves). *)
val set_enabled : bool -> unit

(** Drop every registered cache's entries; hit/miss/eviction histories
    survive. *)
val clear_all : unit -> unit

(** [(name, stats)] per registered cache, in creation order. *)
val stats_all : unit -> (string * Hgp_util.Lru.stats) list

(** Zero every registered cache's hit/miss/eviction history. *)
val reset_all : unit -> unit
