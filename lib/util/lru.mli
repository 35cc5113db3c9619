(** Bounded least-recently-used maps for artifact caches.

    Designed for a handful of large values (decomposition-tree ensembles,
    packed solutions), not for high entry counts: recency is tracked with a
    generation stamp per entry and eviction scans all entries for the oldest
    stamp, so [find]/[add] are O(1) amortized hash operations but each
    eviction is O(capacity).  With the intended capacities (tens of entries)
    this is cheaper and simpler than an intrusive list.

    Not thread-safe — callers that share a cache across domains must hold
    their own lock around every call ([Hgp_resilience.Artifact_cache], the
    home of every process-wide cache, does). *)

type ('k, 'v) t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** current occupancy *)
}

(** [create ~capacity] — requires [capacity >= 1]. *)
val create : capacity:int -> ('k, 'v) t

(** [find t k] returns the cached value and refreshes its recency;
    counts a hit or a miss. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [add t k v] inserts or replaces the binding, evicting the
    least-recently-used entry when the cache is full.  Neither path counts
    as a hit or miss. *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

(** [mem t k] tests presence without touching recency or hit/miss stats. *)
val mem : ('k, 'v) t -> 'k -> bool

val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int

(** Drops all entries and (unlike {!stats} accumulation) keeps the
    hit/miss/eviction history intact. *)
val clear : ('k, 'v) t -> unit

val stats : ('k, 'v) t -> stats

(** Zeroes the hit/miss/eviction history without touching entries. *)
val reset_stats : ('k, 'v) t -> unit
