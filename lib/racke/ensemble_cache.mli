(** Process-wide memo of sampled decomposition-tree ensembles.

    Räcke's embedding is {e oblivious}: the tree distribution depends only on
    the graph, never on the demands, the hierarchy, or the rounding of the
    solve that uses it (PAPER.md Theorems 6–7; Andersen–Feige make the
    duality explicit).  An ensemble is therefore determined by exactly
    [(graph, strategy, seed, size)] — everything else about a solve may
    change and the same trees remain valid and bit-identical, which is what
    makes this cache legal (see [docs/ARCHITECTURE.md] for the argument).

    The cache holds {!Ensemble.t} values, which are immutable after
    sampling; callers share entries freely across domains.  It is the
    [ensemble] {!Hgp_resilience.Artifact_cache}, so it obeys the one caching
    switch and is bypassed (reads and writes) while a fault plan is armed:
    every [decomposition.build] fault site still fires exactly as in an
    uncached build, and no faulted artifact is ever retained.  The lookup
    itself is the [ensemble_cache.lookup] fault site, fired before the
    bypass decision. *)

(** [key g ~strategy ~seed ~size] is the content-addressed cache key — the
    ensemble component of downstream (packed-solution) cache keys. *)
val key :
  Hgp_graph.Graph.t ->
  strategy:Ensemble.strategy ->
  seed:int ->
  size:int ->
  Hgp_util.Fingerprint.t

(** [sample ~strategy ~seed g ~size] is [Ensemble.sample] memoized on
    {!key}; the PRNG is created from [seed] internally so a cache hit and a
    fresh sample are bit-identical.  Returns [(ensemble, from_cache)]. *)
val sample :
  strategy:Ensemble.strategy -> seed:int -> Hgp_graph.Graph.t -> size:int -> Ensemble.t * bool

(** [sample_isolated] is the fault-isolated variant used by the supervised
    solve.  A cached (complete) ensemble is served with an empty failure
    list — exactly what [Ensemble.sample_isolated] returns when nothing
    fails, which is the only case that is ever stored: partial ensembles
    (build failures or deadline expiry) are never cached. *)
val sample_isolated :
  strategy:Ensemble.strategy ->
  ?deadline:Hgp_resilience.Deadline.t ->
  seed:int ->
  Hgp_graph.Graph.t ->
  size:int ->
  (Ensemble.t * (int * exn) list) * bool
