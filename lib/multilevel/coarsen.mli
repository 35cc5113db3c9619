(** Heavy-edge-matching coarsening on CSR graphs.

    One step matches each vertex with its heaviest still-unmatched neighbor
    (visiting vertices in a seeded random permutation) and contracts matched
    pairs into super-vertices whose weights add up; repeating roughly halves
    the vertex count per level until the coarsest graph fits the exact
    solver.  Matching is capped: a pair is only merged while the combined
    vertex weight stays within [max_weight], so when vertex weights are
    demands every coarse vertex remains a valid demand
    ([Instance.create] requires [d <= leaf_capacity]).

    The matching traversal, tie-breaking (first strictly-heavier neighbor in
    ascending id order wins) and coarse-id assignment are shared verbatim
    with [Hgp_baselines.Multilevel], which delegates here — both produce
    bit-identical coarse graphs for the same seed. *)

(** One coarsening transition.  A level holds only what the uncoarsening
    walk reads: the two graphs and the map between them.  It carries no
    content address of its own; the hierarchy cache keys a whole chain by
    the fine graph and the coarsening parameters
    ([Vcycle]'s chain key), so no per-level fingerprint is computed. *)
type level = {
  fine : Hgp_graph.Csr.t;  (** the graph this transition coarsens *)
  cmap : int array;  (** fine vertex -> coarse vertex *)
  coarse : Hgp_graph.Csr.t;
}

(** Finest transition first; [(List.nth chain i).coarse == (List.nth chain
    (i+1)).fine]. *)
type chain = level list

(** [matching rng csr ~max_weight] is one heavy-edge matching: returns the
    fine->coarse map (dense coarse ids, assigned in ascending fine-id order)
    and the coarse vertex count.  Invariants (property-tested): each vertex
    appears in at most one matched pair, matched pairs are edges of [csr],
    and singletons map alone.

    The visit order is [Prng.permutation rng (Csr.n csr)] — the same draws
    from [rng] — but it is written, with each vertex's partner, into a
    per-domain buffer grown to the largest graph seen and reused by every
    later matching on that domain, so the returned map is the only array a
    matching allocates.  {!Hgp_graph.Csr.contract} likewise allocates only
    the coarse graph. *)
val matching :
  Hgp_util.Prng.t -> Hgp_graph.Csr.t -> max_weight:float -> int array * int

(** [step rng csr ~max_weight] is [matching] followed by
    {!Hgp_graph.Csr.contract}. *)
val step :
  Hgp_util.Prng.t -> Hgp_graph.Csr.t -> max_weight:float -> int array * Hgp_graph.Csr.t

(** [build rng csr ~threshold ~max_levels ~max_weight] coarsens until the
    vertex count is at most [threshold], a step stops shrinking the graph,
    or [max_levels] transitions accumulate.  It is {!rebuild} with
    [~prev:[] ~delta:[]]: both run the same loop. *)
val build :
  Hgp_util.Prng.t ->
  Hgp_graph.Csr.t ->
  threshold:int ->
  max_levels:int ->
  max_weight:float ->
  chain

(** [coarsest ~fine chain] is the last coarse graph, or [fine] itself for an
    empty chain. *)
val coarsest : fine:Hgp_graph.Csr.t -> chain -> Hgp_graph.Csr.t

type rebuild_result = {
  r_chain : chain;  (** bit-identical to [build rng csr ...] on the new graph *)
  r_fine_clean : bool array;
      (** per transition (finest first): the transition's [fine] graph is
          bit-identical to the previous run's graph at that depth *)
  r_coarse_clean : bool;
      (** the coarsest graph is bit-identical to the previous run's *)
  r_reused_levels : int;  (** transitions spliced without matching/contract *)
}

(** [rebuild rng csr ~prev ~delta ~threshold ~max_levels ~max_weight]
    recoarsens after an edge-weight-only change: [prev] is the chain a
    previous [build] (same seed and parameters) produced on a graph that
    differs from [csr] exactly on the undirected edge pairs in [delta]
    (vertex weights must be unchanged).  The result chain is bit-identical
    to a cold [build] on [csr] — matchings are recomputed per level so the
    rng stays in lockstep — but once the mapped delta contracts away, the
    cached suffix is reused wholesale. *)
val rebuild :
  Hgp_util.Prng.t ->
  Hgp_graph.Csr.t ->
  prev:chain ->
  delta:(int * int) list ->
  threshold:int ->
  max_levels:int ->
  max_weight:float ->
  rebuild_result
