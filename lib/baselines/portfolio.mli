(** Portfolio solver: run the approximation algorithm and the classical
    heuristics, refine each with hierarchy-aware local search, and return the
    best assignment found — the pragmatic "production" entry point that
    combines the paper's guarantee with heuristic polish.

    Candidates: the HGP solver (Theorem 1 pipeline), greedy placement,
    multilevel k-BGP with optimized part-to-leaf mapping, and dual recursive
    bipartitioning.  Every candidate is post-processed by
    {!Local_search.refine} under the given slack. *)

type entry = {
  name : string;
  assignment : int array;
  cost : float;
  violation : float;
}

type result = {
  best : entry;  (** lowest cost among candidates within the slack *)
  entries : entry list;  (** every candidate, sorted by cost *)
}

(** [solve ?solver_options ?include_hgp rng inst ~slack ~refine_passes] runs
    the whole portfolio.  When no candidate respects [slack], the
    lowest-violation one wins instead.  [include_hgp] (default [true]) also
    runs the Theorem-1 solver; the supervised solve's degradation ladder
    passes [false], since by the time the portfolio is a fallback the
    pipeline has already failed. *)
val solve :
  ?solver_options:Hgp_core.Solver.options ->
  ?include_hgp:bool ->
  Hgp_util.Prng.t ->
  Hgp_core.Instance.t ->
  slack:float ->
  refine_passes:int ->
  result

(** [ladder ~slack ~seed] is the supervised solve's fallback rungs below the
    pipeline, the ones the CLI's [solve] and the batch server install: this
    portfolio without the hgp candidate (the pipeline has just failed above
    it) and two refinement passes, then plain dual recursive bisection.
    Each rung draws from a fresh [Prng.create seed], so its answer does not
    depend on what ran before it. *)
val ladder : slack:float -> seed:int -> Hgp_core.Solver.fallback list
