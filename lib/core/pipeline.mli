(** The Theorem-1 solve as an explicit staged pipeline with memoizable,
    content-addressed artifacts.

    {v
      Instance × options
        │  prepare     (validate, pick resolution, quantize demands)
        ▼
      Prepared ──────────────────────────── key: instance ⊕ eps ⊕
        │  embed       (sample Räcke ensemble;      resolution ⊕ rounding
        ▼               memoized in Ensemble_cache)
      Embedded ─────────────────────────── key: graph ⊕ strategy ⊕ seed ⊕ size
        │  relax       (per-tree DP, Theorems 2–4; one task per tree on the shared domain pool)
        ▼
      Relaxed  (per-tree kappa labelings + work counts)
        │  pack        (Theorem-5 conversion per tree, best by true cost)
        ▼
      Packed   ─────────────────────────── key: prepared ⊕ embedded ⊕
                                                bucketing ⊕ beam width
    v}

    Each stage is a pure function of its inputs, every input is captured by
    the stage's fingerprint key, and the two expensive artifacts (ensembles,
    packed solutions) are cached process-wide: a repeated solve, the 4×
    infeasibility retry (same ensemble key — only the resolution changed),
    every [Portfolio.solve] candidate sweep and every supervised-rung descent
    reuse them instead of re-sampling.  The relax stage always runs the
    trees as one batch on the shared domain pool ({!Hgp_util.Domain_pool}),
    the caller working its own lane; per-tree work is independent and shares
    only immutable data, and selection runs in tree order afterwards, so the
    answer does not depend on the core count.  The reuse-legality
    argument and the full key table live in [docs/ARCHITECTURE.md].

    Fault-injection interplay: every cache is an
    {!Hgp_resilience.Artifact_cache} — the ensemble, packed-solution and
    per-subtree snapshot caches here and the multilevel front-end's
    coarsening-chain cache — so while a fault plan is armed {e all} of them
    are bypassed (reads and writes): every [HGP_FAULT_PLAN] site still fires
    at its stage boundary and no faulted artifact is ever retained.

    Delta streams have one session type, [Hgp_multilevel.Vcycle.session]:
    {!run_incremental} is its coarse solve, and an exact session is a
    V-cycle session whose [threshold] is [max_int], so it never coarsens
    and every update runs this pipeline on the whole instance.

    This module owns {!options} / {!solution} (declared once, in {!Types});
    {!Solver} re-exports them, so existing code and tests compile unchanged
    against [Solver.*]. *)

(** The solve's option and result records, declared once: this module and
    {!Solver} both include them. *)
module Types : sig
  type options = {
    ensemble_size : int;  (** number of decomposition trees sampled *)
    eps : float;  (** rounding accuracy; drives resolution unless set *)
    resolution : int option;
        (** demand units per leaf capacity; default caps the paper's
            [n / eps] at {!default_max_resolution} to keep the DP practical
            (the cap is a documented substitution) *)
    rounding : Demand.mode;
    bucketing : float option;
    beam_width : int option;
        (** DP state budget per table (see {!Tree_dp.config}); [Some 512] by
            default — exact on small frontiers, graceful on large ones *)
    strategy : Hgp_racke.Ensemble.strategy;
        (** decomposition-tree shapes; [Mixed] (default) round-robins
            low-diameter / BFS-bisection / Gomory–Hu shapes for diversity *)
    seed : int;
  }

  type solution = {
    assignment : int array;  (** vertex -> hierarchy leaf *)
    cost : float;  (** Equation-1 cost of [assignment] on the graph *)
    max_violation : float;  (** true-demand violation factor (1.0 = feasible) *)
    relaxed_tree_cost : float;
        (** DP optimum on the winning tree; [nan] when the winning rung of a
            supervised solve was a fallback with no tree relaxation *)
    tree_index : int;  (** which ensemble member won; [-1] for fallback rungs *)
    dp_states : int;
        (** DP table entries explored by {e this} solve (0 when the whole
            solution came from the packed cache) *)
    cached_dp_states : int;
        (** DP work inherited from the packed-solution cache — the states the
            producing solve explored; [dp_states + cached_dp_states] is the
            total work the answer embodies, without double-counting *)
  }
end

include module type of struct
  include Types
end

val default_options : options

(** The resolution cap applied when [resolution = None]. *)
val default_max_resolution : int

(** [resolution_of inst options] is the effective resolution the prepare
    stage will use. *)
val resolution_of : Instance.t -> options -> int

(** The same computation from raw quantities (used by the HGPT special case,
    which has no {!Instance.t}). *)
val resolution_for :
  n:int -> total_demand:float -> leaf_capacity:float -> options -> int

(** [resolution_clamped inst options] is true when the 4096 tractability cap
    engaged — i.e. eps stopped binding the resolution (satellite of ISSUE 3;
    also counted under [solver.resolution_clamped]). *)
val resolution_clamped : Instance.t -> options -> bool

(** {1 Fences}

    The pipeline is one fenced path.  Every per-tree fence — a slot of the
    build loop, a pooled DP slot, a pack — reports a lost tree to one
    handler.  Deadlines hold the same way on every path: each build slot
    and each DP slot checks the token first (stage ["ensemble"]), and the
    DP and the packer check it as they go. *)

(** [on_lost tree stage exn]: tree [tree] of the ensemble was lost in
    [stage] (["decomposition"], ["dp"] or ["pack"]) because it raised
    [exn], an expired deadline included.  A handler that raises stops the
    solve there; one that returns drops the tree, and the survivors carry
    the solve. *)
type on_lost = int -> string -> exn -> unit

(** [run ?deadline ?on_lost inst options] executes prepare → embed → relax
    → pack and returns the best feasible assignment by true graph cost, or
    [None] when no tree is left feasible after quantization.

    The default handler re-raises, so the solve fails fast: sampling stops
    at the failing build, the relax batch runs every tree and then raises
    the lowest-index error, and packing stops at the failing tree.  A run
    that lost any tree, for whatever reason, publishes nothing to the
    packed-solution cache.  [deadline] defaults to
    {!Hgp_resilience.Deadline.none}.

    Telemetry: [pipeline.stage.*] spans, [cache.{hit,miss,evict}] counters
    (plus [cache.NAME.*] breakdowns per cache), and the pre-existing
    [solver.*] span/counter names, unchanged.  [solver.solves] is counted
    by the fail-fast entry points ({!Solver.solve}, {!run_incremental}),
    not here. *)
val run :
  ?deadline:Hgp_resilience.Deadline.t ->
  ?on_lost:on_lost ->
  Instance.t ->
  options ->
  solution option

(** [solve_on_decomposition inst d ~options] runs relax + pack on one given
    tree (no ensemble, no caching); exposed for ensemble ablations.
    @raise Hgp_resilience.Hgp_error.Error ([Infeasible _]) — no retry. *)
val solve_on_decomposition :
  Instance.t -> Hgp_racke.Decomposition.t -> options:options -> solution

(** {1 Incremental re-solve}

    The relax stage can run through a per-subtree DP snapshot cache
    (registered as [subtree_dp] in {!cache_stats}): each re-solve
    recomputes only the dirty cone of every decomposition tree, splicing
    clean-subtree tables back in bit-identically (docs/INCREMENTAL.md). *)

(** [run_incremental ?deadline inst options] is the fail-fast {!run} with
    the relax stage routed through the per-subtree snapshot cache.  The packed-
    solution cache is not consulted (the report must reflect true
    incremental work) but healthy results are still published to it.
    Its trees run as one batch on the shared domain pool, like {!run}'s.
    Returns the solution plus [(resolved_subtrees, reused_subtrees)]:
    decomposition-tree nodes recomputed vs spliced, summed over the
    ensemble in tree order after the batch.  The solution is bit-identical
    to a cold {!run} on the same instance.  A lost tree raises, as in
    {!run}; one lost in the DP (an expired [deadline] included) raises
    before any snapshot of the batch is published. *)
val run_incremental :
  ?deadline:Hgp_resilience.Deadline.t ->
  Instance.t ->
  options ->
  (solution * (int * int)) option

(** {1 Cache control and introspection}

    The switch is {!Hgp_resilience.Artifact_cache.set_enabled}; these walk
    every registered artifact cache. *)

(** Drop every cached artifact; stats histories survive. *)
val clear_caches : unit -> unit

(** [(name, stats)] per cache in creation order: [ensemble], [packed],
    [subtree_dp], then [hierarchy] when the multilevel front-end is
    linked. *)
val cache_stats : unit -> (string * Hgp_util.Lru.stats) list

(** Zero every cache's hit/miss/eviction counters. *)
val reset_cache_stats : unit -> unit

(** The [--cache-stats] rendering: one ["cache NAME hits=…"] line per cache,
    then one ["stage NAME … ms"] line per stage — shared by the CLI and the
    golden tests so the snapshot cannot drift from the implementation. *)
val render_cache_stats : unit -> string

(** Cumulative wall-clock per stage since process start (or {!reset_timings}),
    as [(stage, milliseconds)] in pipeline order.  Always on — independent
    of [Obs] being enabled — so [--cache-stats] can print stage timing lines
    without paying for full telemetry. *)
val stage_timings : unit -> (string * float) list

val reset_timings : unit -> unit
