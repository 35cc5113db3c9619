(** End-to-end HGP solvers (Theorem 1 pipeline and the HGPT special case).

    For a general graph: sample an ensemble of decomposition trees (Theorem
    6/7 substrate), solve the relaxed problem optimally on each tree
    (Theorems 2–4), convert each relaxed solution to a feasible hierarchy
    assignment (Theorem 5) and keep the assignment whose {e true graph cost}
    (Equation 1) is smallest.  Picking by true cost instead of by tree cost
    is a strict improvement over the paper's statement and keeps the same
    guarantee.

    The execution engine is {!Pipeline}: an explicit staged pipeline
    (prepare → embed → relax → pack) whose expensive artifacts — sampled
    ensembles and packed solutions — are content-addressed and cached
    process-wide, so repeated solves, the infeasibility retry, supervised
    rungs and portfolio candidates reuse them (see [docs/ARCHITECTURE.md]).
    This module re-exports the pipeline's {!options} / {!solution} types, so
    [Solver.default_options] and friends work as before.

    Two entry points run the same fenced pipeline and differ only in what
    a lost tree does ({!Pipeline.on_lost}): {!solve} re-raises its error
    (fails fast with a structured error); {!solve_supervised} records it,
    carries on with the survivors, and adds a cooperative deadline and a
    certified degradation ladder — the production entry point (see
    [docs/ROBUSTNESS.md]). *)

(** {!options} and {!solution} are {!Pipeline.Types}' records, documented
    there. *)
include module type of struct
  include Pipeline.Types
end

val default_options : options

(** The resolution cap applied when [resolution = None]. *)
val default_max_resolution : int

(** [resolution_of inst options] is the effective demand resolution the
    prepare stage will use (either [options.resolution] or the capped
    default derived from eps). *)
val resolution_of : Instance.t -> options -> int

(** [resolution_clamped inst options] reports whether the default-resolution
    rule would hit its 4096 tractability cap — i.e. eps stopped binding.
    Also counted under [solver.resolution_clamped]; the CLI prints a note. *)
val resolution_clamped : Instance.t -> options -> bool

(** [solve ?options inst] runs the full pipeline.  The instance's graph must
    be connected (preprocess with {!Hgp_graph.Traversal.ensure_connected}).

    When the quantized instance is infeasible, the solve is retried once at
    a finer resolution with floor rounding (finer units shrink the rounding
    overshoot that causes spurious infeasibility — most often with
    [Demand.Ceil]); the retry reuses the cached ensemble, since the ensemble
    key does not involve the resolution; only then is the failure surfaced.
    A lost tree stops the solve ({!Pipeline.run}'s default handler): the
    error it raised propagates.  Counted under [solver.solves].
    @raise Hgp_resilience.Hgp_error.Error with an [Infeasible] payload
    ([retried = true] when the retry also failed), or whatever a lost tree
    raised. *)
val solve : ?options:options -> Instance.t -> solution

(** [solve_on_decomposition inst d ~options] solves on one given tree;
    exposed for ensemble ablations.
    @raise Hgp_resilience.Hgp_error.Error ([Infeasible _]) — no retry. *)
val solve_on_decomposition :
  Instance.t -> Hgp_racke.Decomposition.t -> options:options -> solution

(** {1 Supervised solving} *)

(** A named degradation rung supplied by the caller (e.g. the portfolio or
    recursive-bisection baselines, which live above this library).  It
    receives the instance and returns a vertex->leaf assignment; anything it
    raises is recorded and the ladder steps past it. *)
type fallback = string * (Instance.t -> int array)

type supervised = {
  solution : solution;
  certificate : Verify.report;  (** independent re-certification of the answer *)
  rung : string;  (** which ladder rung produced the answer *)
  rungs_tried : string list;  (** in descent order, including [rung] *)
  degraded : bool;
      (** true when any tree failed or a rung below "ensemble" won *)
  tree_failures : Hgp_resilience.Hgp_error.t list;
      (** per-tree isolation events: one [Tree_failure] per lost tree,
          naming the stage that lost it *)
  errors : Hgp_resilience.Hgp_error.t list;  (** everything recorded, including the above *)
}

(** [solve_supervised ?options ?deadline_ms ?fallbacks inst] is the
    resilient entry point:

    - {b fault isolation}: each ensemble member's decomposition build, DP
      and packing run behind the pipeline's fences; a raising tree is
      recorded as a [Tree_failure] and skipped, and the solve proceeds on
      the survivors — a Räcke ensemble is a distribution over trees, so
      losing members costs diversity, never correctness;
    - {b deadline}: [deadline_ms] starts a cooperative token checked in the
      ensemble loop, the DP merge loop, and the packer; on expiry the
      current rung aborts within microseconds (recording one
      [Deadline_exceeded]) and the ladder descends;
    - {b degradation ladder}: rung 0 is the full ensemble; rung 1 retries
      with a single tree, a narrow beam and halved resolution; then each
      [fallbacks] entry in order; the final rung is a least-loaded
      demand-balancing placement that cannot fail and takes
      [O(n (log n + k))].  Every rung's candidate is re-checked with
      {!Verify.certify} and must be complete and within the Theorem-2
      violation budget [(1+eps)(1+h)] to win.

    Degraded results (lost trees, expired deadlines) are never written to
    the pipeline's caches, and any armed fault plan bypasses them entirely,
    so supervision composes with artifact reuse without retaining damage.

    Returns [Error _] only when {e no} rung — including the emergency
    placement — certifies, i.e. the instance is overloaded beyond the
    violation budget.  Never raises; never leaves a pool task unjoined.
    Telemetry: [supervisor.*] counters and the [supervisor.rung_index]
    gauge (see [docs/OBSERVABILITY.md]). *)
val solve_supervised :
  ?options:options ->
  ?deadline_ms:float ->
  ?fallbacks:fallback list ->
  Instance.t ->
  (supervised, Hgp_resilience.Hgp_error.t) result

(** [solve_tree tree ~demands hierarchy ~options] solves the HGPT problem
    where the communication graph is itself the tree [tree] and {e every
    node} is a job with the given demand (the paper's dummy-leaf reduction is
    applied internally).  Returns the assignment indexed by original tree
    node, its Equation-1 cost (edges of [tree] as the communication edges),
    the relaxed DP lower bound, and the violation factor.
    @raise Hgp_resilience.Hgp_error.Error ([Infeasible _]) when the
    quantized instance admits no packing. *)
val solve_tree :
  Hgp_tree.Tree.t ->
  demands:float array ->
  Hgp_hierarchy.Hierarchy.t ->
  options:options ->
  int array * float * float * float
