(** The multilevel V-cycle front-end: coarsen → solve exactly → uncoarsen →
    refine.

    The exact Theorem-1 pipeline tops out around a few hundred vertices (the
    DP and the Räcke ensemble both scale with [n]); the V-cycle runs it only
    on a heavy-edge-matching coarsening of the input — typically
    [threshold] ≈ 128 vertices regardless of the input size — then projects
    the coarse assignment back through the level hierarchy with
    certification-preserving boundary refinement at each level
    ({!Refine}).  Coarse vertex weights are the summed demands of their
    clusters, i.e. exactly the nonuniform-weights setting of Makarychev &
    Makarychev, and matching never merges past a leaf capacity, so the
    coarse instance is always well-formed.

    Certification semantics: {!Verify.certify} runs on the {e coarse}
    instance, where the DP's [(1+eps)(1+h)] guarantee actually applies.
    Projection preserves leaf loads exactly (a cluster's demand lands on the
    leaf its super-vertex chose) and refinement is banded by the certified
    bound, so the fine solution inherits the coarse certificate's violation
    band; the fine cost is reported from the true Equation-1 objective.

    Coarsening chains are content-addressed by one chain key — the fine
    graph's fingerprint ⊕ threshold ⊕ max levels ⊕ seed ⊕ leaf capacity,
    the only fingerprint a V-cycle computes (levels carry no key of their
    own) — and cached in the ["hierarchy"] {!Hgp_resilience.Artifact_cache}, so
    repeated solves of the same graph — the batch server's favorite access
    pattern — skip coarsening entirely.  Like every artifact cache it obeys
    the one caching switch and is bypassed while a fault plan is armed.

    See [docs/MULTILEVEL.md] for the design discussion and when the exact
    path still wins. *)

type options = {
  threshold : int;  (** stop coarsening at this vertex count (default 128) *)
  max_levels : int;  (** hard cap on coarsening transitions (default 40) *)
  refine_passes : int;
      (** boundary-refinement passes per level on the way back up
          (default 2; 0 = pure projection) *)
  refine_algo : Refine.algo;
      (** which engine polishes each level: the historical greedy pass
          (default, bit-identical to pre-FM builds) or the FM gain-bucket
          engine, optionally with hill-climbing ({!Refine.refine_fm}).  FM is
          {e stacked}: it warm-starts from the greedy fixed point, so with
          hill-climbing disabled it is never worse than greedy by
          construction (the ISSUE 9 differential suite pins this). *)
  on_level : int -> float -> Hgp_graph.Csr.t -> int array -> unit;
      (** test/bench hook, called after each level is refined with
          [level slack fine_csr assignment]; default no-op.  E20 and the
          per-level band re-verification hang off this. *)
  solver : Hgp_core.Pipeline.options;  (** exact-solver options for the coarsest graph *)
}

val default_options : options

type level_report = {
  level : int;  (** 0 = finest transition *)
  n : int;  (** fine vertices at this transition *)
  m : int;
  moves : int;  (** refinement moves applied after projecting to this level *)
  gain : float;  (** refinement cost decrease at this level *)
  rollbacks : int;  (** FM best-prefix rollback moves (greedy: 0) *)
  cost_before : float;  (** level cost right after projection *)
  cost_after : float;
      (** level cost after refinement — the E20 ledger's per-level
          monotonicity check is [cost_after <= cost_before] *)
}

type result = {
  solution : Hgp_core.Pipeline.solution;
      (** fine-level assignment; [cost] / [max_violation] recomputed on the
          true instance, DP accounting inherited from the coarse solve *)
  coarse_certificate : Hgp_core.Verify.report;
      (** [Verify.certify] of the exact solve on the coarse instance *)
  coarse_instance : Hgp_core.Instance.t;
      (** the instance the exact solve ran on: the coarsest graph with its
          vertex weights as demands, or the input itself when no coarsening
          ran *)
  levels : int;
  coarsening_ratio : float;  (** fine n / coarse n; 1.0 when no coarsening ran *)
  level_reports : level_report list;  (** finest-first *)
  hierarchy_cached : bool;  (** chain served from the hierarchy cache *)
}

(** [solve ?deadline ?options inst] runs the V-cycle.  Instances no larger
    than [threshold] skip coarsening and behave exactly like
    [Solver.solve].  [deadline] (default {!Hgp_resilience.Deadline.none})
    is honoured as in {!start_session}.  Raises whatever the exact solver
    raises on the coarse instance ([Infeasible _] after its retry, etc.)
    and [Deadline_exceeded _], naming the stage that noticed, once
    [deadline] expires.

    Telemetry: [multilevel.{csr_build,coarsen,coarse_solve,refine}] spans
    ([csr_build] and [coarsen] only above [threshold], where the fine CSR
    is built), [multilevel.solves] / [multilevel.refine_moves] counters,
    [cache.hierarchy.{hit,miss,evict}] (with [cache.*]) for the chain
    lookup, which runs only above [threshold] and only while caching is
    active,
    [multilevel.levels] / [multilevel.coarsening_ratio] gauges and a
    [multilevel.refine_gain.levelN] gauge per level.  When [refine_algo] is
    FM, additionally [refine.fm.{passes,moves,rollbacks,bytes_allocated}]
    counters and a [refine.fm.cost_delta.levelN] gauge per
    level — emitted {e only} in FM mode so the greedy path's metrics schema
    (and its goldens) stay byte-identical. *)
val solve :
  ?deadline:Hgp_resilience.Deadline.t -> ?options:options -> Hgp_core.Instance.t -> result

(** {1 Incremental re-solve}

    A session is the one solve state for delta streams.  It threads each
    delta through the whole V-cycle: cached chain suffixes are spliced back
    once the mapped weight delta contracts away, the coarse exact solve goes
    through {!Hgp_core.Pipeline.run_incremental} (per-subtree DP snapshots)
    or is skipped when the coarsest graph is unchanged, and refinement
    re-runs only from the first dirty level down.  Sessions and {!solve}
    share one coarsen → solve → refine driver that differs only in how it
    gets the chain and how it solves the coarsest graph.  Every update is
    bit-identical to a cold {!solve} on the post-delta instance
    (docs/INCREMENTAL.md).

    An {e exact} session is one whose [threshold] is [max_int]: it never
    coarsens (and never builds the fine CSR), so it opens and updates with
    the Theorem-1 pipeline on the whole instance — the session behind
    [solve --delta], the drift simulator's exact runs and the server's
    named sessions. *)

type session

type update_report = {
  u_result : result;  (** bit-identical to a cold {!solve} on the new instance *)
  u_churn : float;
      (** exact fraction of the new instance's vertices whose leaf changed
          (new vertices count as changed) *)
  u_resolved_subtrees : int;
      (** decomposition-tree nodes the coarse solve recomputed *)
  u_reused_subtrees : int;  (** tree nodes spliced from DP snapshots *)
  u_reused_levels : int;  (** refinement levels spliced without re-running *)
  u_total_levels : int;
  u_incremental : bool;
      (** [false] when a structural delta forced a re-solve from an empty
          chain *)
  u_certified : bool;  (** coarse certificate within the (1+eps)(1+h) band *)
  u_cert_violation : float;
  u_cert_bound : float;
}

(** [start_session ?deadline ?options inst] solves cold (warming chain and
    DP snapshots) and opens a session.  The coarse solve retries an
    instance that is infeasible at the base resolution, as {!solve} does,
    so such an instance still opens a session.  [deadline] (default
    {!Hgp_resilience.Deadline.none}) is checked once on entry (stage
    ["multilevel"]), reaches the coarse solve and its retry, and is
    checked by the refinement walk once per level (stage ["refine"]).
    @raise Hgp_resilience.Hgp_error.Error like {!solve} —
    [Deadline_exceeded _], naming the stage that noticed, once [deadline]
    expires. *)
val start_session :
  ?deadline:Hgp_resilience.Deadline.t ->
  ?options:options ->
  Hgp_core.Instance.t ->
  session * result

(** [resolve_delta ?deadline session delta] applies the delta and
    re-solves, reusing chain suffixes, DP snapshots and clean refinement
    levels; reweight-only deltas take the incremental path, structural ones
    re-solve the session from an empty chain (reported via
    [u_incremental]).  [deadline] is honoured as in {!start_session}.
    Updates the session and bumps
    [incremental.{updates,dirty_subtrees,reused_subtrees}] /
    [multilevel.incremental.reused_levels] counters and the
    [incremental.churn] gauge.  Sessions are not thread-safe; serialize
    updates per session (the server drains them in submission order).
    @raise Hgp_resilience.Hgp_error.Error ([Invalid_input _]) on a delta
    that does not validate against the session's instance;
    [Infeasible _] when the post-delta coarse instance is infeasible after
    the retry; [Deadline_exceeded _] once [deadline] expires; and whatever
    else the coarse solve raises.  On every error the session is left
    unchanged. *)
val resolve_delta :
  ?deadline:Hgp_resilience.Deadline.t -> session -> Hgp_core.Delta.t -> update_report

val session_instance : session -> Hgp_core.Instance.t

(** The session's current fine assignment (a fresh copy). *)
val session_assignment : session -> int array
