(** Discrete-event simulation of a pinned stream-processing system — the
    motivating scenario of the paper (TidalRace-style task pinning), used to
    show that the abstract HGP cost tracks real latency and throughput.

    Model:
    - operators of a dataflow DAG are pinned to hierarchy leaves (cores);
    - each core executes one tuple at a time, FCFS across its operators;
    - an operator's service time per tuple is [demand / rate], so a stream
      at its nominal rate loads the core by exactly its HGP demand;
    - forwarding a tuple along an edge whose endpoints sit on cores with
      LCA level [j] costs the {e sending core} an extra
      [comm_overhead * cm(j) / cm(0)] of CPU time and delays the tuple by a
      network latency [latency_per_cm * cm(j)] — co-located operators
      communicate for free, which is precisely the structure the HGP
      objective optimizes;
    - sources emit Poisson streams; join/fan-out semantics follow edge rates
      probabilistically;
    - sinks record end-to-end tuple latency.

    The simulation is deterministic given the seed. *)

type workload = {
  n_tasks : int;
  sources : (int * float) list;  (** (task, emission rate) *)
  edges : (int * int * float) list;  (** dataflow edges (src, dst, rate) *)
  rates : float array;  (** nominal processed rate per task *)
  demands : float array;  (** HGP demand (core fraction) per task *)
  sinks : int list;
}

(* An adapter from generated stream DAGs lives in
   [Hgp_workloads.Stream_dag.to_sim_workload] to keep this library free of a
   workloads dependency. *)

type config = {
  duration : float;  (** simulated seconds after warmup *)
  warmup : float;  (** initial transient discarded from metrics *)
  load : float;  (** source-rate multiplier (1.0 = nominal) *)
  comm_overhead : float;  (** CPU seconds per forwarded tuple at cm(0) *)
  latency_per_cm : float;  (** network seconds per unit of [cm] *)
  link_occupancy : float;
      (** exclusive seconds a tuple occupies the shared link of the
          endpoints' lowest common ancestor, at cm(0), scaled by
          [cm(lvl)/cm(0)]; [0.] (default) disables link contention *)
  max_queue : int;  (** per-core queue bound; overflowing tuples drop *)
  seed : int;
}

val default_config : config

type metrics = {
  completed : int;  (** tuples absorbed by sinks during measurement *)
  dropped : int;  (** tuples lost to full queues *)
  avg_latency : float;  (** mean end-to-end latency (s); [nan] if none *)
  p99_latency : float;
  max_core_utilization : float;  (** busiest core's busy fraction *)
  throughput : float;  (** completed tuples per simulated second *)
}

(** [run workload hierarchy ~assignment config] simulates the pinned system.
    [assignment.(task)] must be a valid hierarchy leaf. *)
val run :
  workload ->
  Hgp_hierarchy.Hierarchy.t ->
  assignment:int array ->
  config ->
  metrics

(** {1 Drifting workloads}

    The incremental re-partitioning scenario (docs/INCREMENTAL.md): the
    stream's rates drift, each drift step becomes a {!Hgp_core.Delta}
    against the live instance, and a solve {e session} re-solves only the
    dirty cone.  [run_drift] drives such a delta stream and measures the
    amortized incremental re-solve cost against periodically sampled cold
    full solves — the workload behind the CI incremental-smoke gate and
    bench experiment E21. *)

type drift_params = {
  steps : int;  (** drift steps (one delta each) *)
  edits_per_step : int;  (** edge reweights per delta *)
  magnitude : float;  (** max relative weight perturbation, e.g. [0.5] *)
  structural_every : int;
      (** every k-th delta also adds or removes one edge; [0] keeps the
          stream reweight-only (the multilevel fast path) *)
  cold_every : int;
      (** sample a cache-bypassing cold solve (timing + bit-identity check)
          every k-th step; [0] disables.  The sample switches caching off
          rather than clearing the caches, so the session's subtree
          snapshots survive it *)
}

(** [{steps = 20; edits_per_step = 2; magnitude = 0.5; structural_every = 0;
     cold_every = 5}] *)
val default_drift_params : drift_params

type drift_step = {
  d_step : int;  (** 1-based *)
  d_edits : int;
  d_structural : bool;
  d_incr_ms : float;  (** wall time of the incremental re-solve *)
  d_cold_ms : float;  (** wall time of the sampled cold solve; [nan] unsampled *)
  d_identical : bool;
      (** cold assignment bit-identical to the session's; vacuously [true]
          on unsampled steps *)
  d_churn : float;
  d_certified : bool;
  d_resolved : int;  (** subtree-DP nodes recomputed *)
  d_reused : int;  (** subtree-DP nodes spliced from snapshots *)
}

type drift_report = {
  d_steps : drift_step list;  (** in step order *)
  d_final_n : int;
  d_mean_incr_ms : float;
  d_mean_cold_ms : float;  (** over sampled steps; [nan] when [cold_every = 0] *)
  d_amortized : float;  (** [mean_incr / mean_cold]; [nan] without samples *)
  d_all_certified : bool;
  d_all_identical : bool;
}

(** [drift_delta rng inst ~edits ~magnitude ~structural] is one drift step's
    delta against [inst]: [min edits m] reweights of distinct edges; when
    [structural], one add/remove-edge edit appended last.  Deterministic in
    [rng]; always valid for [Delta.apply inst], and removals never pick a
    bridge (the exact decomposition requires a connected graph, so a
    disconnecting edit would poison every later step of the stream). *)
val drift_delta :
  Hgp_util.Prng.t ->
  Hgp_core.Instance.t ->
  edits:int ->
  magnitude:float ->
  structural:bool ->
  Hgp_core.Delta.t

(** [run_drift rng inst options] opens a {!Hgp_multilevel.Vcycle} session
    on [inst] — an exact one when [options.threshold] is [max_int] —
    streams [params.steps] drift deltas through it, and reports per-step
    and aggregate metrics; a sampled cold solve is
    {!Hgp_multilevel.Vcycle.solve} with the same options.  Raises what the
    session raises, e.g.
    [Infeasible _] for an instance infeasible after the retry (drift
    magnitudes that keep weights positive cannot change feasibility —
    demands are untouched). *)
val run_drift :
  ?params:drift_params ->
  Hgp_util.Prng.t ->
  Hgp_core.Instance.t ->
  Hgp_multilevel.Vcycle.options ->
  drift_report
