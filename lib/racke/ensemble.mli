(** Distributions of decomposition trees (Theorems 6–7).

    Räcke's theorem provides a convex combination of decomposition trees; the
    HGP algorithm (Theorem 7) solves the problem on each tree and keeps the
    solution whose *graph* cost is smallest.  This module samples and manages
    such an ensemble. *)

type t

(** Ensemble composition. *)
type strategy =
  | Pure of Decomposition.strategy  (** every tree from one shape strategy *)
  | Mixed
      (** round-robin over all shape strategies — diversity usually helps
          the best-of selection of Theorem 7 *)

(** [strategy_name s] is a stable identifier ("mixed" or the underlying
    {!Decomposition.strategy_name}) for telemetry and reports. *)
val strategy_name : strategy -> string

(** [sample ?strategy ?deadline ?on_lost rng g ~size] draws [size]
    independent decomposition trees of the connected graph [g] (default
    [Pure Decomposition.Low_diameter]).  Requires [size >= 1].

    Each slot is fenced: it checks [deadline] (stage ["ensemble"]), then
    builds its tree.  A slot that raises is reported to [on_lost i exn]
    with its index [i].  The default [on_lost] re-raises, so sampling
    stops at the failing slot.  A handler that returns skips the slot (a
    skipped build is counted under [ensemble.build_failures]), and the
    survivors form the ensemble, which may then be smaller than [size] or
    empty.  Losing a tree only costs diversity: a Räcke ensemble is a
    distribution over trees, so any member alone still upper-bounds every
    cut (Proposition 1).  The RNG stream is split per slot {e before}
    building, so a surviving tree is bit-identical to the same slot of a
    healthy run. *)
val sample :
  ?strategy:strategy ->
  ?deadline:Hgp_resilience.Deadline.t ->
  ?on_lost:(int -> exn -> unit) ->
  Hgp_util.Prng.t ->
  Hgp_graph.Graph.t ->
  size:int ->
  t

(** [size e] is the number of trees. *)
val size : t -> int

(** [get e i] is the [i]-th decomposition. *)
val get : t -> int -> Decomposition.t

(** [to_list e] lists all decompositions. *)
val to_list : t -> Decomposition.t list

(** [best_of e f] applies [f] to every decomposition and returns
    [(index, result, score)] minimizing the score computed by [f].
    [f] returns [(result, score)]. *)
val best_of : t -> (Decomposition.t -> 'a * float) -> int * 'a * float

(** [average_distortion e rng ~trials] is the mean over trees of the mean
    sampled cut ratio [w_T / w_G] — the empirical analogue of the [O(log n)]
    guarantee of Theorem 6. *)
val average_distortion : t -> Hgp_util.Prng.t -> trials:int -> float
