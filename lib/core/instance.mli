(** HGP problem instances.

    An instance couples a communication graph [G] (vertex demands, edge
    weights) with a hierarchy [H].  A solution is an assignment of every
    vertex to a leaf of [H]; see {!Cost} for objectives and {!Solver} for the
    algorithms. *)

type t = private {
  graph : Hgp_graph.Graph.t;
  demands : float array;
  hierarchy : Hgp_hierarchy.Hierarchy.t;
}

(** [create graph ~demands hierarchy] validates and packs an instance.
    Demands must satisfy [0 < d(v) <= leaf_capacity hierarchy]
    (the largest leaf's capacity on a ragged hierarchy).
    @raise Invalid_argument on length mismatch or out-of-range demand. *)
val create :
  Hgp_graph.Graph.t -> demands:float array -> Hgp_hierarchy.Hierarchy.t -> t

(** [uniform_demands g h ~load_factor] builds demands giving every vertex the
    same demand, scaled so total demand equals [load_factor] times the total
    capacity of [h].
    @raise Hgp_resilience.Hgp_error.Error ([Invalid_input _], naming the
    demand and the capacity) unless [0 < load_factor <= 1.], the graph is
    non-empty and the resulting per-vertex demand fits a leaf. *)
val uniform_demands :
  Hgp_graph.Graph.t -> Hgp_hierarchy.Hierarchy.t -> load_factor:float -> t

(** [random_demands rng g h ~load_factor] like {!uniform_demands} but with
    demands drawn uniformly, rescaled to the target load and clamped to the
    leaf capacity.
    @raise Hgp_resilience.Hgp_error.Error ([Invalid_input _]) unless
    [0 < load_factor <= 1.] and the graph is non-empty. *)
val random_demands :
  Hgp_util.Prng.t ->
  Hgp_graph.Graph.t ->
  Hgp_hierarchy.Hierarchy.t ->
  load_factor:float ->
  t

(** [n t] is the number of tasks. *)
val n : t -> int

(** [total_demand t] is the sum of demands. *)
val total_demand : t -> float

(** [is_feasible t] tests [total_demand <= total capacity].  (A [true] answer
    does not guarantee a perfect packing exists, only the aggregate bound.) *)
val is_feasible : t -> bool

(** [pp] prints a one-line summary. *)
val pp : Format.formatter -> t -> unit
