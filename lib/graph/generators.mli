(** Deterministic graph generators (all randomness comes from the provided
    {!Hgp_util.Prng.t}).  Unless noted, edge weights are [1.0]; use
    {!randomize_weights} to perturb them.

    Every generator emits {e dense} vertex ids [0..n-1] — this is a
    guarantee, not an accident: CSR construction ({!Graph}), the DP kernels
    and the multilevel front-end all index flat arrays by vertex id.
    External edge lists with sparse ids must go through
    {!Io.normalize_ids} first. *)

(** [path n] is the path on [n] vertices. *)
val path : int -> Graph.t

(** [cycle n] is the cycle on [n] vertices ([n >= 3]). *)
val cycle : int -> Graph.t

(** [complete n] is the clique on [n] vertices. *)
val complete : int -> Graph.t

(** [star n] is the star with center [0] and [n-1] rays. *)
val star : int -> Graph.t

(** [grid2d ~rows ~cols] is the 2-D mesh. *)
val grid2d : rows:int -> cols:int -> Graph.t

(** [torus2d ~rows ~cols] is the 2-D torus (wrap-around mesh);
    requires [rows >= 3] and [cols >= 3] so wrap edges are distinct. *)
val torus2d : rows:int -> cols:int -> Graph.t

(** [binary_tree depth] is the complete binary tree with [2^(depth+1) - 1]
    vertices. *)
val binary_tree : int -> Graph.t

(** [caterpillar ~spine ~legs] is a path of [spine] vertices, each with [legs]
    pendant leaves. *)
val caterpillar : spine:int -> legs:int -> Graph.t

(** [gnp rng n p] is an Erdős–Rényi graph: each pair independently with
    probability [p]. *)
val gnp : Hgp_util.Prng.t -> int -> float -> Graph.t

(** [gnp_connected rng n p] is {!gnp} patched to be connected. *)
val gnp_connected : Hgp_util.Prng.t -> int -> float -> Graph.t

(** [chung_lu rng ~n ~exponent ~avg_degree] samples a power-law graph with the
    Chung–Lu model: expected degree of vertex [i] proportional to
    [(i+1)^(-1/(exponent-1))], scaled to the requested average degree.
    Requires [exponent > 2.]. *)
val chung_lu : Hgp_util.Prng.t -> n:int -> exponent:float -> avg_degree:float -> Graph.t

(** [random_regular rng ~n ~degree] samples an approximately [degree]-regular
    simple graph via the configuration model with resampling of clashes.
    Requires [n * degree] even and [degree < n]. *)
val random_regular : Hgp_util.Prng.t -> n:int -> degree:int -> Graph.t

(** [random_tree rng n] is a uniformly random labelled tree (Prüfer). *)
val random_tree : Hgp_util.Prng.t -> int -> Graph.t

(** [randomize_weights rng ?lo ?hi g] returns [g] with each edge weight
    replaced by a uniform draw in [\[lo, hi)] (defaults [1.0] and [10.0]). *)
val randomize_weights : Hgp_util.Prng.t -> ?lo:float -> ?hi:float -> Graph.t -> Graph.t

(** [hypercube dims] is the [dims]-dimensional hypercube on [2^dims]
    vertices ([0 <= dims <= 20]). *)
val hypercube : int -> Graph.t

(** [barbell ~clique ~bridge] is two [clique]-cliques joined by a path of
    [bridge] intermediate vertices (a direct edge when [bridge = 0]) — the
    classic low-conductance stress test for partitioners. *)
val barbell : clique:int -> bridge:int -> Graph.t

(** [watts_strogatz rng ~n ~k ~beta] is a small-world ring lattice ([k]
    neighbors, [k] even) with each edge rewired with probability [beta]. *)
val watts_strogatz : Hgp_util.Prng.t -> n:int -> k:int -> beta:float -> Graph.t
