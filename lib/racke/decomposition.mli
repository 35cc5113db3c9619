(** Decomposition trees (Section 4 of the paper).

    A decomposition tree [T] for graph [G] has a bijection between its leaves
    and [V(G)]; the weight of every tree edge equals the [G]-weight of the cut
    induced by removing it (the leaf bipartition), so Proposition 1 —
    [w_T(CUT_T(P_T)) >= w(CUT_G(m(P_T)))] — holds exactly by construction,
    whatever the tree's shape.  Three shape strategies are provided; all share
    the same exact-cut weight computation. *)

type t

(** How to choose the shape of a decomposition tree. *)
type strategy =
  | Low_diameter
      (** recursive random-shift low-diameter clustering (CKR/MPX) — the
          default, carries the [O(log n)] expected-distortion guarantee *)
  | Bfs_bisection
      (** recursive balanced halving of a Dijkstra ordering — geometric
          splits, strong on meshes *)
  | Gomory_hu
      (** the shape of a Gomory–Hu (flow-equivalent) cut tree — groups
          vertices by connectivity; costs [n - 1] max-flows *)

(** [strategy_name s] is a stable lowercase identifier ("low_diameter",
    "bfs_bisection", "gomory_hu") used in telemetry attributes and reports. *)
val strategy_name : strategy -> string

(** [of_clustering g c] builds the decomposition tree of a hierarchical
    clustering of [g].  The clustering must cover every vertex exactly once.
    Unary chains in [c] are preserved as given. *)
val of_clustering : Hgp_graph.Graph.t -> Clustering.cluster -> t

(** [of_spanning_shape g ~parents] builds a decomposition tree from a tree
    {e on the vertices themselves} ([parents.(root) = -1]): every vertex
    becomes an internal node carrying a fresh dummy leaf, and all edge
    weights are recomputed as exact induced cuts. *)
val of_spanning_shape : Hgp_graph.Graph.t -> parents:int array -> t

(** [build ?strategy rng g] samples one decomposition tree of [g] (default
    {!Low_diameter}).  [g] may be disconnected: every tree edge is weighed
    by its exact G-cut, so Proposition 1 holds for any tree shape, and a
    subtree spanning several components is joined by edges of cut 0. *)
val build : ?strategy:strategy -> Hgp_util.Prng.t -> Hgp_graph.Graph.t -> t

(** [tree d] is the underlying rooted tree. *)
val tree : t -> Hgp_tree.Tree.t

(** [graph d] is the underlying graph. *)
val graph : t -> Hgp_graph.Graph.t

(** [leaf_of_vertex d v] is the tree leaf representing graph vertex [v]
    (the map [m'_V]). *)
val leaf_of_vertex : t -> int -> int

(** [vertex_of_leaf d l] is the graph vertex of tree leaf [l] (the map
    [m_V] restricted to leaves).
    @raise Invalid_argument if [l] is not a leaf. *)
val vertex_of_leaf : t -> int -> int

(** [tree_cut_weight d ~in_vertex_set] is [w_T(CUT_T(P_T))] for the leaf set
    corresponding to the given vertex predicate. *)
val tree_cut_weight : t -> in_vertex_set:(int -> bool) -> float

(** [graph_cut_weight d ~in_vertex_set] is [w(CUT_G(...))] of the same set. *)
val graph_cut_weight : t -> in_vertex_set:(int -> bool) -> float

(** [distortion_sample d rng ~trials] samples random connected-ish vertex
    subsets and returns the array of ratios [w_T / w_G] (only for samples
    with [w_G > 0]).  Proposition 1 guarantees every ratio is [>= 1]. *)
val distortion_sample : t -> Hgp_util.Prng.t -> trials:int -> float array
