(** Gomory–Hu cut trees (Gusfield's algorithm).

    A Gomory–Hu tree of an undirected weighted graph is a tree on the same
    vertex set such that for every pair [(u, v)] the minimum [u]–[v] cut in
    the graph equals the smallest edge weight on the tree path between them —
    and moreover, removing that smallest edge splits the vertices into a
    bipartition realizing the cut.

    Built with [n - 1] max-flow computations (Gusfield's simplification: no
    vertex contraction needed).  Besides being a classic cut oracle, a
    Gomory–Hu tree is a valid decomposition tree for the HGP pipeline: every
    tree edge's weight equals the exact graph cut its removal induces. *)

type t = {
  parent : int array;  (** [parent.(v)] for [v > 0]; [parent.(0) = -1] *)
  flow : float array;  (** [flow.(v)]: min-cut value between [v] and parent *)
}

(** [build g] computes a Gomory–Hu tree of [g].  On a disconnected graph
    the components are joined by tree edges of flow 0.  Requires
    [Graph.n g >= 1]. *)
val build : Hgp_graph.Graph.t -> t

(** [min_cut_between t u v] is the minimum cut value between [u] and [v]:
    the smallest [flow] on the tree path.  Requires [u <> v]. *)
val min_cut_between : t -> int -> int -> float

(** [to_graph t] renders the tree as an undirected graph (edge weights =
    cut values), e.g. for re-rooting with {!Hgp_tree.Tree.of_graph}. *)
val to_graph : t -> Hgp_graph.Graph.t

(** [check t g ~pairs] verifies the Gomory–Hu property on the given vertex
    pairs by direct max-flow computation; returns the worst absolute error
    (testing helper). *)
val check : t -> Hgp_graph.Graph.t -> pairs:(int * int) list -> float
