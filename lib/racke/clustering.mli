(** Low-diameter random decompositions of weighted graphs — the clustering
    engine behind decomposition trees.

    The partition routine is the Miller–Peng–Xu variant of the
    Calinescu–Karloff–Rabani scheme: every vertex draws an exponential start
    shift and a single multi-source Dijkstra assigns each vertex to the
    "earliest" center.  Clusters are connected, have radius [O(r log n)] with
    high probability, and each edge is cut with probability [O(len(e)/r)] —
    the property that yields the [O(log n)] expected cut distortion of the
    resulting trees.

    Edge lengths default to [1 /. w]: heavy (high-communication) edges are
    short and therefore rarely separated, exactly the bias a Räcke-style
    decomposition needs. *)

(** A hierarchical clustering: either a single graph vertex or a cluster of
    sub-clusters.  [Node] always has at least one child and the union of the
    children's vertex sets is the node's vertex set. *)
type cluster = Leaf of int | Node of cluster list

(** [partition rng g ~vertices ~radius ~edge_length] partitions the given
    vertex set (inducing the subgraph) into connected low-diameter clusters.
    Returns the list of clusters as vertex arrays.  [radius] must be
    positive. *)
val partition :
  Hgp_util.Prng.t ->
  Hgp_graph.Graph.t ->
  vertices:int array ->
  radius:float ->
  edge_length:(float -> float) ->
  int array list

(** [hierarchical rng g ~edge_length] builds a full hierarchical clustering of
    [g] by repeatedly halving the decomposition radius, starting from the
    (approximate) weighted diameter, until all clusters are singletons.
    Unary levels (a cluster that did not split) are collapsed.  On a
    disconnected graph no cluster crosses a component, so the first level
    already separates them. *)
val hierarchical :
  Hgp_util.Prng.t -> Hgp_graph.Graph.t -> edge_length:(float -> float) -> cluster

(** [bfs_bisection rng g ~edge_length] builds a hierarchical clustering by
    recursive halving: each cluster is split into two demand-balanced halves
    of a Dijkstra ordering grown from a random peripheral vertex.  Produces
    geometric, balanced splits — particularly effective on meshes where
    random low-diameter clusters are ragged. *)
val bfs_bisection :
  Hgp_util.Prng.t -> Hgp_graph.Graph.t -> edge_length:(float -> float) -> cluster

(** [inverse_weight_length w] is [1. /. w] (and [infinity] for [w = 0.]). *)
val inverse_weight_length : float -> float

(** [unit_length w] ignores the weight and returns [1.]. *)
val unit_length : float -> float

(** [cluster_vertices c] lists the graph vertices of a cluster. *)
val cluster_vertices : cluster -> int array

(** [depth c] is the height of the clustering. *)
val depth : cluster -> int
