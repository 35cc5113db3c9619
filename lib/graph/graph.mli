(** Undirected weighted graphs in compressed-sparse-row form.

    Vertices are [0..n-1].  Parallel edges are merged by summing weights in
    input order; self-loops are dropped (they can never be cut).  Row [v] is
    the slot range [xadj.(v) .. xadj.(v+1) - 1] of [adjncy]/[adjw], sorted
    by neighbor id; both slots of an edge hold the same weight bits.  The
    structure is immutable.

    Every constructor goes through one counting-sort build (O(n + m), no
    per-edge boxing); {!Builder} and {!of_edges} are edge-list front ends
    over it, and {!contract} feeds it the fine graph's edges in place.  Its
    passes run in a per-domain scratch grown to the largest build seen, so
    a build allocates only the graph it returns.  Vertex weights live one
    layer up, in {!Csr}. *)

type t = private {
  n : int;
  xadj : int array;  (** length [n + 1] *)
  adjncy : int array;  (** neighbor ids, ascending within each row *)
  adjw : float array;  (** edge weight per adjacency slot *)
  total_w : float;
      (** sum of the edge weights, accumulated in ascending [(u, v)] order *)
}

module Builder : sig
  type graph = t
  type t

  (** [create n] starts a builder for a graph on [n] vertices. *)
  val create : int -> t

  (** [add_edge b u v w] records undirected edge [{u,v}] of weight [w].
      Repeated insertions accumulate weight.  Self-loops are ignored.
      Requires [w >= 0.] (infinity allowed) and valid vertex ids.
      @raise Invalid_argument otherwise, or after {!build}. *)
  val add_edge : t -> int -> int -> float -> unit

  (** [build b] finalizes the CSR structure.  The builder may not be reused. *)
  val build : t -> graph
end

(** [n g] is the number of vertices. *)
val n : t -> int

(** [m g] is the number of distinct undirected edges. *)
val m : t -> int

(** [of_edges n edges] builds a graph from an edge list [(u, v, w)]
    ({!Builder} semantics). *)
val of_edges : int -> (int * int * float) list -> t

(** [of_arrays ~n ~src ~dst ~w ()] builds the graph with edges
    [{src.(i), dst.(i)}] of weight [w.(i)] — struct-of-arrays input, the
    same result as {!of_edges} on the zipped list.
    @raise Hgp_resilience.Hgp_error.Error ([Invalid_input _]) on negative
    [n], mismatched array lengths, dangling endpoints (outside [0..n-1]),
    or negative or non-finite weights. *)
val of_arrays : n:int -> src:int array -> dst:int array -> w:float array -> unit -> t

(** [edges g] lists all edges as [(u, v, w)] with [u < v], ascending. *)
val edges : t -> (int * int * float) array

(** [iter_edges f g] calls [f u v w] once per undirected edge, [u < v], in
    ascending [(u, v)] order. *)
val iter_edges : (int -> int -> float -> unit) -> t -> unit

(** [fold_edges f init g] folds over undirected edges in {!iter_edges}
    order. *)
val fold_edges : ('a -> int -> int -> float -> 'a) -> 'a -> t -> 'a

(** [iter_neighbors f g u] calls [f v w] for every neighbor [v] of [u], in
    ascending id order. *)
val iter_neighbors : (int -> float -> unit) -> t -> int -> unit

(** [fold_neighbors f init g u] folds over the neighbors of [u]. *)
val fold_neighbors : ('a -> int -> float -> 'a) -> 'a -> t -> int -> 'a

(** [degree g u] is the number of neighbors of [u]. *)
val degree : t -> int -> int

(** [weighted_degree g u] is the sum of weights of edges incident to [u]. *)
val weighted_degree : t -> int -> float

(** [total_weight g] is the sum of all edge weights. *)
val total_weight : t -> float

(** [edge_weight g u v] is the weight of edge [{u,v}], or [0.] if absent —
    binary search, O(log degree). *)
val edge_weight : t -> int -> int -> float

(** [has_edge g u v] tests adjacency. *)
val has_edge : t -> int -> int -> bool

(** [induced g vs] is the subgraph induced by the vertex set [vs] (given as an
    array of distinct vertex ids), together with the map from new vertex ids
    [0..|vs|-1] back to the originals (which is [vs] itself).  Edges with both
    endpoints in [vs] are kept.  Costs O(|vs| + the degrees of [vs]), not
    O(n).
    @raise Invalid_argument on a duplicate vertex. *)
val induced : t -> int array -> t * int array

(** [contract g partition ~n_parts] merges each part into a super-vertex,
    summing the weights of parallel coarse edges in ascending fine-edge order
    and dropping intra-part edges.  [partition.(v)] is the part of [v], in
    [0..n_parts-1].  O(n + m).
    @raise Hgp_resilience.Hgp_error.Error ([Invalid_input _]) on a length
    mismatch or an out-of-range part id. *)
val contract : t -> int array -> n_parts:int -> t

(** [reweight_edges g updates] is [g] with the weight of each edge [{u, v}]
    in [updates] replaced by the given weight (the last update of an edge
    wins).  Shares [xadj]/[adjncy] with [g]; O(m) for the weight copy and
    {!total_weight}, which is re-accumulated in the same order as a build,
    so the result equals a rebuild from the patched edge list.
    @raise Hgp_resilience.Hgp_error.Error ([Invalid_input _]) on an absent
    edge, an out-of-range endpoint, a self-loop, or a negative or
    non-finite weight. *)
val reweight_edges : t -> (int * int * float) list -> t

(** [fingerprint g] is a content fingerprint of the full CSR structure
    (vertex count, adjacency, weights) — two graphs that compare equal
    edge-for-edge share it.  Used as the graph component of solver cache
    keys (see [docs/ARCHITECTURE.md]). *)
val fingerprint : t -> Hgp_util.Fingerprint.t

(** [pp] prints a short description ["graph(n=…, m=…, W=…)"]. *)
val pp : Format.formatter -> t -> unit
