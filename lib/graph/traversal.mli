(** Graph traversal primitives: BFS, Dijkstra, connected components. *)

(** [bfs_hops g src] is the array of hop distances from [src]
    ([max_int] for unreachable vertices). *)
val bfs_hops : Graph.t -> int -> int array

(** [bfs_order g src] lists reachable vertices in BFS discovery order. *)
val bfs_order : Graph.t -> int -> int array

(** [bfs_order_all g src] is [bfs_order g src] followed by the vertices it
    did not reach, in ascending id order: a permutation of every vertex. *)
val bfs_order_all : Graph.t -> int -> int array

(** [dijkstra g src ~edge_length] computes shortest-path distances from [src]
    under the given per-edge length function (applied to the edge weight).
    Unreachable vertices get [infinity].  Lengths must be nonnegative. *)
val dijkstra : Graph.t -> int -> edge_length:(float -> float) -> float array

(** [components g] returns [(comp, n_comps)] where [comp.(v)] is the id of
    [v]'s connected component, ids are dense in [0..n_comps-1] and assigned
    in order of smallest member. *)
val components : Graph.t -> int array * int

(** [is_connected g] tests connectivity ([true] for the empty graph). *)
val is_connected : Graph.t -> bool

(** [ensure_connected g rng] returns [g] if connected; otherwise a copy with
    one unit-weight edge added between consecutive components (deterministic
    given [rng]). *)
val ensure_connected : Graph.t -> Hgp_util.Prng.t -> Graph.t
