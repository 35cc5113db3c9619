(** Rooted weighted trees [T] — the domain of the HGPT problem and the shape
    of decomposition trees.

    Nodes are [0..n-1].  Every non-root node has a unique parent edge, so an
    edge is identified with its child endpoint throughout the library.  Jobs
    live at the leaves (nodes without children); internal nodes carry no
    demand, matching Definition 2 of the paper (the reduction that moves
    internal jobs to dummy leaves is {!lift_internal_jobs}). *)

type t

(** [of_parents ~root ~parents ~weights] builds a tree; [parents.(root)] must
    be [-1] and is ignored, [weights.(v)] is the weight of the edge from [v]
    to its parent ([weights.(root)] ignored).  Weights must be nonnegative
    (use [infinity] for uncuttable edges).
    @raise Invalid_argument if the parent structure is not a tree. *)
val of_parents : root:int -> parents:int array -> weights:float array -> t

(** [of_graph g ~root] interprets the undirected graph [g] (which must be a
    tree: connected with [n-1] edges) as a tree rooted at [root]. *)
val of_graph : Hgp_graph.Graph.t -> root:int -> t

(** [n_nodes t] is the number of nodes. *)
val n_nodes : t -> int

(** [root t] is the root node id. *)
val root : t -> int

(** [parent t v] is the parent of [v], [-1] for the root. *)
val parent : t -> int -> int

(** [edge_weight t v] is the weight of the edge from [v] to its parent.
    Requires [v <> root t]. *)
val edge_weight : t -> int -> float

(** [children t v] is the (shared, do not mutate) array of children of [v]. *)
val children : t -> int -> int array

(** [is_leaf t v] tests whether [v] has no children. *)
val is_leaf : t -> int -> bool

(** [leaves t] is the array of leaf ids in increasing order. *)
val leaves : t -> int array

(** [n_leaves t] is the number of leaves. *)
val n_leaves : t -> int

(** [post_order t] lists all nodes with every node after its children. *)
val post_order : t -> int array

(** [depth t v] is the number of edges from the root to [v]. *)
val depth : t -> int -> int

(** [subtree_leaves t v] lists the leaves in the subtree of [v]. *)
val subtree_leaves : t -> int -> int array

(** [lift_internal_jobs t] implements the paper's reduction for instances
    where internal nodes also carry jobs: every internal node [v] gains a
    dummy leaf attached by an [infinity]-weight edge.  Returns the new tree
    and [job_leaf] mapping each original node to the leaf that represents its
    job (the node itself if it was already a leaf). *)
val lift_internal_jobs : t -> t * int array

(** [total_edge_weight t] sums all finite edge weights. *)
val total_edge_weight : t -> float

(** [pp] prints a one-line summary. *)
val pp : Format.formatter -> t -> unit
