(** Objective functions and capacity accounting for HGP solutions.

    A solution is an array [p] with [p.(v)] the leaf of [H] hosting vertex
    [v].  Two equivalent cost forms are provided: the assignment form
    (Equation 1 of the paper, summed over unordered edges) and the
    mirror-function form (Equation 3); Lemma 2 states they coincide, which
    the test suite checks. *)

(** [assignment_cost inst p] is
    [sum over edges {u,v} of w(u,v) * cm(LCA(p(u), p(v)))]. *)
val assignment_cost : Instance.t -> int array -> float

(** [mirror_cost inst p] is Equation 3:
    [sum over levels j of sum over Level-(j) H-nodes a of
     w(boundary of P(a)) * (cm(j-1) - cm(j)) / 2], where [P(a)] is the set of
    vertices assigned under [a] and the boundary is taken in [G]. *)
val mirror_cost : Instance.t -> int array -> float

(** [leaf_loads inst p] is the demand hosted by each leaf of [H]. *)
val leaf_loads : Instance.t -> int array -> float array

(** [level_violation inst p j] is the maximum over Level-(j) nodes of
    [load / CP(j)] — [<= 1.] means the level's capacities are respected. *)
val level_violation : Instance.t -> int array -> int -> float

(** [max_violation inst p] is the maximum of {!level_violation} over all
    levels [1..h] (leaf level included); [1.0] for a perfectly packed
    solution, [<= 1.] for any feasible one. *)
val max_violation : Instance.t -> int array -> float

(** [max_violation_of hy ~demands p] is {!max_violation} over a bare
    hierarchy and demand vector, for answers that have no graph instance
    (the tree solve of {!Solver.solve_tree}). *)
val max_violation_of : Hgp_hierarchy.Hierarchy.t -> demands:float array -> int array -> float

(** [is_valid inst p ~slack] checks that every vertex is assigned to a real
    leaf and no leaf [l] exceeds [slack] times its own capacity
    ([leaf_cap hy l] — uniform on regular hierarchies). *)
val is_valid : Instance.t -> int array -> slack:float -> bool
