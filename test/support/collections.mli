(** The paper's explicit solution representation (Definition 3 / 4): a family
    of Level-(j) collections [S^(0), ..., S^(h)] of leaf sets, with costs
    expressed through minimum tree cuts — bridging the [kappa] edge-labeling
    the solver works with and the formalism of the paper.

    A test oracle: the suites check structural theorems (laminarity,
    refinement-width, Definition-3 cost relations) on real solver output
    through it.  For level [j], the Level-(j) sets are the leaf contents of
    the components of the subforest [{e | kappa e >= j}]
    ({!Hgp_core.Levels.components}). *)

type t = {
  family : Laminar.family;  (** [family.(j)] = the Level-(j) sets *)
  h : int;
}

(** [laminar_family t ~kappa ~h] is the per-level family of leaf sets —
    [family.(j)] lists the Level-(j) sets (only components containing at
    least one leaf appear).  Suitable for {!Laminar.is_laminar}. *)
val laminar_family : Hgp_tree.Tree.t -> kappa:int array -> h:int -> Laminar.family

(** [component_tree t ~kappa ~h] returns, for each level [j in 0..h-1], the
    parent map from Level-(j+1) component ids to Level-(j) component ids. *)
val component_tree : Hgp_tree.Tree.t -> kappa:int array -> h:int -> int array array

(** [of_kappa t ~kappa ~h] materializes the collections of an edge labeling:
    Level-(j) sets are the leaf contents of the [kappa >= j] components. *)
val of_kappa : Hgp_tree.Tree.t -> kappa:int array -> h:int -> t

(** [is_valid_relaxed c tree] checks the four conditions of Definition 4
    (single Level-0 set, per-level partitions, refinement) — capacity is
    checked separately by {!demand_ok}. *)
val is_valid_relaxed : t -> Hgp_tree.Tree.t -> bool

(** [demand_ok c ~demand_units ~cp_units] checks Condition 3 of Definition 4:
    every Level-(j) set's demand is at most [CP(j)]. *)
val demand_ok : t -> demand_units:int array -> cp_units:int array -> bool

(** [refinement_widths c] returns, per level [j < h], the maximum number of
    Level-(j+1) sets a Level-(j) set splits into — Definition 3 requires this
    to be at most [DEG(j)]; the relaxation drops the bound and Theorem 5
    restores it by packing. *)
val refinement_widths : t -> int array

(** [definition3_cost c tree ~cm] is the cost of Definition 3:
    [sum over j of sum over Level-(j) sets S of
     w(CUT_T(S)) * (cm(j-1) - cm(j)) / 2], with [CUT_T] the {e minimum}
    leaf-separating cut of {!Hgp_tree.Treecut}.  It never exceeds the
    edge-labeling cost [Tree_dp.kappa_cost] of the inducing labeling (each
    component's boundary is one feasible cut, and shared boundaries are
    halved), and the two agree on job-complete trees. *)
val definition3_cost : t -> Hgp_tree.Tree.t -> cm:float array -> float
