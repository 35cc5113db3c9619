(** Extracting the laminar level structure from a [kappa] edge labeling.

    For level [j], the Level-(j) sets of the RHGPT solution are the connected
    components of the subforest [{e | kappa e >= j}] (see {!Tree_dp}). *)

(** [components t ~kappa ~level] returns [(comp, n_comps)]: [comp.(v)] is the
    dense component id of node [v] at the given level (level [0] puts every
    node in component [0]). *)
val components : Hgp_tree.Tree.t -> kappa:int array -> level:int -> int array * int
