(** Laminar-family utilities over integer sets: the test oracle that
    validates HGPT solutions against Definitions 3 and 4 of the paper. *)

(** A level structure: [collections.(j)] lists the Level-(j) sets, each an
    integer array of leaf ids. *)
type family = int array array array

(** [is_partition sets ~universe] tests that [sets] partitions [universe]
    (given as a sorted array of distinct elements). *)
val is_partition : int array array -> universe:int array -> bool

(** [refines fine coarse] tests that every set of [fine] is contained in some
    set of [coarse]. *)
val refines : int array array -> int array array -> bool

(** [is_laminar fam ~universe] tests the full structure of Definition 4:
    exactly one Level-0 set equal to the universe, every level a partition of
    the universe, and each level refining the previous. *)
val is_laminar : family -> universe:int array -> bool

(** [refinement_counts fam] returns, for each level [j < h] and each Level-(j)
    set, the number of Level-(j+1) sets it splits into — the quantity bounded
    by [DEG(j)] in Definition 3. *)
val refinement_counts : family -> int list array

(** [demands fam ~demand] sums [demand l] over each set, per level. *)
val demands : family -> demand:(int -> float) -> float list array
