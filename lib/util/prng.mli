(** Deterministic, splittable pseudo-random number generator (SplitMix64).

    Every randomized component of the library threads an explicit [Prng.t] so
    that experiments are reproducible from a single seed.  The generator is
    mutable; use {!split} to derive statistically independent streams for
    parallel or per-trial use.

    Draws do not allocate: the state is stored unboxed, so {!int},
    {!int_incl}, {!bool} and {!shuffle} allocate nothing, however many
    numbers they draw.  Only the value itself may be boxed: {!bits64} and
    {!float} return a boxed [int64] / [float] to callers in other modules.
    The stream is pinned value by value in the test suite. *)

type t

(** [create seed] returns a fresh generator determined entirely by [seed]. *)
val create : int -> t

(** [copy t] is an independent generator with the same current state. *)
val copy : t -> t

(** [split t] advances [t] and returns a new generator whose stream is
    independent of the subsequent outputs of [t]. *)
val split : t -> t

(** [bits64 t] returns 64 uniformly random bits. *)
val bits64 : t -> int64

(** [int t bound] is uniform in [\[0, bound)].  Requires [bound > 0]. *)
val int : t -> int -> int

(** [int_incl t lo hi] is uniform in [\[lo, hi\]].  Requires [lo <= hi]. *)
val int_incl : t -> int -> int -> int

(** [float t bound] is uniform in [\[0, bound)].  Requires [bound > 0.]. *)
val float : t -> float -> float

(** [bool t] is a fair coin flip. *)
val bool : t -> bool

(** [exponential t ~rate] samples an exponential variate with the given rate.
    Requires [rate > 0.]. *)
val exponential : t -> rate:float -> float

(** [pareto t ~alpha ~x_min] samples a Pareto variate with shape [alpha] and
    scale [x_min]. *)
val pareto : t -> alpha:float -> x_min:float -> float

(** [shuffle t a] permutes array [a] uniformly in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit

(** [permutation t n] is a uniform random permutation of [0..n-1]. *)
val permutation : t -> int -> int array

(** [choose t a] is a uniform element of [a].  Requires [a] non-empty. *)
val choose : t -> 'a array -> 'a

(** [sample_without_replacement t ~n ~k] draws [k] distinct values from
    [0..n-1], in random order.  Requires [0 <= k <= n]. *)
val sample_without_replacement : t -> n:int -> k:int -> int array
