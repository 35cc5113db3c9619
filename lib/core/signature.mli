(** Signature vectors for the RHGPT dynamic program (Definition 8).

    A signature [(D^(1), ..., D^(h))] records, for a tree node [v], the
    integer demand of the Level-(j) active set crossing [v] at every level.
    Corollary 1 forces monotonicity [D^(j) >= D^(j+1)] and the capacity
    invariant [D^(j) <= CP(j)]; both are maintained by construction here.

    Signatures are encoded as single non-negative integers (mixed radix over
    per-level capacities) so they can key hash tables.  An optional geometric
    bucketing compresses large values to powers of [(1 + delta)] — the
    Hochbaum–Shmoys state-reduction idea the paper discusses; it trades a
    bounded capacity violation for a smaller state space (ablation E10). *)

type t = {
  h : int;  (** number of tracked levels (1..h) *)
  caps : int array;  (** [caps.(j-1)] = CP(j) in units, for j = 1..h *)
  strides : int array;
  bucket : int -> int;  (** value compression (identity when unbucketed) *)
}

(** [create ~cp_units ?bucketing ()] builds the space.  [cp_units] has length
    [h+1] with [cp_units.(0) = CP(0)] (unused here beyond validation) and must
    be non-increasing.  [bucketing] is the geometric ratio [delta > 0.]. *)
val create : cp_units:int array -> ?bucketing:float -> unit -> t

(** [encode s sg] packs a signature array (length [h]) into an int key.
    Values are bucketed first. *)
val encode : t -> int array -> int

(** [decode s key] unpacks a key into a fresh signature array. *)
val decode : t -> int -> int array

(** [decode_into s key dst ~pos] unpacks a key into [dst.(pos .. pos+h-1)]
    — the allocation-free form the DP merge loop uses to fill its scratch
    signature matrices.  [dst] must have at least [pos + h] slots. *)
val decode_into : t -> int -> int array -> pos:int -> unit

(** [zero s] is the all-zeros signature key (internal node with no leaves
    absorbed yet). *)
val zero : t -> int

(** [of_leaf s units] is the key of the leaf signature [(u, u, ..., u)], or
    [None] when [units] exceeds the leaf-level capacity. *)
val of_leaf : t -> int -> int option

(** {2 Packed dominance words}

    The DP's Pareto scan asks, for many signature pairs, whether one is
    componentwise [<=] the other.  A {!packing} lays a signature out as a
    few machine words with one guard bit above each level's value bits, so
    the whole componentwise test is one subtract-and-mask per word. *)

type packing = {
  words : int;  (** words per packed signature, at least 1 *)
  word_of : int array;  (** [word_of.(j)]: the word holding level [j+1] *)
  shift : int array;  (** [shift.(j)]: bit offset of level [j+1]'s value *)
  guards : int array;  (** [guards.(w)]: the guard bits of word [w] *)
}

(** [bit_length c] is the number of bits of the non-negative [c] (0 for 0). *)
val bit_length : int -> int

(** [packing caps] is the guard-bit layout for signatures whose level
    [j+1] value lies in [0 .. caps.(j)] (e.g. {!t.caps}): one guard bit
    above [ceil(log2(caps.(j) + 1))] value bits per level, no level split
    across words, as many words as needed. *)
val packing : int array -> packing

(** [pack_into p sg dst ~pos] writes the packed form of the signature
    vector [sg] (values within [p]'s caps) to [dst.(pos .. pos+words-1)]. *)
val pack_into : packing -> int array -> int array -> pos:int -> unit

(** [packed_leq p a ~apos b ~bpos] is true iff the signature packed at
    [a.(apos ..)] is componentwise [<=] the one at [b.(bpos ..)]: for every
    word [w], [((b_w lor g_w) - a_w) land g_w = g_w].  This is the
    dominance test of the DP's Pareto scan, which runs it only on pairs
    whose word 0 already passes. *)
val packed_leq : packing -> int array -> apos:int -> int array -> bpos:int -> bool

(** [space_size s] is the product of [(caps.(j) + 1)] — the dense upper bound
    on distinct keys (the DP stores only reachable ones). *)
val space_size : t -> int

(** [count_valid s] counts monotone in-capacity signatures — the true state
    bound quoted when reporting DP statistics.  Exponential-care-free: runs in
    [O(h * max_cap^2)] by DP. *)
val count_valid : t -> int
