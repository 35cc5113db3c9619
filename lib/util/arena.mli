(** Reusable flat scratch storage for allocation-free hot loops.

    The DP kernel of [Tree_dp] runs entirely on these structures: growable
    int/float buffers for packed per-node state, and an open-addressed
    int-keyed table (struct-of-arrays slots) for the merge accumulator.
    All of them keep their capacity across uses — clearing is O(1) — so a
    workspace that owns them amortises allocation to zero in steady state.
    See docs/ARCHITECTURE.md, "DP kernel & workspaces". *)

(** Growable [int] buffer.  [clear] resets the length, never the capacity. *)
module Ibuf : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val capacity : t -> int

  (** Times the backing array was reallocated (the [workspace.grows] feed). *)
  val grows : t -> int

  val clear : t -> unit
  val reserve : t -> int -> unit
  val push : t -> int -> unit

  (** [alloc t n] appends [n] uninitialised slots, returning the offset of
      the first — segment-style allocation for packed per-node storage. *)
  val alloc : t -> int -> int

  val get : t -> int -> int
  val set : t -> int -> int -> unit

  (** The backing array (valid indices [0 .. length - 1]; invalidated by the
      next growth).  Exposed so kernels can index without bounds-check-heavy
      wrappers in their inner loops. *)
  val data : t -> int array
end

(** Growable [float] buffer; same contract as {!Ibuf}. *)
module Fbuf : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val capacity : t -> int
  val grows : t -> int
  val clear : t -> unit
  val reserve : t -> int -> unit
  val push : t -> float -> unit
  val alloc : t -> int -> int
  val get : t -> int -> float
  val set : t -> int -> float -> unit
  val data : t -> float array
end

(** Open-addressed hash table from non-negative [int] keys to a float cost
    plus a 3-int payload packed into one int ({!Table.pack}), stored as
    parallel arrays (struct-of-arrays).

    - power-of-two capacity, linear probing, Fibonacci hashing;
    - load factor capped at 1/2;
    - {!clear} bumps an epoch instead of touching slots — O(1) reuse;
    - {!upsert} keeps the minimum cost per key, breaking exact-cost ties by
      the lexicographically smallest payload, a canonical rule independent
      of insertion order. *)
module Table : sig
  type t

  val create : ?capacity:int -> unit -> t
  val size : t -> int

  (** Slots currently probed (the logical capacity; see {!clear_bounded}). *)
  val capacity : t -> int

  val grows : t -> int

  (** Empties the table and restores its full physical capacity. *)
  val clear : t -> unit

  (** [clear_bounded t bound] empties the table for at most [bound] inserts:
      probing and slot scans ({!iter}, {!fold_slots}) then cover only the
      smallest power of two [>= 2 * (bound + 1)] slots, capped at the
      physical length.  The arrays are kept.  An under-stated bound is safe:
      growth widens back to the physical length (doubling only a table
      already at full width), so it never shrinks the arrays. *)
  val clear_bounded : t -> int -> unit

  (** [pack a b c] is the payload [(a, b, c)] as one non-negative int:
      [a] and [b] take 28 bits each, [c] 6 bits, and integer order on
      packed values is the lexicographic order on triples.
      @raise Invalid_argument when a field is negative or too wide. *)
  val pack : int -> int -> int -> int

  (** Field widths of {!pack}: [c] is the low [c_bits] bits, [b] the next
      [b_bits], [a] the rest. *)
  val c_bits : int

  val b_bits : int

  (** [upsert t key cost b1 b2 b3] returns [true] iff [key] was new.
      @raise Invalid_argument when the payload does not {!pack}. *)
  val upsert : t -> int -> float -> int -> int -> int -> bool

  (** {2 Raw-slot access}

      Without flambda every float argument crossing a module boundary is
      boxed; the DP merge performs millions of upserts, so its kernel
      inlines the probe/update against these parallel arrays (keeping
      {!upsert}'s minimum-cost rule; its tie-break compares the keys its
      positional payload names).  A slot [s] is occupied iff
      [(marks t).(s) = epoch t].  Every accessor is invalidated by growth:
      call {!ensure_room} before inserting a new key and re-read them when
      it returns [true]. *)

  val mask : t -> int
  val epoch : t -> int
  val marks : t -> int array
  val keys : t -> int array
  val costs : t -> float array
  val payloads : t -> int array

  (** Grow if one more insertion would exceed the load factor; [true] means
      the backing arrays were replaced (and the epoch reset). *)
  val ensure_room : t -> bool

  (** Record one insertion performed directly through the raw slots. *)
  val added : t -> unit

  val find_opt : t -> int -> float option
  val mem : t -> int -> bool

  (** Visits occupied slots in slot order (not canonical — sort after
      extraction when order matters). *)
  val fold_slots : t -> ('a -> int -> float -> int -> int -> int -> 'a) -> 'a -> 'a

  val iter : t -> (int -> float -> int -> int -> int -> unit) -> unit
end

(** [heapify_perm_min perm len costs keys] turns [perm.(0 .. len-1)] into
    a min-heap of indices ordered by [(costs.(i), keys.(i))] — O(len), in
    place, allocation-free. *)
val heapify_perm_min : int array -> int -> float array -> int array -> unit

(** [pop_perm_min perm len costs keys] pops the minimum of the heap
    [perm.(0 .. len-1)], returns it, and stores it at [perm.(len-1)]; the
    heap is then [perm.(0 .. len-2)].  After [k] pops starting from [len],
    the [k] smallest indices sit at [perm.(len-1)], [perm.(len-2)], ... in
    ascending order — a lazily sorted prefix. *)
val pop_perm_min : int array -> int -> float array -> int array -> int
