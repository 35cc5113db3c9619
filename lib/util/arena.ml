(* Reusable flat scratch storage for allocation-free hot loops.

   Growable int/float buffers plus an open-addressed int-keyed table laid
   out struct-of-arrays.  Everything here is built for *reuse*: buffers
   keep their capacity across solves, and the table clears by bumping an
   epoch instead of touching its slots, so steady-state use allocates
   nothing at all. *)

(* ---- growable int buffer ---- *)

module Ibuf = struct
  type t = { mutable data : int array; mutable len : int; mutable grows : int }

  let create ?(capacity = 64) () =
    { data = Array.make (max 1 capacity) 0; len = 0; grows = 0 }

  let length t = t.len
  let capacity t = Array.length t.data
  let grows t = t.grows
  let clear t = t.len <- 0

  let reserve t n =
    if n > Array.length t.data then begin
      let cap = ref (Array.length t.data) in
      while !cap < n do
        cap := 2 * !cap
      done;
      let bigger = Array.make !cap 0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger;
      t.grows <- t.grows + 1
    end

  let push t v =
    reserve t (t.len + 1);
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  (* [alloc t n] appends [n] uninitialised slots and returns the offset of
     the first — segment-style allocation for packed per-node storage. *)
  let alloc t n =
    reserve t (t.len + n);
    let off = t.len in
    t.len <- t.len + n;
    off

  let get t i = t.data.(i)
  let set t i v = t.data.(i) <- v
  let data t = t.data
end

(* ---- growable float buffer ---- *)

module Fbuf = struct
  type t = { mutable data : float array; mutable len : int; mutable grows : int }

  let create ?(capacity = 64) () =
    { data = Array.make (max 1 capacity) 0.; len = 0; grows = 0 }

  let length t = t.len
  let capacity t = Array.length t.data
  let grows t = t.grows
  let clear t = t.len <- 0

  let reserve t n =
    if n > Array.length t.data then begin
      let cap = ref (Array.length t.data) in
      while !cap < n do
        cap := 2 * !cap
      done;
      let bigger = Array.make !cap 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger;
      t.grows <- t.grows + 1
    end

  let push t v =
    reserve t (t.len + 1);
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let alloc t n =
    reserve t (t.len + n);
    let off = t.len in
    t.len <- t.len + n;
    off

  let get t i = t.data.(i)
  let set t i v = t.data.(i) <- v
  let data t = t.data
end

(* ---- open-addressed flat table: int key -> cost + packed payload ---- *)

(* Slots live in parallel arrays; a slot is occupied iff its [marks] entry
   equals the current [epoch], so [clear] is one increment.  Linear probing
   over a power-of-two capacity; resident entries are capped at half the
   slot count, which keeps probe chains short. *)
module Table = struct
  type t = {
    mutable mask : int;  (* capacity - 1, capacity a power of two *)
    mutable keys : int array;
    mutable costs : float array;
    mutable payloads : int array;  (* packed (a, b, c); the DP's back payload *)
    mutable marks : int array;  (* occupied iff marks.(i) = epoch *)
    mutable epoch : int;
    mutable size : int;
    mutable grows : int;
  }

  (* Payload (a, b, c) = a lsl (b_bits + c_bits) lor b lsl c_bits lor c,
     with a and b below 2^b_bits and c below 2^c_bits: 62 bits, so a packed
     value is a non-negative int and integer order on packed values is the
     lexicographic order on triples. *)
  let c_bits = 6
  let b_bits = 28
  let field_ok v bits = v >= 0 && v < 1 lsl bits

  let pack a b c =
    if not (field_ok a b_bits && field_ok b b_bits && field_ok c c_bits) then
      invalid_arg
        (Printf.sprintf "Arena.Table.pack: (%d, %d, %d) out of range" a b c);
    (a lsl (b_bits + c_bits)) lor (b lsl c_bits) lor c

  let unpack p =
    let mask bits = (1 lsl bits) - 1 in
    (p lsr (b_bits + c_bits), (p lsr c_bits) land mask b_bits, p land mask c_bits)

  let min_capacity = 16

  let rec pow2_at_least c n = if c >= n then c else pow2_at_least (2 * c) n

  let create ?(capacity = min_capacity) () =
    let cap = pow2_at_least min_capacity capacity in
    {
      mask = cap - 1;
      keys = Array.make cap 0;
      costs = Array.make cap 0.;
      payloads = Array.make cap 0;
      marks = Array.make cap (-1);
      epoch = 0;
      size = 0;
      grows = 0;
    }

  let size t = t.size
  let capacity t = t.mask + 1
  let grows t = t.grows

  (* [clear] restores the full physical capacity; [clear_bounded t bound]
     narrows probing to the smallest power of two >= 2 * (bound + 1) (capped
     at the physical length), for a caller that will insert at most [bound]
     keys before the next clear.  Only the logical mask shrinks — the arrays
     are kept — and slots past it still carry older epochs, so they read as
     empty when a later clear widens the mask again. *)
  let clear t =
    t.epoch <- t.epoch + 1;
    t.size <- 0;
    t.mask <- Array.length t.marks - 1

  let clear_bounded t bound =
    t.epoch <- t.epoch + 1;
    t.size <- 0;
    let phys = Array.length t.marks in
    let want = 2 * (bound + 1) in
    t.mask <- (if want >= phys then phys else pow2_at_least min_capacity want) - 1

  (* Fibonacci hashing spreads consecutive signature keys (which differ by
     small stride multiples) across the slot range before masking. *)
  let hash key mask = (key * 0x2545F4914F6CDD1D) land max_int land mask

  (* Slot of [key], or the empty slot where it would go. *)
  let find_slot t key =
    let mask = t.mask in
    let i = ref (hash key mask) in
    while t.marks.(!i) = t.epoch && t.keys.(!i) <> key do
      i := (!i + 1) land mask
    done;
    !i

  (* A table narrowed by {!clear_bounded} widens to its full physical
     length; a full-width one doubles.  So an under-stated bound can neither
     shrink the arrays nor, repeated, balloon them.  Entries of the current
     epoch all lie within the old mask. *)
  let grow t =
    let old_cap = t.mask + 1 in
    let old_keys = t.keys
    and old_costs = t.costs
    and old_payloads = t.payloads
    and old_marks = t.marks
    and old_epoch = t.epoch in
    let phys = Array.length old_marks in
    let cap = if old_cap < phys then phys else 2 * phys in
    t.mask <- cap - 1;
    t.keys <- Array.make cap 0;
    t.costs <- Array.make cap 0.;
    t.payloads <- Array.make cap 0;
    t.marks <- Array.make cap (-1);
    t.epoch <- 0;
    t.grows <- t.grows + 1;
    for i = 0 to old_cap - 1 do
      if old_marks.(i) = old_epoch then begin
        let s = find_slot t old_keys.(i) in
        t.keys.(s) <- old_keys.(i);
        t.costs.(s) <- old_costs.(i);
        t.payloads.(s) <- old_payloads.(i);
        t.marks.(s) <- 0
      end
    done

  (* [upsert t key cost b1 b2 b3] keeps, per key, the smallest cost; on an
     exact cost tie the lexicographically smallest [(b1, b2, b3)] payload
     wins — the smallest packed value.  This rule is canonical — independent
     of insertion order — which is what makes the DP's backpointers
     deterministic regardless of how the merge loop enumerates states.
     Returns [true] when [key] was not yet present. *)
  let upsert t key cost b1 b2 b3 =
    let p = pack b1 b2 b3 in
    if 2 * (t.size + 1) > t.mask + 1 then grow t;
    let s = find_slot t key in
    if t.marks.(s) <> t.epoch then begin
      t.marks.(s) <- t.epoch;
      t.keys.(s) <- key;
      t.costs.(s) <- cost;
      t.payloads.(s) <- p;
      t.size <- t.size + 1;
      true
    end
    else begin
      let old = t.costs.(s) in
      if cost < old || (cost = old && p < t.payloads.(s)) then begin
        t.costs.(s) <- cost;
        t.payloads.(s) <- p
      end;
      false
    end

  (* Raw-slot access for inlined hot paths.  Without flambda, every float
     crossing a module boundary is boxed; a DP merge performs millions of
     upserts, so [Tree_dp] inlines the upsert against these arrays instead
     (same minimum-cost rule; its tie-break reads keys through a positional
     payload, packed as {!pack} does).  All of these invalidate on
     {!grow} — callers re-read them when [ensure_room] returns [true]. *)
  let mask t = t.mask
  let epoch t = t.epoch
  let marks t = t.marks
  let keys t = t.keys
  let costs t = t.costs
  let payloads t = t.payloads

  (* Grow if one more insertion would exceed the load factor; [true] means
     the backing arrays were replaced (and the epoch reset). *)
  let ensure_room t =
    if 2 * (t.size + 1) > t.mask + 1 then begin
      grow t;
      true
    end
    else false

  (* Record an insertion performed directly through the raw-slot arrays. *)
  let added t = t.size <- t.size + 1

  let find_opt t key =
    let s = find_slot t key in
    if t.marks.(s) = t.epoch then Some t.costs.(s) else None

  let mem t key =
    let s = find_slot t key in
    t.marks.(s) = t.epoch

  (* [fold_slots t f acc] visits occupied slots in slot order.  Exposed for
     extraction into sortable scratch arrays — consumers needing a canonical
     order must sort what they extract. *)
  let fold_slots t f acc =
    let r = ref acc in
    for i = 0 to t.mask do
      if t.marks.(i) = t.epoch then begin
        let b1, b2, b3 = unpack t.payloads.(i) in
        r := f !r t.keys.(i) t.costs.(i) b1 b2 b3
      end
    done;
    !r

  let iter t f =
    for i = 0 to t.mask do
      if t.marks.(i) = t.epoch then begin
        let b1, b2, b3 = unpack t.payloads.(i) in
        f t.keys.(i) t.costs.(i) b1 b2 b3
      end
    done
end

(* ---- permutation heaps and sorts ---- *)

(* Min-heap over [perm.(0 .. len-1)] ordering indices by
   [(costs.(i), keys.(i))] ascending.  [heapify_perm_min] builds it in
   O(len); each [pop_perm_min] moves the minimum into the slot the heap just
   gave up, so after [k] pops from a heap of [len] the [k] smallest entries
   sit at [perm.(len-1)], [perm.(len-2)], ... in ascending order.  A caller
   that only reads a prefix pays O(len + prefix * log len) instead of a full
   sort.  No allocation, no closure in the compare. *)
let perm_less (costs : float array) (keys : int array) i j =
  let ci = costs.(i) and cj = costs.(j) in
  ci < cj || (ci = cj && keys.(i) < keys.(j))

let sift_down_min perm root last costs keys =
  let r = ref root in
  let continue = ref true in
  while !continue do
    let child = (2 * !r) + 1 in
    if child > last then continue := false
    else begin
      let child =
        if child + 1 <= last && perm_less costs keys perm.(child + 1) perm.(child) then
          child + 1
        else child
      in
      if perm_less costs keys perm.(child) perm.(!r) then begin
        let tmp = perm.(!r) in
        perm.(!r) <- perm.(child);
        perm.(child) <- tmp;
        r := child
      end
      else continue := false
    end
  done

let heapify_perm_min perm len costs keys =
  for root = (len - 2) / 2 downto 0 do
    sift_down_min perm root (len - 1) costs keys
  done

let pop_perm_min perm len costs keys =
  let top = perm.(0) in
  perm.(0) <- perm.(len - 1);
  perm.(len - 1) <- top;
  sift_down_min perm 0 (len - 2) costs keys;
  top
