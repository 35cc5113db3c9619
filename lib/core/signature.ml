type t = {
  h : int;
  caps : int array;
  strides : int array;
  bucket : int -> int;
}

let geometric_bucket delta v =
  (* Small values exact; larger ones rounded down to the nearest
     representative of a geometric ladder.  Built incrementally so that
     representatives map to themselves (idempotence is required by the DP's
     incremental key arithmetic). *)
  if v <= 4 then v
  else begin
    let ratio = 1. +. delta in
    let r = ref 4 in
    let continue = ref true in
    while !continue do
      let next = max (!r + 1) (int_of_float (floor (float_of_int !r *. ratio))) in
      if next <= v then r := next else continue := false
    done;
    !r
  end

let create ~cp_units ?bucketing () =
  let h = Array.length cp_units - 1 in
  if h < 0 then invalid_arg "Signature.create: cp_units must be non-empty";
  for j = 0 to h - 1 do
    if cp_units.(j) < cp_units.(j + 1) then
      invalid_arg "Signature.create: capacities must be non-increasing with depth"
  done;
  Array.iter (fun c -> if c < 0 then invalid_arg "Signature.create: negative capacity") cp_units;
  let caps = Array.sub cp_units 1 h in
  let strides = Array.make h 1 in
  for j = 1 to h - 1 do
    strides.(j) <- strides.(j - 1) * (caps.(j - 1) + 1);
    if strides.(j) < 0 then invalid_arg "Signature.create: state space overflows int"
  done;
  let bucket =
    match bucketing with
    | None -> fun v -> v
    | Some delta ->
      if not (delta > 0.) then invalid_arg "Signature.create: bucketing delta must be positive";
      geometric_bucket delta
  in
  { h; caps; strides; bucket }

let encode s sg =
  if Array.length sg <> s.h then invalid_arg "Signature.encode: length mismatch";
  let key = ref 0 in
  for j = 0 to s.h - 1 do
    let v = s.bucket sg.(j) in
    if v < 0 || v > s.caps.(j) then invalid_arg "Signature.encode: value out of range";
    key := !key + (v * s.strides.(j))
  done;
  !key

let decode_into s key dst ~pos =
  let k = ref key in
  for j = s.h - 1 downto 0 do
    dst.(pos + j) <- !k / s.strides.(j);
    k := !k mod s.strides.(j)
  done

let decode s key =
  let sg = Array.make s.h 0 in
  decode_into s key sg ~pos:0;
  sg

let zero _s = 0

let of_leaf s units =
  if s.h = 0 then Some 0
  else if units > s.caps.(s.h - 1) then None
  else begin
    let key = ref 0 in
    let v = s.bucket units in
    for j = 0 to s.h - 1 do
      key := !key + (v * s.strides.(j))
    done;
    Some !key
  end

(* ---- packed dominance words ----

   Field [j] holds the level-[j+1] value in [bit_length caps.(j)] value
   bits topped by one guard bit; fields never straddle a word.  With every
   guard set in [b], [(b lor g) - a] never borrows across a field (each
   field computes [b_j + 2^bits_j - a_j >= 1]), and a field keeps its guard
   exactly when [a_j <= b_j].  A word spans all [Sys.int_size] bits: the
   top field's guard may be the sign bit, which is sound because the
   subtraction is exact modulo [2^Sys.int_size].  There is always at least
   one word: at [h = 0] it is a constant 0 with no guards, and the test
   holds vacuously. *)

type packing = {
  words : int;
  word_of : int array;
  shift : int array;
  guards : int array;
}

let bit_length c =
  let rec go c n = if c = 0 then n else go (c lsr 1) (n + 1) in
  go c 0

let packing caps =
  let h = Array.length caps in
  let word_of = Array.make h 0 and shift = Array.make h 0 in
  let w = ref 0 and used = ref 0 in
  for j = 0 to h - 1 do
    if caps.(j) < 0 then invalid_arg "Signature.packing: negative capacity";
    let width = bit_length caps.(j) + 1 in
    if !used + width > Sys.int_size then begin
      incr w;
      used := 0
    end;
    word_of.(j) <- !w;
    shift.(j) <- !used;
    used := !used + width
  done;
  let words = !w + 1 in
  let guards = Array.make words 0 in
  for j = 0 to h - 1 do
    let w = word_of.(j) in
    guards.(w) <- guards.(w) lor (1 lsl (shift.(j) + bit_length caps.(j)))
  done;
  { words; word_of; shift; guards }

let pack_into p sg dst ~pos =
  Array.fill dst pos p.words 0;
  for j = 0 to Array.length p.word_of - 1 do
    let w = pos + p.word_of.(j) in
    dst.(w) <- dst.(w) lor (sg.(j) lsl p.shift.(j))
  done

let packed_leq p a ~apos b ~bpos =
  let ok = ref true and w = ref 0 in
  while !ok && !w < p.words do
    let g = p.guards.(!w) in
    if ((b.(bpos + !w) lor g) - a.(apos + !w)) land g <> g then ok := false;
    incr w
  done;
  !ok

let space_size s =
  Array.fold_left (fun acc c -> acc * (c + 1)) 1 s.caps

let count_valid s =
  if s.h = 0 then 1
  else begin
    (* counts.(v): number of monotone suffixes starting with value v at the
       current level.  Process levels from deepest to shallowest. *)
    let deepest = s.caps.(s.h - 1) in
    let counts = ref (Array.make (deepest + 1) 1) in
    for j = s.h - 2 downto 0 do
      let cap = s.caps.(j) in
      let prev = !counts in
      let prev_cap = Array.length prev - 1 in
      (* suffix_sums.(v) = sum of prev.(0..min v prev_cap) *)
      let next = Array.make (cap + 1) 0 in
      let running = ref 0 in
      for v = 0 to cap do
        if v <= prev_cap then running := !running + prev.(v);
        next.(v) <- !running
      done;
      counts := next
    done;
    Array.fold_left ( + ) 0 !counts
  end
