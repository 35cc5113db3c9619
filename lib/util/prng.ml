(* The SplitMix64 state, unboxed: eight raw bytes read and written with
   [Bytes.get/set_int64_ne], so advancing it stores no boxed [int64] (a
   [mutable int64] field would allocate a fresh box per draw). *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let copy t = Bytes.copy t

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (mix64 (bits64 t))

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling over the top bits to avoid modulo bias.  A loop
     rather than a local recursive function, which would allocate a
     closure per call. *)
  let limit = max_int - bound + 1 in
  let v = ref (-1) in
  while !v < 0 do
    let r = Int64.to_int (bits64 t) land max_int in
    let x = r mod bound in
    if r - x <= limit then v := x
  done;
  !v

let int_incl t lo hi =
  if lo > hi then invalid_arg "Prng.int_incl: lo > hi";
  lo + int t (hi - lo + 1)

let float t bound =
  if not (bound > 0.) then invalid_arg "Prng.float: bound must be positive";
  let r = Int64.shift_right_logical (bits64 t) 11 in
  (* 53 random bits -> uniform in [0,1). *)
  Int64.to_float r *. (1.0 /. 9007199254740992.0) *. bound

let bool t = Int64.to_int (bits64 t) land 1 = 1

let exponential t ~rate =
  if not (rate > 0.) then invalid_arg "Prng.exponential: rate must be positive";
  let u = 1.0 -. float t 1.0 in
  -.(log u) /. rate

let pareto t ~alpha ~x_min =
  if not (alpha > 0. && x_min > 0.) then invalid_arg "Prng.pareto";
  let u = 1.0 -. float t 1.0 in
  x_min /. (u ** (1.0 /. alpha))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))

let sample_without_replacement t ~n ~k =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  if 2 * k >= n then Array.sub (permutation t n) 0 k
  else begin
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
