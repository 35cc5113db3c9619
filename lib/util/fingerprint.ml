type t = int64

let seed = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let[@inline] add_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

(* The eight bytes of [x], least significant first.  Inlined so the array
   loops below keep the running hash in an unboxed local: a boxed [int64]
   crossing a call would allocate once per element. *)
let[@inline] add_int64 h x =
  let h = ref h in
  for shift = 0 to 7 do
    h := add_byte !h (Int64.to_int (Int64.shift_right_logical x (8 * shift)))
  done;
  !h

(* [add_int64 h (Int64.of_int x)] on a native int: for [shift] = 7 the
   arithmetic shift replicates the sign into bit 63, as [Int64.of_int]
   does. *)
let[@inline] add_int_bytes h x =
  let h = ref h in
  for shift = 0 to 7 do
    h := add_byte !h (x asr (8 * shift))
  done;
  !h

(* Tag bytes keep field types from aliasing (e.g. int 1 vs float 1.0 vs
   Some 1); every [add_*] below leads with its tag. *)
let tag h b = add_byte h b

let add_int h x = add_int_bytes (tag h 0x01) x
let add_float h x = add_int64 (tag h 0x02) (Int64.bits_of_float x)
let add_bool h x = add_byte (tag h 0x03) (if x then 1 else 0)

let add_string h s =
  let h = ref (add_int_bytes (tag h 0x04) (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := add_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let add_int_array h a =
  let h = ref (add_int_bytes (tag h 0x05) (Array.length a)) in
  for i = 0 to Array.length a - 1 do
    h := add_int_bytes !h (Array.unsafe_get a i)
  done;
  !h

let add_float_array h a =
  let h = ref (add_int_bytes (tag h 0x06) (Array.length a)) in
  for i = 0 to Array.length a - 1 do
    h := add_int64 !h (Int64.bits_of_float (Array.unsafe_get a i))
  done;
  !h

let add_option f h = function
  | None -> tag h 0x07
  | Some x -> f (tag h 0x08) x

let combine h h' = add_int64 (tag h 0x09) h'

let to_hex h = Printf.sprintf "%016Lx" h
