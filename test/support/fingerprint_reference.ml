(* Byte-wise reference for [Hgp_util.Fingerprint]: each input is first
   serialized to the exact byte string FNV-1a digests — the tag byte, then
   every integer (lengths included) and every float bit pattern as eight
   little-endian bytes, and string contents byte by byte — and that string
   is hashed one byte at a time.  The library's word-at-a-time loops must
   agree with it on every input. *)

let prime = 0x100000001b3L

let digest h buf =
  let h = ref h in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    (Buffer.contents buf);
  !h

let tagged tag =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (Char.chr tag);
  buf

let int h x =
  let buf = tagged 0x01 in
  Buffer.add_int64_le buf (Int64.of_int x);
  digest h buf

let float h x =
  let buf = tagged 0x02 in
  Buffer.add_int64_le buf (Int64.bits_of_float x);
  digest h buf

let string h s =
  let buf = tagged 0x04 in
  Buffer.add_int64_le buf (Int64.of_int (String.length s));
  Buffer.add_string buf s;
  digest h buf

let int_array h a =
  let buf = tagged 0x05 in
  Buffer.add_int64_le buf (Int64.of_int (Array.length a));
  Array.iter (fun x -> Buffer.add_int64_le buf (Int64.of_int x)) a;
  digest h buf

let float_array h a =
  let buf = tagged 0x06 in
  Buffer.add_int64_le buf (Int64.of_int (Array.length a));
  Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) a;
  digest h buf
