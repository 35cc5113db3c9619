module E = Hgp_error

let load path =
  try In_channel.with_open_bin path In_channel.input_all with
  | Sys_error msg -> E.error (E.Io_error { path; msg })
  | End_of_file -> E.error (E.Io_error { path; msg = "short read" })

type format = {
  comment : char option;
  magic : string option;
  blank_lines : bool;
  error : line:int -> string -> E.t;
}

let format ?comment ?magic ?(blank_lines = false) error = { comment; magic; blank_lines; error }

(* The current line is [start, stop); [next] is where the next one starts,
   past the end of the text once the text is exhausted. *)
type t = {
  fmt : format;
  text : string;
  mutable line : int;
  mutable start : int;
  mutable stop : int;
  mutable next : int;
  mutable pos : int;
}

let of_string fmt text = { fmt; text; line = 0; start = 0; stop = 0; next = 0; pos = 0 }
let switch fmt r = { r with fmt }
let line r = r.line
let text r = String.sub r.text r.start (r.stop - r.start)

(* The characters [String.trim] drops, less '\n', which ends a line. *)
let is_sep = function ' ' | '\t' | '\r' | '\012' -> true | _ -> false

let token_end r i =
  let j = ref i in
  while !j < r.stop && not (is_sep (String.unsafe_get r.text !j)) do
    incr j
  done;
  !j

let more r =
  while r.pos < r.stop && is_sep (String.unsafe_get r.text r.pos) do
    r.pos <- r.pos + 1
  done;
  r.pos < r.stop

let tokens r =
  let at = r.pos and k = ref 0 in
  while more r do
    r.pos <- token_end r r.pos;
    incr k
  done;
  r.pos <- at;
  !k

let token r =
  ignore (more r);
  let i = r.pos in
  r.pos <- token_end r i;
  String.sub r.text i (r.pos - i)

let skipped r =
  if not (more r) then not r.fmt.blank_lines
  else
    (match r.fmt.comment with Some c -> r.text.[r.pos] = c | None -> false)
    || match r.fmt.magic with
       | Some m -> token r = m && token r = "1" && not (more r)
       | None -> false

let rec next_line r =
  let len = String.length r.text in
  r.next <= len
  && begin
       let stop = try String.index_from r.text r.next '\n' with Not_found -> len in
       r.line <- r.line + 1;
       r.start <- r.next;
       r.stop <- stop;
       r.pos <- r.next;
       (* At the end the line count moves on once, so an error about a
          missing line names the line that is not there. *)
       r.next <- (if r.start = len then len + 1 else min (stop + 1) len);
       r.start < len && if skipped r then next_line r else (r.pos <- r.start; true)
     end

let fail ?line r fmt =
  let line = Option.value line ~default:r.line in
  Printf.ksprintf (fun msg -> E.error (r.fmt.error ~line msg)) fmt

let int r bad =
  ignore (more r);
  let i = r.pos in
  let e = token_end r i in
  r.pos <- e;
  (* Up to 18 plain digits are read in place; anything else goes through
     [int_of_string_opt], so the accepted forms are exactly its own. *)
  let v = ref (if i < e && e - i <= 18 then 0 else -1) and k = ref i in
  while !v >= 0 && !k < e do
    (match String.unsafe_get r.text !k with
    | '0' .. '9' as c -> v := (!v * 10) + Char.code c - 48
    | _ -> v := -1);
    incr k
  done;
  if !v >= 0 then !v
  else
    let tok = String.sub r.text i (e - i) in
    match int_of_string_opt tok with Some v -> v | None -> fail r "%s" (bad tok)

let float r bad =
  let tok = token r in
  match float_of_string_opt tok with Some v -> v | None -> fail r "%s" (bad tok)
