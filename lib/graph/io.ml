module E = Hgp_resilience.Hgp_error

let to_string g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "%d %d 001\n" (Graph.n g) (Graph.m g));
  for u = 0 to Graph.n g - 1 do
    let first = ref true in
    Graph.iter_neighbors
      (fun v w ->
        if not !first then Buffer.add_char buf ' ';
        first := false;
        Buffer.add_string buf (Printf.sprintf "%d %.17g" (v + 1) w))
      g u;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

module Reader = Hgp_resilience.Reader

let metis =
  Reader.format ~comment:'%' ~blank_lines:true (fun ~line msg ->
      E.Invalid_input { context = "io.of_string"; msg = Printf.sprintf "line %d: %s" line msg })

let bad_integer tok = Printf.sprintf "bad integer %S" tok
let bad_weight tok = Printf.sprintf "bad weight %S" tok

(* METIS: an "n m [fmt]" header, then exactly n adjacency lines, one per
   vertex in order; an empty line is an isolated vertex.  Only '%' comment
   lines are dropped, so line numbers in errors are the file's own. *)
let read r =
  let r = Reader.switch metis r in
  let first = Reader.line r + 1 in
  let rec header () = Reader.next_line r && (Reader.more r || header ()) in
  if not (header ()) then Reader.fail ~line:first r "empty input: no header";
  let hl = Reader.line r in
  let k = Reader.tokens r in
  if k <> 2 && k <> 3 then Reader.fail r "malformed header (expected \"n m [fmt]\")";
  let n = Reader.int r bad_integer in
  let m = Reader.int r bad_integer in
  let weighted = k = 3 && (match Reader.token r with "1" | "001" -> true | _ -> false) in
  if n < 0 || m < 0 then Reader.fail r "negative vertex or edge count";
  let b = Graph.Builder.create n in
  let edge u v w =
    if v < 1 || v > n then Reader.fail r "neighbour %d outside 1..%d" v n;
    if v - 1 > u then
      try Graph.Builder.add_edge b u (v - 1) w
      with Invalid_argument msg -> Reader.fail r "%s" msg
  in
  for u = 0 to n - 1 do
    if not (Reader.next_line r) then Reader.fail r "expected %d vertex lines, got %d" n u;
    while Reader.more r do
      let v = Reader.int r bad_integer in
      if not weighted then edge u v 1.0
      else if Reader.more r then edge u v (Reader.float r bad_weight)
      else Reader.fail r "neighbour %d has no weight" v
    done
  done;
  while Reader.next_line r do
    if Reader.more r then Reader.fail r "content after the %d vertex lines" n
  done;
  let g = Graph.Builder.build b in
  if Graph.m g <> m then Reader.fail ~line:hl r "header claims %d edges, parsed %d" m (Graph.m g);
  g

let of_string s = read (Reader.of_string metis s)

let normalize_ids ?(vertices = []) edges =
  let module IS = Set.Make (Int) in
  let ids =
    (* Seed with the explicitly-kept vertices: ids that must survive even
       when no edge mentions them (isolated vertices under edit streams —
       an id set derived from edges alone would silently drop them and
       shift every later id, breaking the dense-id contract). *)
    List.fold_left
      (fun acc v ->
        if v < 0 then
          E.error
            (E.Invalid_input
               {
                 context = "io.normalize_ids";
                 msg = Printf.sprintf "negative vertex id %d" v;
               });
        IS.add v acc)
      IS.empty vertices
  in
  let ids =
    List.fold_left
      (fun acc (u, v, _) ->
        if u < 0 || v < 0 then
          E.error
            (E.Invalid_input
               {
                 context = "io.normalize_ids";
                 msg = Printf.sprintf "negative vertex id in edge {%d, %d}" u v;
               });
        IS.add u (IS.add v acc))
      ids edges
  in
  (* Dense ids 0..k-1 in ascending original-id order, so normalization of an
     already-dense list is the identity. *)
  let originals = Array.of_list (IS.elements ids) in
  let index = Hashtbl.create (2 * Array.length originals) in
  Array.iteri (fun i id -> Hashtbl.add index id i) originals;
  let dense =
    List.map
      (fun (u, v, w) -> (Hashtbl.find index u, Hashtbl.find index v, w))
      edges
  in
  (Graph.of_edges (Array.length originals) dense, originals)
