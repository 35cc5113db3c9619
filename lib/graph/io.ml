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

let tokens_of_line line =
  (* '\r' is a separator so CRLF files parse identically to LF files. *)
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\r')
  |> List.filter (fun s -> s <> "")

let invalid ~line fmt =
  Printf.ksprintf
    (fun msg ->
      E.error
        (E.Invalid_input { context = "io.of_string"; msg = Printf.sprintf "line %d: %s" line msg }))
    fmt

(* METIS: an "n m [fmt]" header, then exactly n adjacency lines, one per
   vertex in order; an empty line is an isolated vertex.  Only '%' comment
   lines are dropped, so line numbers in errors are the file's own. *)
let of_string ?(first_line = 1) s =
  (* A final newline ends the last line; it does not start another. *)
  let raw =
    String.split_on_char '\n'
      (if String.ends_with ~suffix:"\n" s then String.sub s 0 (String.length s - 1) else s)
  in
  let lines =
    raw
    |> List.mapi (fun i l -> (first_line + i, l))
    |> List.filter (fun (_, l) ->
           let l = String.trim l in
           l = "" || l.[0] <> '%')
  in
  let blank (_, l) = String.trim l = "" in
  let int_at line tok =
    match int_of_string_opt tok with Some v -> v | None -> invalid ~line "bad integer %S" tok
  in
  let rec skip_blank = function l :: rest when blank l -> skip_blank rest | ls -> ls in
  match skip_blank lines with
  | [] -> invalid ~line:first_line "empty input: no header"
  | (hl, header) :: rest ->
    let n, m, weighted =
      match tokens_of_line header with
      | [ n; m ] -> (int_at hl n, int_at hl m, false)
      | [ n; m; fmt ] -> (int_at hl n, int_at hl m, fmt = "1" || fmt = "001")
      | _ -> invalid ~line:hl "malformed header (expected \"n m [fmt]\")"
    in
    if n < 0 || m < 0 then invalid ~line:hl "negative vertex or edge count";
    let b = Graph.Builder.create n in
    let vertex u (line, text) =
      let edge v w =
        if v < 1 || v > n then invalid ~line "neighbour %d outside 1..%d" v n;
        if v - 1 > u then
          try Graph.Builder.add_edge b u (v - 1) w
          with Invalid_argument msg -> invalid ~line "%s" msg
      in
      let rec consume = function
        | [] -> ()
        | [ v ] when weighted -> invalid ~line "neighbour %s has no weight" v
        | v :: w :: tl when weighted ->
          (match float_of_string_opt w with
          | Some w -> edge (int_at line v) w
          | None -> invalid ~line "bad weight %S" w);
          consume tl
        | v :: tl ->
          edge (int_at line v) 1.0;
          consume tl
      in
      consume (tokens_of_line text)
    in
    let rec vertices u = function
      | rest when u = n -> rest
      | [] ->
        invalid ~line:(first_line + List.length raw) "expected %d vertex lines, got %d" n u
      | l :: rest ->
        vertex u l;
        vertices (u + 1) rest
    in
    (match List.find_opt (fun l -> not (blank l)) (vertices 0 rest) with
    | Some (line, _) -> invalid ~line "content after the %d vertex lines" n
    | None -> ());
    let g = Graph.Builder.build b in
    if Graph.m g <> m then invalid ~line:hl "header claims %d edges, parsed %d" m (Graph.m g);
    g

let save g path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string (really_input_string ic len))

let to_edge_list_string g =
  let buf = Buffer.create 4096 in
  Graph.iter_edges
    (fun u v w -> Buffer.add_string buf (Printf.sprintf "%d %d %.17g\n" u v w))
    g;
  Buffer.contents buf

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

let of_edge_list_string ?(normalize = false) s =
  let lines =
    String.split_on_char '\n' s
    |> List.filter (fun l ->
           let l = String.trim l in
           l <> "" && l.[0] <> '%')
  in
  let parsed =
    List.map
      (fun line ->
        match tokens_of_line line with
        | [ u; v ] -> (int_of_string u, int_of_string v, 1.0)
        | [ u; v; w ] -> (int_of_string u, int_of_string v, float_of_string w)
        | _ -> failwith "Io.of_edge_list_string: malformed line")
      lines
  in
  if normalize then fst (normalize_ids parsed)
  else begin
    (* Dense-id contract: every id must name a vertex of the result, so ids
       are taken literally and n = max id + 1.  Sparse inputs therefore
       produce isolated padding vertices — callers that want compaction pass
       [~normalize:true]. *)
    List.iter
      (fun (u, v, _) ->
        if u < 0 || v < 0 then
          E.error
            (E.Invalid_input
               {
                 context = "io.of_edge_list_string";
                 msg =
                   Printf.sprintf
                     "negative vertex id in edge {%d, %d}; ids must be dense \
                      0..n-1 (use ~normalize:true to compact)"
                     u v;
               }))
      parsed;
    let n =
      List.fold_left (fun acc (u, v, _) -> max acc (max u v + 1)) 0 parsed
    in
    Graph.of_edges n parsed
  end
