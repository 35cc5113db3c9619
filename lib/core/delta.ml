module Graph = Hgp_graph.Graph
module Io = Hgp_graph.Io
module Hierarchy = Hgp_hierarchy.Hierarchy
module E = Hgp_resilience.Hgp_error
module Reader = Hgp_resilience.Reader

type edit =
  | Reweight_edge of int * int * float
  | Add_edge of int * int * float
  | Remove_edge of int * int
  | Add_vertex of float * (int * float) list
  | Remove_vertex of int

type t = edit list

let invalid fmt =
  Printf.ksprintf
    (fun msg -> E.error (E.Invalid_input { context = "delta.apply"; msg }))
    fmt

let is_reweight_only delta =
  List.for_all (function Reweight_edge _ -> true | _ -> false) delta

let check_weight what w =
  if not (Float.is_finite w) then invalid "%s weight is not finite" what;
  if w < 0. then invalid "%s weight %g is negative" what w

(* Fast path for reweight-only deltas: no id space changes, so the graph is
   patched in place ({!Graph.reweight_edges}, structure-sharing and
   bit-identical to a rebuild) and the mapping is the identity. *)
let apply_reweights (inst : Instance.t) delta =
  let g = inst.graph in
  let n = Graph.n g in
  let updates =
    List.map
      (function
        | Reweight_edge (u, v, w) ->
          if u < 0 || u >= n || v < 0 || v >= n then
            invalid "reweight {%d, %d}: vertex id out of range [0, %d)" u v n;
          if u = v then invalid "reweight {%d, %d}: self-loop" u v;
          check_weight (Printf.sprintf "reweight {%d, %d}:" u v) w;
          if not (Graph.has_edge g u v) then
            invalid "reweight {%d, %d}: no such edge" u v;
          (u, v, w)
        | _ -> assert false)
      delta
  in
  let graph = Graph.reweight_edges g updates in
  Instance.create graph ~demands:inst.demands inst.hierarchy

(* General path: simulate the edit stream over a mutable working state
   (edge table keyed by the (min, max) endpoint pair; demand/alive arrays
   sized for the original vertices plus every [Add_vertex]), then compact
   the surviving ids in one pass. *)
let apply_general (inst : Instance.t) delta =
  let n0 = Graph.n inst.graph in
  let n_adds =
    List.fold_left
      (fun acc -> function Add_vertex _ -> acc + 1 | _ -> acc)
      0 delta
  in
  let n_work = n0 + n_adds in
  let demand = Array.make n_work 0. in
  Array.blit inst.demands 0 demand 0 n0;
  let alive = Array.make n_work false in
  Array.fill alive 0 n0 true;
  let next_id = ref n0 in
  let n_alive = ref n0 in
  let cap = Hierarchy.leaf_capacity inst.hierarchy in
  let edges : (int * int, float) Hashtbl.t =
    Hashtbl.create (4 * max 1 (Graph.m inst.graph))
  in
  Graph.iter_edges (fun u v w -> Hashtbl.replace edges (u, v) w) inst.graph;
  let check_vertex what v =
    if v < 0 || v >= !next_id then
      invalid "%s: vertex id %d out of range [0, %d)" what v !next_id;
    if not alive.(v) then invalid "%s: vertex %d was removed" what v
  in
  let ekey u v = if u < v then (u, v) else (v, u) in
  let check_endpoints what u v =
    check_vertex what u;
    check_vertex what v;
    if u = v then invalid "%s: self-loop {%d, %d}" what u v
  in
  let check_demand what d =
    if not (Float.is_finite d && d > 0.) then
      invalid "%s: demand %g must be positive and finite" what d;
    if d > cap +. 1e-9 then
      invalid "%s: demand %g exceeds leaf capacity %g" what d cap
  in
  List.iter
    (function
      | Reweight_edge (u, v, w) ->
        let what = Printf.sprintf "reweight {%d, %d}" u v in
        check_endpoints what u v;
        check_weight what w;
        let k = ekey u v in
        if not (Hashtbl.mem edges k) then invalid "%s: no such edge" what;
        Hashtbl.replace edges k w
      | Add_edge (u, v, w) ->
        let what = Printf.sprintf "add-edge {%d, %d}" u v in
        check_endpoints what u v;
        check_weight what w;
        let k = ekey u v in
        if Hashtbl.mem edges k then invalid "%s: edge already present" what;
        Hashtbl.replace edges k w
      | Remove_edge (u, v) ->
        let what = Printf.sprintf "remove-edge {%d, %d}" u v in
        check_endpoints what u v;
        let k = ekey u v in
        if not (Hashtbl.mem edges k) then invalid "%s: no such edge" what;
        Hashtbl.remove edges k
      | Add_vertex (d, nbrs) ->
        let id = !next_id in
        let what = Printf.sprintf "add-vertex (working id %d)" id in
        check_demand what d;
        let seen = Hashtbl.create 8 in
        List.iter
          (fun (u, w) ->
            check_vertex what u;
            check_weight what w;
            if Hashtbl.mem seen u then
              invalid "%s: duplicate neighbor %d" what u;
            Hashtbl.add seen u ();
            Hashtbl.replace edges (ekey id u) w)
          nbrs;
        demand.(id) <- d;
        alive.(id) <- true;
        incr next_id;
        incr n_alive
      | Remove_vertex v ->
        let what = Printf.sprintf "remove-vertex %d" v in
        check_vertex what v;
        if !n_alive = 1 then invalid "%s: cannot remove the last vertex" what;
        alive.(v) <- false;
        decr n_alive;
        Hashtbl.filter_map_inplace
          (fun (a, b) w -> if a = v || b = v then None else Some w)
          edges)
    delta;
  let vertices = ref [] in
  for v = !next_id - 1 downto 0 do
    if alive.(v) then vertices := v :: !vertices
  done;
  let edge_list = Hashtbl.fold (fun (u, v) w acc -> (u, v, w) :: acc) edges [] in
  (* [normalize_ids] keeps ascending working-id order, so original vertices
     keep their relative order and appended ones land after the survivors
     that precede them. *)
  let graph, originals = Io.normalize_ids ~vertices:!vertices edge_list in
  let demands = Array.map (fun work_id -> demand.(work_id)) originals in
  let mapping = Array.make n0 (-1) in
  Array.iteri (fun new_id work_id -> if work_id < n0 then mapping.(work_id) <- new_id) originals;
  (Instance.create graph ~demands inst.hierarchy, mapping)

let apply_mapped inst delta =
  if is_reweight_only delta then
    (apply_reweights inst delta, Array.init (Graph.n inst.graph) Fun.id)
  else apply_general inst delta

let apply inst delta =
  if is_reweight_only delta then apply_reweights inst delta
  else fst (apply_general inst delta)

(* Reweights keep the structure, so only a structural delta can disconnect
   the graph.  [Delta.apply] accepts a disconnected result (isolated vertices
   are legal instances), but the decomposition the solver samples is only
   defined on a connected graph. *)
let check_connected (inst : Instance.t) delta =
  if (not (is_reweight_only delta)) && not (Hgp_graph.Traversal.is_connected inst.Instance.graph)
  then
    E.error
      (E.Invalid_input
         {
           context = "delta";
           msg =
             "the delta leaves the graph disconnected; the solver needs a connected \
              graph (reconnect or remove the cut-off vertices in the same delta)";
         })

(* --- text format ------------------------------------------------------- *)

let to_string delta =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "%hgp-delta 1\n";
  List.iter
    (fun edit ->
      (match edit with
      | Reweight_edge (u, v, w) ->
        Buffer.add_string buf (Printf.sprintf "reweight %d %d %.17g" u v w)
      | Add_edge (u, v, w) ->
        Buffer.add_string buf (Printf.sprintf "add-edge %d %d %.17g" u v w)
      | Remove_edge (u, v) ->
        Buffer.add_string buf (Printf.sprintf "remove-edge %d %d" u v)
      | Add_vertex (d, nbrs) ->
        Buffer.add_string buf (Printf.sprintf "add-vertex %.17g" d);
        List.iter
          (fun (u, w) ->
            Buffer.add_string buf (Printf.sprintf " %d %.17g" u w))
          nbrs
      | Remove_vertex v ->
        Buffer.add_string buf (Printf.sprintf "remove-vertex %d" v));
      Buffer.add_char buf '\n')
    delta;
  Buffer.contents buf

let format =
  Reader.format ~comment:'#' ~magic:"%hgp-delta" (fun ~line msg ->
      E.Parse { line = Some line; context = "delta"; msg })

let of_string s =
  let r = Reader.of_string format s in
  let int what = Reader.int r (fun tok -> Printf.sprintf "%s %S is not an integer" what tok) in
  let num what = Reader.float r (fun tok -> Printf.sprintf "%s %S is not a number" what tok) in
  let pair () =
    let u = int "vertex" in
    (u, int "vertex")
  in
  let edits = ref [] in
  while Reader.next_line r do
    let k = Reader.tokens r in
    let edit =
      match Reader.token r with
      | "reweight" when k = 4 ->
        let u, v = pair () in
        Reweight_edge (u, v, num "weight")
      | "add-edge" when k = 4 ->
        let u, v = pair () in
        Add_edge (u, v, num "weight")
      | "remove-edge" when k = 3 ->
        let u, v = pair () in
        Remove_edge (u, v)
      | "add-vertex" when k >= 2 ->
        let d = num "demand" in
        let nbrs = ref [] in
        for _ = 1 to (k - 2) / 2 do
          let u = int "neighbor id" in
          nbrs := (u, num "neighbor weight") :: !nbrs
        done;
        if Reader.more r then
          Reader.fail r "neighbor %S is missing its weight" (Reader.token r);
        Add_vertex (d, List.rev !nbrs)
      | "remove-vertex" when k = 2 -> Remove_vertex (int "vertex")
      | op ->
        Reader.fail r
          "unknown or malformed edit %S (expected reweight/add-edge/\
           remove-edge/add-vertex/remove-vertex)"
          op
    in
    edits := edit :: !edits
  done;
  List.rev !edits

let load path = of_string (Reader.load path)
