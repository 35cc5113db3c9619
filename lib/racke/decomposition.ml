module Graph = Hgp_graph.Graph
module Tree = Hgp_tree.Tree
module Prng = Hgp_util.Prng
module Obs = Hgp_obs.Obs

type t = {
  tree : Tree.t;
  graph : Graph.t;
  leaf_of_vertex : int array;
  vertex_of_leaf : int array; (* -1 for internal tree nodes *)
}

type strategy = Low_diameter | Bfs_bisection | Gomory_hu

let strategy_name = function
  | Low_diameter -> "low_diameter"
  | Bfs_bisection -> "bfs_bisection"
  | Gomory_hu -> "gomory_hu"

(* Shared finisher: given the tree shape (parent pointers, ids in DFS order
   so parents precede children is NOT assumed — depths are computed by
   chasing) and the vertex<->leaf maps, compute every edge's weight as the
   exact G-cut induced by removing it: for each graph edge, add its weight to
   all tree edges on the leaf-to-leaf path. *)
let finish g ~root ~parent_arr ~leaf_of_vertex ~vertex_of_node =
  let total = Array.length parent_arr in
  let depth = Array.make total (-1) in
  let rec depth_of x =
    if x = root then 0
    else if depth.(x) >= 0 then depth.(x)
    else begin
      let d = 1 + depth_of parent_arr.(x) in
      depth.(x) <- d;
      d
    end
  in
  depth.(root) <- 0;
  for x = 0 to total - 1 do
    ignore (depth_of x)
  done;
  let weights = Array.make total 0. in
  Obs.span "decomposition.cut_weights" (fun () ->
  Graph.iter_edges
    (fun u v w ->
      let a = ref leaf_of_vertex.(u) and b = ref leaf_of_vertex.(v) in
      while depth.(!a) > depth.(!b) do
        weights.(!a) <- weights.(!a) +. w;
        a := parent_arr.(!a)
      done;
      while depth.(!b) > depth.(!a) do
        weights.(!b) <- weights.(!b) +. w;
        b := parent_arr.(!b)
      done;
      while !a <> !b do
        weights.(!a) <- weights.(!a) +. w;
        weights.(!b) <- weights.(!b) +. w;
        a := parent_arr.(!a);
        b := parent_arr.(!b)
      done)
    g);
  let tree = Tree.of_parents ~root ~parents:parent_arr ~weights in
  let vertex_of_leaf =
    Array.init total (fun id ->
        match Hashtbl.find_opt vertex_of_node id with Some v -> v | None -> -1)
  in
  { tree; graph = g; leaf_of_vertex; vertex_of_leaf }

let of_clustering g c =
  let n = Graph.n g in
  (* First pass: number tree nodes (root = 0, then DFS order). *)
  let parents = ref [] in
  let n_nodes = ref 0 in
  let leaf_of_vertex = Array.make n (-1) in
  let vertex_of_node = Hashtbl.create (2 * n) in
  let fresh parent =
    let id = !n_nodes in
    incr n_nodes;
    parents := (id, parent) :: !parents;
    id
  in
  let rec go parent cluster =
    let id = fresh parent in
    (match cluster with
    | Clustering.Leaf v ->
      if leaf_of_vertex.(v) <> -1 then
        invalid_arg "Decomposition.of_clustering: vertex appears twice";
      leaf_of_vertex.(v) <- id;
      Hashtbl.add vertex_of_node id v
    | Clustering.Node children -> List.iter (fun ch -> ignore (go id ch)) children);
    id
  in
  let root = go (-1) c in
  Array.iteri
    (fun v l ->
      if l = -1 then
        invalid_arg (Printf.sprintf "Decomposition.of_clustering: vertex %d missing" v))
    leaf_of_vertex;
  let total = !n_nodes in
  let parent_arr = Array.make total (-1) in
  List.iter (fun (id, p) -> parent_arr.(id) <- p) !parents;
  finish g ~root ~parent_arr ~leaf_of_vertex ~vertex_of_node

let of_spanning_shape g ~parents =
  let n = Graph.n g in
  if Array.length parents <> n then invalid_arg "Decomposition.of_spanning_shape: length";
  let root = ref (-1) in
  Array.iteri (fun v p -> if p = -1 then root := v) parents;
  if !root < 0 then invalid_arg "Decomposition.of_spanning_shape: no root";
  (* Vertices become internal nodes 0..n-1; dummy leaf for vertex v is n+v. *)
  let parent_arr = Array.make (2 * n) (-1) in
  Array.iteri (fun v p -> parent_arr.(v) <- p) parents;
  let leaf_of_vertex = Array.init n (fun v -> n + v) in
  let vertex_of_node = Hashtbl.create (2 * n) in
  for v = 0 to n - 1 do
    parent_arr.(n + v) <- v;
    Hashtbl.add vertex_of_node (n + v) v
  done;
  finish g ~root:!root ~parent_arr ~leaf_of_vertex ~vertex_of_node

let build ?(strategy = Low_diameter) rng g =
  Hgp_resilience.Faults.fire "decomposition.build";
  Obs.span "decomposition.build" ~attrs:[ ("strategy", strategy_name strategy) ]
  @@ fun () ->
  let d =
    match strategy with
    | Low_diameter ->
      let c = Clustering.hierarchical rng g ~edge_length:Clustering.inverse_weight_length in
      of_clustering g c
    | Bfs_bisection ->
      let c = Clustering.bfs_bisection rng g ~edge_length:Clustering.inverse_weight_length in
      of_clustering g c
    | Gomory_hu ->
      let gh = Hgp_flow.Gomory_hu.build g in
      of_spanning_shape g ~parents:gh.Hgp_flow.Gomory_hu.parent
  in
  Obs.count "decomposition.trees_built" 1;
  Obs.count "decomposition.tree_nodes" (Tree.n_nodes d.tree);
  (* Corrupt action: silently swap the leaves of two graph vertices.  The
     tree stays structurally valid but its cut weights no longer describe the
     mapped vertices — exactly the kind of wrong-but-plausible data only
     end-to-end certification catches. *)
  (match Hgp_resilience.Faults.corrupt_index "decomposition.build" ~len:(Graph.n g) with
  | Some i when Graph.n g >= 2 ->
    let j = (i + 1) mod Graph.n g in
    let li = d.leaf_of_vertex.(i) and lj = d.leaf_of_vertex.(j) in
    d.leaf_of_vertex.(i) <- lj;
    d.leaf_of_vertex.(j) <- li;
    d.vertex_of_leaf.(li) <- j;
    d.vertex_of_leaf.(lj) <- i
  | _ -> ());
  d

let tree d = d.tree
let graph d = d.graph
let leaf_of_vertex d v = d.leaf_of_vertex.(v)

let vertex_of_leaf d l =
  let v = d.vertex_of_leaf.(l) in
  if v = -1 then invalid_arg "Decomposition.vertex_of_leaf: not a leaf";
  v

let tree_cut_weight d ~in_vertex_set =
  Hgp_tree.Treecut.min_cut_weight d.tree ~in_set:(fun l -> in_vertex_set d.vertex_of_leaf.(l))

let graph_cut_weight d ~in_vertex_set = Hgp_graph.Cuts.cut_weight d.graph in_vertex_set

let distortion_sample d rng ~trials =
  let n = Graph.n d.graph in
  let ratios = ref [] in
  for _ = 1 to trials do
    (* Grow a random BFS ball to get a nontrivial, clustered vertex set. *)
    let target = 1 + Prng.int rng (max 1 (n - 1)) in
    let src = Prng.int rng n in
    let order = Hgp_graph.Traversal.bfs_order d.graph src in
    let size = min target (Array.length order) in
    let members = Array.make n false in
    Array.iteri (fun i v -> if i < size then members.(v) <- true) order;
    let wg = graph_cut_weight d ~in_vertex_set:(fun v -> members.(v)) in
    if wg > 0. then begin
      let wt = tree_cut_weight d ~in_vertex_set:(fun v -> members.(v)) in
      ratios := (wt /. wg) :: !ratios
    end
  done;
  Array.of_list !ratios
