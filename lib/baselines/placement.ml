module Graph = Hgp_graph.Graph
module Hierarchy = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Prng = Hgp_util.Prng

type order = Heavy_first | Bfs | Demand_first

let least_loaded loads =
  let best = ref 0 in
  for l = 1 to Array.length loads - 1 do
    if loads.(l) < loads.(!best) then best := l
  done;
  !best

let random rng (inst : Instance.t) ~slack =
  let n = Instance.n inst in
  let k = Hierarchy.num_leaves inst.hierarchy in
  let caps =
    Array.init k (fun l -> slack *. Hierarchy.leaf_cap inst.hierarchy l)
  in
  let order = Prng.permutation rng n in
  let assignment = Array.make n (-1) in
  let loads = Array.make k 0. in
  Array.iter
    (fun v ->
      let d = inst.demands.(v) in
      (* Try a few random leaves, then fall back to least-loaded. *)
      let placed = ref false in
      let attempts = ref 0 in
      while (not !placed) && !attempts < 4 * k do
        let l = Prng.int rng k in
        if loads.(l) +. d <= caps.(l) +. 1e-9 then begin
          assignment.(v) <- l;
          loads.(l) <- loads.(l) +. d;
          placed := true
        end;
        incr attempts
      done;
      if not !placed then begin
        let l = least_loaded loads in
        assignment.(v) <- l;
        loads.(l) <- loads.(l) +. d
      end)
    order;
  assignment

let vertex_order (inst : Instance.t) = function
  | Heavy_first ->
    let order = Array.init (Instance.n inst) (fun i -> i) in
    Array.sort
      (fun a b ->
        compare
          (Graph.weighted_degree inst.graph b)
          (Graph.weighted_degree inst.graph a))
      order;
    order
  | Demand_first ->
    let order = Array.init (Instance.n inst) (fun i -> i) in
    Array.sort (fun a b -> compare inst.demands.(b) inst.demands.(a)) order;
    order
  | Bfs ->
    let n = Instance.n inst in
    let heaviest = ref 0 in
    for v = 1 to n - 1 do
      if Graph.weighted_degree inst.graph v > Graph.weighted_degree inst.graph !heaviest
      then heaviest := v
    done;
    Hgp_graph.Traversal.bfs_order_all inst.graph !heaviest

let greedy (inst : Instance.t) ?(order = Heavy_first) ~slack () =
  let n = Instance.n inst in
  let hy = inst.hierarchy in
  let k = Hierarchy.num_leaves hy in
  let caps = Array.init k (fun l -> slack *. Hierarchy.leaf_cap hy l) in
  let assignment = Array.make n (-1) in
  let loads = Array.make k 0. in
  let sequence = vertex_order inst order in
  Array.iter
    (fun v ->
      let d = inst.demands.(v) in
      let best_leaf = ref (-1) in
      let best_cost = ref infinity in
      let best_load = ref infinity in
      for l = 0 to k - 1 do
        if loads.(l) +. d <= caps.(l) +. 1e-9 then begin
          let c =
            Graph.fold_neighbors
              (fun acc u w ->
                if assignment.(u) >= 0 then acc +. (w *. Hierarchy.edge_cost hy l assignment.(u))
                else acc)
              0. inst.graph v
          in
          if c < !best_cost -. 1e-12 || (c < !best_cost +. 1e-12 && loads.(l) < !best_load)
          then begin
            best_cost := c;
            best_leaf := l;
            best_load := loads.(l)
          end
        end
      done;
      let l = if !best_leaf >= 0 then !best_leaf else least_loaded loads in
      assignment.(v) <- l;
      loads.(l) <- loads.(l) +. d)
    sequence;
  assignment
