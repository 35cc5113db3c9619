module Graph = Hgp_graph.Graph
module Hierarchy = Hgp_hierarchy.Hierarchy

let assignment_cost (inst : Instance.t) p =
  let h = inst.hierarchy in
  Graph.fold_edges
    (fun acc u v w -> acc +. (w *. Hierarchy.edge_cost h p.(u) p.(v)))
    0. inst.graph

let mirror_cost (inst : Instance.t) p =
  let hy = inst.hierarchy in
  let h = Hierarchy.height hy in
  let total = ref 0. in
  for j = 1 to h do
    (* Per-group telescoping: a Level-(j) group whose boundary an edge
       crosses contributes (cm(parent(g)) - cm(g)) / 2 per unit of boundary
       weight; summed over levels and both endpoints this telescopes to
       cm(lca) minus the endpoints' leaf multipliers (added back below).
       On regular trees every group at a level shares one diff, reducing
       exactly to the per-level Eq. 3 formula. *)
    let n_j = Hierarchy.nodes_at_level hy j in
    let diffs =
      Array.init n_j (fun g ->
          (Hierarchy.cm_of hy ~level:(j - 1) (Hierarchy.parent_of hy ~level:j g)
          -. Hierarchy.cm_of hy ~level:j g)
          /. 2.)
    in
    if Array.exists (fun d -> d <> 0.) diffs then begin
      (* Boundary weight of every Level-(j) group: an edge contributes to the
         groups of both endpoints when they differ. *)
      let boundary = Array.make n_j 0. in
      Graph.iter_edges
        (fun u v w ->
          let au = Hierarchy.ancestor hy ~level:j p.(u)
          and av = Hierarchy.ancestor hy ~level:j p.(v) in
          if au <> av then begin
            boundary.(au) <- boundary.(au) +. w;
            boundary.(av) <- boundary.(av) +. w
          end)
        inst.graph;
      Array.iteri (fun g b -> total := !total +. (b *. diffs.(g))) boundary
    end
  done;
  (* A non-normalized hierarchy charges each edge its endpoints' residual
     leaf multipliers (Lemma 1); with one uniform leaf multiplier this is
     the historical cm(h) * total_weight term. *)
  let lo, hi = Hierarchy.cm_range hy h in
  if lo = hi then begin
    let base = lo in
    if base <> 0. then total := !total +. (base *. Graph.total_weight inst.graph)
  end
  else
    Graph.iter_edges
      (fun u v w ->
        total :=
          !total
          +. (w
              *. (Hierarchy.cm_of hy ~level:h p.(u)
                 +. Hierarchy.cm_of hy ~level:h p.(v))
              /. 2.))
      inst.graph;
  !total

let leaf_loads (inst : Instance.t) p =
  let k = Hierarchy.num_leaves inst.hierarchy in
  let loads = Array.make k 0. in
  Array.iteri
    (fun v leaf ->
      if leaf < 0 || leaf >= k then invalid_arg "Cost.leaf_loads: leaf out of range";
      loads.(leaf) <- loads.(leaf) +. inst.demands.(v))
    p;
  loads

let level_violation_of hy ~demands p j =
  let loads = Array.make (Hierarchy.nodes_at_level hy j) 0. in
  Array.iteri
    (fun v leaf ->
      let a = Hierarchy.ancestor hy ~level:j leaf in
      loads.(a) <- loads.(a) +. demands.(v))
    p;
  let worst = ref 0. in
  Array.iteri
    (fun idx l -> worst := Float.max !worst (l /. Hierarchy.capacity_of hy ~level:j idx))
    loads;
  !worst

let level_violation (inst : Instance.t) p j =
  level_violation_of inst.hierarchy ~demands:inst.demands p j

let max_violation_of hy ~demands p =
  let worst = ref 0. in
  for j = 1 to Hierarchy.height hy do
    worst := Float.max !worst (level_violation_of hy ~demands p j)
  done;
  !worst

let max_violation (inst : Instance.t) p =
  max_violation_of inst.hierarchy ~demands:inst.demands p

let is_valid (inst : Instance.t) p ~slack =
  Array.length p = Instance.n inst
  && Array.for_all (fun leaf -> leaf >= 0 && leaf < Hierarchy.num_leaves inst.hierarchy) p
  &&
  let loads = leaf_loads inst p in
  let hy = inst.hierarchy in
  let ok = ref true in
  Array.iteri
    (fun l load -> if load > (slack *. Hierarchy.leaf_cap hy l) +. 1e-9 then ok := false)
    loads;
  !ok
