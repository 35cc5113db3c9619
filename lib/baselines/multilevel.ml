module Graph = Hgp_graph.Graph
module Prng = Hgp_util.Prng
module Csr = Hgp_graph.Csr
module Coarsen = Hgp_multilevel.Coarsen

type result = {
  parts : int array;
  cut : float;
  levels : int;
}

(* Initial partition on the coarsest graph: chunk a BFS ordering into k
   contiguous groups of roughly equal demand — or, with heterogeneous part
   capacities, demand proportional to each part's capacity share.  BFS
   contiguity gives locality (low cut); chunking guarantees every part is
   used and balanced. *)
let initial_partition rng g demands k caps =
  let n = Graph.n g in
  let src = Prng.int rng (max 1 n) in
  let bfs = Hgp_graph.Traversal.bfs_order g src in
  let order =
    if Array.length bfs = n then bfs
    else begin
      let seen = Array.make n false in
      Array.iter (fun v -> seen.(v) <- true) bfs;
      let rest = List.filter (fun v -> not seen.(v)) (List.init n (fun i -> i)) in
      Array.append bfs (Array.of_list rest)
    end
  in
  let total = Array.fold_left ( +. ) 0. demands in
  let uniform = Array.for_all (fun c -> c = caps.(0)) caps in
  let cap_tail =
    (* cap_tail.(p) = sum of capacities of parts p..k-1, for proportional
       targets on heterogeneous parts. *)
    let t = Array.make (k + 1) 0. in
    for p = k - 1 downto 0 do
      t.(p) <- t.(p + 1) +. caps.(p)
    done;
    t
  in
  let parts = Array.make n 0 in
  let current = ref 0 in
  let acc = ref 0. in
  let assigned = ref 0. in
  Array.iter
    (fun v ->
      let remaining_parts = k - !current in
      let remaining_demand = total -. !assigned +. !acc in
      let ideal =
        if uniform then remaining_demand /. float_of_int remaining_parts
        else remaining_demand *. caps.(!current) /. cap_tail.(!current)
      in
      if !acc >= ideal -. 1e-12 && !acc > 0. && !current < k - 1 then begin
        incr current;
        acc := 0.
      end;
      parts.(v) <- !current;
      acc := !acc +. demands.(v);
      assigned := !assigned +. demands.(v))
    order;
  parts

let flat_cut g parts = Hgp_graph.Cuts.kway_cut g parts

let flat_refine rng g ~demands ~k ~caps parts ~max_passes =
  let n = Graph.n g in
  let parts = Array.copy parts in
  let loads = Array.make k 0. in
  Array.iteri (fun v p -> loads.(p) <- loads.(p) +. demands.(v)) parts;
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    let order = Prng.permutation rng n in
    Array.iter
      (fun v ->
        let from = parts.(v) in
        (* Connectivity to each part. *)
        let conn = Hashtbl.create 8 in
        Graph.iter_neighbors
          (fun u w ->
            let p = parts.(u) in
            let prev = try Hashtbl.find conn p with Not_found -> 0. in
            Hashtbl.replace conn p (prev +. w))
          g v;
        let here = try Hashtbl.find conn from with Not_found -> 0. in
        let d = demands.(v) in
        let best_p = ref from and best_gain = ref 1e-12 in
        Hashtbl.iter
          (fun p there ->
            if p <> from then begin
              let gain = there -. here in
              let fits = loads.(p) +. d <= caps.(p) +. 1e-9 in
              (* Allow the move when the target fits, or when it strictly
                 improves balance of an overloaded source. *)
              let balance_ok = fits || loads.(p) +. d < loads.(from) in
              if gain > !best_gain && balance_ok then begin
                best_gain := gain;
                best_p := p
              end
            end)
          conn;
        if !best_p <> from then begin
          loads.(from) <- loads.(from) -. d;
          loads.(!best_p) <- loads.(!best_p) +. d;
          parts.(v) <- !best_p;
          improved := true
        end)
      order
  done;
  (parts, flat_cut g parts)

let partition rng ?capacities g ~demands ~k ~capacity =
  if k < 1 then invalid_arg "Multilevel.partition: k must be >= 1";
  if Array.length demands <> Graph.n g then invalid_arg "Multilevel.partition: demands length";
  let caps =
    match capacities with
    | None -> Array.make k capacity
    | Some c ->
      if Array.length c <> k then invalid_arg "Multilevel.partition: capacities length";
      c
  in
  if k = 1 then { parts = Array.make (Graph.n g) 0; cut = 0.; levels = 0 }
  else begin
    (* Coarsening phase: the V-cycle's heavy-edge chain with no weight cap,
       finest transition first. *)
    let fine = Csr.of_graph ~vwgt:demands g in
    let chain =
      Coarsen.build rng fine ~threshold:(max (3 * k) 24) ~max_levels:41 ~max_weight:infinity
    in
    let refine (c : Csr.t) parts ~max_passes =
      fst (flat_refine rng c.Csr.graph ~demands:c.Csr.vwgt ~k ~caps parts ~max_passes)
    in
    let coarsest = Coarsen.coarsest ~fine chain in
    let coarse_parts =
      refine coarsest
        (initial_partition rng coarsest.Csr.graph coarsest.Csr.vwgt k caps)
        ~max_passes:8
    in
    (* Uncoarsening: project through each level, deepest first, and refine
       there. *)
    let parts =
      List.fold_right
        (fun (lv : Coarsen.level) parts ->
          refine lv.Coarsen.fine (Array.map (fun c -> parts.(c)) lv.Coarsen.cmap) ~max_passes:4)
        chain coarse_parts
    in
    { parts; cut = flat_cut g parts; levels = List.length chain }
  end
