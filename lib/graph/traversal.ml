module Prng = Hgp_util.Prng
module Pqueue = Hgp_util.Pqueue

let bfs_hops g src =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Graph.iter_neighbors
      (fun v _ ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      g u
  done;
  dist

let bfs_order g src =
  let n = Graph.n g in
  let seen = Array.make n false in
  let order = ref [] in
  let q = Queue.create () in
  seen.(src) <- true;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order := u :: !order;
    Graph.iter_neighbors
      (fun v _ ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v q
        end)
      g u
  done;
  Array.of_list (List.rev !order)

let bfs_order_all g src =
  let n = Graph.n g in
  let order = bfs_order g src in
  if Array.length order = n then order
  else begin
    let seen = Array.make n false in
    Array.iter (fun v -> seen.(v) <- true) order;
    let rest = List.filter (fun v -> not seen.(v)) (List.init n Fun.id) in
    Array.append order (Array.of_list rest)
  end

let dijkstra g src ~edge_length =
  let n = Graph.n g in
  let dist = Array.make n infinity in
  let heap = Pqueue.Indexed.create n in
  dist.(src) <- 0.;
  Pqueue.Indexed.insert heap src 0.;
  while not (Pqueue.Indexed.is_empty heap) do
    let u, du = Pqueue.Indexed.pop_min heap in
    if du <= dist.(u) then
      Graph.iter_neighbors
        (fun v w ->
          let len = edge_length w in
          if not (len >= 0.) then invalid_arg "Traversal.dijkstra: negative length";
          let alt = du +. len in
          if alt < dist.(v) then begin
            dist.(v) <- alt;
            Pqueue.Indexed.insert_or_decrease heap v alt
          end)
        g u
  done;
  dist

let components g =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if comp.(v) = -1 then begin
      let id = !next in
      incr next;
      let q = Queue.create () in
      comp.(v) <- id;
      Queue.add v q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        Graph.iter_neighbors
          (fun x _ ->
            if comp.(x) = -1 then begin
              comp.(x) <- id;
              Queue.add x q
            end)
          g u
      done
    end
  done;
  (comp, !next)

let is_connected g =
  let _, k = components g in
  k <= 1

let ensure_connected g rng =
  let comp, k = components g in
  if k <= 1 then g
  else begin
    let n = Graph.n g in
    (* Pick one random representative per component, chain them. *)
    let members = Array.make k [] in
    for v = n - 1 downto 0 do
      members.(comp.(v)) <- v :: members.(comp.(v))
    done;
    let reps =
      Array.map (fun lst -> Prng.choose rng (Array.of_list lst)) members
    in
    let b = Graph.Builder.create n in
    Graph.iter_edges (fun u v w -> Graph.Builder.add_edge b u v w) g;
    for i = 0 to k - 2 do
      Graph.Builder.add_edge b reps.(i) reps.(i + 1) 1.0
    done;
    Graph.Builder.build b
  end
