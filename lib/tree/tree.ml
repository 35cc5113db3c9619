type t = {
  root : int;
  parents : int array;
  weights : float array;
  children : int array array;
  post : int array;
  depths : int array;
  leaf_ids : int array;
}

let compute_children n root parents =
  let counts = Array.make n 0 in
  Array.iteri
    (fun v p ->
      if v <> root then begin
        if p < 0 || p >= n || p = v then invalid_arg "Tree: bad parent pointer";
        counts.(p) <- counts.(p) + 1
      end)
    parents;
  let children = Array.map (fun c -> Array.make c (-1)) counts in
  let fill = Array.make n 0 in
  for v = 0 to n - 1 do
    if v <> root then begin
      let p = parents.(v) in
      children.(p).(fill.(p)) <- v;
      fill.(p) <- fill.(p) + 1
    end
  done;
  children

let compute_post n root children =
  (* Iterative post-order to avoid stack overflow on deep trees. *)
  let post = Array.make n 0 in
  let idx = ref 0 in
  let stack = Stack.create () in
  Stack.push (root, 0) stack;
  while not (Stack.is_empty stack) do
    let v, next_child = Stack.pop stack in
    if next_child < Array.length children.(v) then begin
      Stack.push (v, next_child + 1) stack;
      Stack.push (children.(v).(next_child), 0) stack
    end
    else begin
      post.(!idx) <- v;
      incr idx
    end
  done;
  if !idx <> n then invalid_arg "Tree: parent structure is not a connected tree";
  post

let of_parents ~root ~parents ~weights =
  let n = Array.length parents in
  if Array.length weights <> n then invalid_arg "Tree.of_parents: length mismatch";
  if root < 0 || root >= n then invalid_arg "Tree.of_parents: root out of range";
  Array.iteri
    (fun v w ->
      if v <> root && not (w >= 0.) then invalid_arg "Tree.of_parents: negative weight")
    weights;
  let children = compute_children n root parents in
  let post = compute_post n root children in
  let depths = Array.make n 0 in
  (* Process in reverse post-order (parents before children). *)
  for i = n - 1 downto 0 do
    let v = post.(i) in
    if v <> root then depths.(v) <- depths.(parents.(v)) + 1
  done;
  let leaf_ids =
    Array.of_list
      (List.filter
         (fun v -> Array.length children.(v) = 0)
         (List.init n (fun i -> i)))
  in
  {
    root;
    parents = Array.copy parents;
    weights = Array.copy weights;
    children;
    post;
    depths;
    leaf_ids;
  }

let of_graph g ~root =
  let n = Hgp_graph.Graph.n g in
  if Hgp_graph.Graph.m g <> n - 1 then invalid_arg "Tree.of_graph: not a tree (edge count)";
  let parents = Array.make n (-1) in
  let weights = Array.make n 0. in
  let visited = Array.make n false in
  let q = Queue.create () in
  visited.(root) <- true;
  Queue.add root q;
  let seen = ref 1 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Hgp_graph.Graph.iter_neighbors
      (fun v w ->
        if not visited.(v) then begin
          visited.(v) <- true;
          parents.(v) <- u;
          weights.(v) <- w;
          incr seen;
          Queue.add v q
        end)
      g u
  done;
  if !seen <> n then invalid_arg "Tree.of_graph: graph is disconnected";
  of_parents ~root ~parents ~weights

let n_nodes t = Array.length t.parents
let root t = t.root
let parent t v = t.parents.(v)

let edge_weight t v =
  if v = t.root then invalid_arg "Tree.edge_weight: root has no parent edge";
  t.weights.(v)

let children t v = t.children.(v)
let is_leaf t v = Array.length t.children.(v) = 0
let leaves t = t.leaf_ids
let n_leaves t = Array.length t.leaf_ids
let post_order t = t.post
let depth t v = t.depths.(v)

let subtree_leaves t v =
  let acc = ref [] in
  let rec go u =
    if is_leaf t u then acc := u :: !acc
    else Array.iter go t.children.(u)
  in
  go v;
  Array.of_list (List.rev !acc)

let lift_internal_jobs t =
  let n = n_nodes t in
  let internals = List.filter (fun v -> not (is_leaf t v)) (List.init n (fun i -> i)) in
  let extra = List.length internals in
  let parents = Array.make (n + extra) (-1) in
  let weights = Array.make (n + extra) 0. in
  for v = 0 to n - 1 do
    parents.(v) <- t.parents.(v);
    weights.(v) <- t.weights.(v)
  done;
  let job_leaf = Array.init n (fun v -> v) in
  List.iteri
    (fun i v ->
      let d = n + i in
      parents.(d) <- v;
      weights.(d) <- infinity;
      job_leaf.(v) <- d)
    internals;
  (of_parents ~root:t.root ~parents ~weights, job_leaf)

let total_edge_weight t =
  let acc = ref 0. in
  for v = 0 to n_nodes t - 1 do
    if v <> t.root && t.weights.(v) <> infinity then acc := !acc +. t.weights.(v)
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "tree(nodes=%d, leaves=%d, root=%d)" (n_nodes t) (n_leaves t) t.root
