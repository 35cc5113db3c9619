module Graph = Hgp_graph.Graph
module Hierarchy = Hgp_hierarchy.Hierarchy
module Hgp_error = Hgp_resilience.Hgp_error

type t = {
  graph : Graph.t;
  demands : float array;
  hierarchy : Hierarchy.t;
}

let create graph ~demands hierarchy =
  if Array.length demands <> Graph.n graph then
    invalid_arg "Instance.create: demands length mismatch";
  let cap = Hierarchy.leaf_capacity hierarchy in
  Array.iteri
    (fun v d ->
      if not (d > 0.) then
        invalid_arg (Printf.sprintf "Instance.create: demand of vertex %d must be positive" v);
      if d > cap +. 1e-9 then
        invalid_arg
          (Printf.sprintf "Instance.create: demand of vertex %d exceeds leaf capacity" v))
    demands;
  { graph; demands = Array.copy demands; hierarchy }

(* [uniform_demands] and [random_demands] take their load from user input
   (the CLI's --load), so a load they cannot honour is invalid input, not a
   programming error. *)
let invalid context fmt =
  Printf.ksprintf
    (fun msg -> Hgp_error.error (Hgp_error.Invalid_input { context; msg }))
    fmt

let check_load context g ~load_factor =
  if not (load_factor > 0. && load_factor <= 1.) then
    invalid context "load factor %g is outside (0, 1]" load_factor;
  if Graph.n g = 0 then invalid context "empty graph"

let uniform_demands g h ~load_factor =
  let context = "instance.uniform_demands" in
  check_load context g ~load_factor;
  let n = Graph.n g in
  let d = load_factor *. Hierarchy.total_capacity h /. float_of_int n in
  let cap = Hierarchy.leaf_capacity h in
  if d > cap +. 1e-9 then
    invalid context
      "per-vertex demand %g (load %g x total capacity %g over %d vertices) exceeds the \
       leaf capacity %g"
      d load_factor (Hierarchy.total_capacity h) n cap;
  create g ~demands:(Array.make n d) h

let random_demands rng g h ~load_factor =
  check_load "instance.random_demands" g ~load_factor;
  let n = Graph.n g in
  let raw = Array.init n (fun _ -> 0.1 +. Hgp_util.Prng.float rng 0.9) in
  let total_cap = Hierarchy.total_capacity h in
  let target = load_factor *. total_cap in
  let sum = Array.fold_left ( +. ) 0. raw in
  let scale = target /. sum in
  (* Clamp to leaf capacity after scaling; the tiny loss of total load keeps
     the instance valid without rejection sampling. *)
  let cap = Hierarchy.leaf_capacity h in
  let demands = Array.map (fun d -> Float.min (d *. scale) cap) raw in
  create g ~demands h

let n t = Graph.n t.graph

let total_demand t = Array.fold_left ( +. ) 0. t.demands

let is_feasible t =
  total_demand t <= Hierarchy.total_capacity t.hierarchy +. 1e-9

let pp ppf t =
  Format.fprintf ppf "instance(%a, %a, demand=%.3g)" Graph.pp t.graph Hierarchy.pp
    t.hierarchy (total_demand t)
