module E = Hgp_resilience.Hgp_error

type t = {
  graph : Graph.t;
  vwgt : float array;
  total_vw : float;
}

let invalid context fmt =
  Printf.ksprintf (fun msg -> E.error (E.Invalid_input { context; msg })) fmt

(* Loops rather than closures: a float crossing a closure is boxed, and
   these run once per vertex on every solve. *)
let sum a =
  let s = ref 0. in
  for v = 0 to Array.length a - 1 do
    s := !s +. a.(v)
  done;
  !s

let of_graph ?vwgt g =
  let n = Graph.n g in
  let vwgt =
    match vwgt with
    | None -> Array.make n 1.
    | Some vw ->
      let context = "csr.of_graph" in
      if Array.length vw <> n then
        invalid context "vwgt length %d, expected n = %d" (Array.length vw) n;
      for v = 0 to n - 1 do
        let w = vw.(v) in
        if not (w > 0. && Float.is_finite w) then
          invalid context "vertex %d has non-positive weight %g" v w
      done;
      Array.copy vw
  in
  { graph = g; vwgt; total_vw = sum vwgt }

let to_graph t = t.graph
let n t = Graph.n t.graph
let vertex_weight t v = t.vwgt.(v)
let total_vertex_weight t = t.total_vw

let contract t map ~n_parts =
  let graph = Graph.contract t.graph map ~n_parts in
  let cvw = Array.make n_parts 0. in
  Array.iteri (fun v p -> cvw.(p) <- cvw.(p) +. t.vwgt.(v)) map;
  for p = 0 to n_parts - 1 do
    if not (cvw.(p) > 0.) then invalid "csr.contract" "part %d is empty" p
  done;
  { graph; vwgt = cvw; total_vw = sum cvw }

let fingerprint t =
  let open Hgp_util.Fingerprint in
  let g = t.graph in
  seed |> Fun.flip add_string "csr" |> Fun.flip add_int g.Graph.n
  |> Fun.flip add_int_array g.Graph.xadj
  |> Fun.flip add_int_array g.Graph.adjncy
  |> Fun.flip add_float_array g.Graph.adjw
  |> Fun.flip add_float_array t.vwgt

let pp ppf t =
  Format.fprintf ppf "csr(n=%d, m=%d, W=%g, Wv=%g)" (n t) (Graph.m t.graph)
    (Graph.total_weight t.graph) t.total_vw
