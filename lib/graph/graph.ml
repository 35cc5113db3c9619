module E = Hgp_resilience.Hgp_error

type t = {
  n : int;
  xadj : int array;
  adjncy : int array;
  adjw : float array;
  total_w : float;
}

let invalid context fmt =
  Printf.ksprintf (fun msg -> E.error (E.Invalid_input { context; msg })) fmt

(* Sum of the edge weights in ascending (u, v) order — the one summation
   rule, shared by every constructor so equal graphs carry equal totals. *)
let edge_total n xadj adjncy adjw =
  let s = ref 0. in
  for u = 0 to n - 1 do
    for i = xadj.(u) to xadj.(u + 1) - 1 do
      if u < adjncy.(i) then s := !s +. adjw.(i)
    done
  done;
  !s

(* ---- the one CSR build ----

   The directed arcs are sorted by (src, dst) with two stable counting
   passes — by dst, then by src — so each (src, dst) run keeps input order,
   and both directions of an undirected edge see the same addition
   sequence: the two slots hold bit-identical sums.  Sums start from [0.],
   as accumulating into an empty table would.

   The passes run in a per-domain scratch grown to the largest build seen
   and never shrunk; a build calls no user code, so the scratch of one
   domain is never entered twice at once.  What a build allocates is its
   output: [xadj] and the merged [adjncy]/[adjw] at their exact length. *)

type scratch = {
  mutable fill : int array;  (* per vertex: the next free slot of its bucket or row *)
  mutable bsrc : int array;  (* arcs bucketed by dst: their src ... *)
  mutable bw : float array;  (* ... and weight *)
  mutable radj : int array;  (* arcs in (src, dst) order, merged in place *)
  mutable rw : float array;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { fill = [||]; bsrc = [||]; bw = [||]; radj = [||]; rw = [||] })

let scratch ~n ~na =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.fill < n then s.fill <- Array.make (max n (2 * Array.length s.fill)) 0;
  if Array.length s.bsrc < na then begin
    let c = max na (2 * Array.length s.bsrc) in
    s.bsrc <- Array.make c 0;
    s.bw <- Array.make c 0.;
    s.radj <- Array.make c 0;
    s.rw <- Array.make c 0.
  end;
  s

(* First pass, per input edge [{u, v}] (not a self-loop): count its two
   arcs, then — once [offsets] turned the counts into row offsets and
   [fill] holds a copy of them — drop each arc into its dst bucket.  Every
   vertex is the source of as many arcs as it is the destination of, so
   [start] delimits both the dst buckets and the src rows. *)
let[@inline] count start u v =
  start.(u + 1) <- start.(u + 1) + 1;
  start.(v + 1) <- start.(v + 1) + 1

let offsets start n =
  for v = 0 to n - 1 do
    start.(v + 1) <- start.(v + 1) + start.(v)
  done

let[@inline] bucket s u v x =
  let p = s.fill.(v) in
  s.fill.(v) <- p + 1;
  s.bsrc.(p) <- u;
  s.bw.(p) <- x;
  let p = s.fill.(u) in
  s.fill.(u) <- p + 1;
  s.bsrc.(p) <- v;
  s.bw.(p) <- x

(* Second pass: the dst buckets [start] delimits, filled in ascending dst
   order into the src rows, then the duplicate (src, dst) runs merged in
   place (rows only shrink, so the write cursor never passes the read
   cursor) and copied out at their merged length. *)
let finish n start s =
  let fill = s.fill and bsrc = s.bsrc and bw = s.bw and radj = s.radj and rw = s.rw in
  Array.blit start 0 fill 0 n;
  for d = 0 to n - 1 do
    for k = start.(d) to start.(d + 1) - 1 do
      let src = bsrc.(k) in
      let p = fill.(src) in
      fill.(src) <- p + 1;
      radj.(p) <- d;
      rw.(p) <- 0. +. bw.(k)
    done
  done;
  let j = ref 0 in
  for u = 0 to n - 1 do
    let lo = start.(u) and hi = start.(u + 1) in
    start.(u) <- !j;
    for k = lo to hi - 1 do
      if !j > start.(u) && radj.(!j - 1) = radj.(k) then
        rw.(!j - 1) <- rw.(!j - 1) +. rw.(k)
      else begin
        radj.(!j) <- radj.(k);
        rw.(!j) <- rw.(k);
        incr j
      end
    done
  done;
  start.(n) <- !j;
  let adjncy = Array.sub radj 0 !j and adjw = Array.sub rw 0 !j in
  { n; xadj = start; adjncy; adjw; total_w = edge_total n start adjncy adjw }

(* The build over the first [ne] entries of [src]/[dst]/[w] (validated by
   the caller; self-loops are dropped here). *)
let build n ~ne src dst w =
  let start = Array.make (n + 1) 0 in
  for i = 0 to ne - 1 do
    if src.(i) <> dst.(i) then count start src.(i) dst.(i)
  done;
  offsets start n;
  let s = scratch ~n ~na:start.(n) in
  Array.blit start 0 s.fill 0 n;
  for i = 0 to ne - 1 do
    if src.(i) <> dst.(i) then bucket s src.(i) dst.(i) w.(i)
  done;
  finish n start s

module Builder = struct
  type graph = t

  type t = {
    bn : int;
    mutable src : int array;
    mutable dst : int array;
    mutable w : float array;
    mutable len : int;
    mutable closed : bool;
  }

  let create n =
    if n < 0 then invalid_arg "Graph.Builder.create: negative n";
    { bn = n; src = [||]; dst = [||]; w = [||]; len = 0; closed = false }

  let add_edge b u v w =
    if b.closed then invalid_arg "Graph.Builder: reused after build";
    if u < 0 || u >= b.bn || v < 0 || v >= b.bn then
      invalid_arg "Graph.Builder.add_edge: vertex out of range";
    if not (w >= 0.) then invalid_arg "Graph.Builder.add_edge: negative weight";
    if u <> v then begin
      if b.len = Array.length b.src then begin
        let cap = max 16 (2 * b.len) in
        let grow a z =
          let a' = Array.make cap z in
          Array.blit a 0 a' 0 b.len;
          a'
        in
        b.src <- grow b.src 0;
        b.dst <- grow b.dst 0;
        b.w <- grow b.w 0.
      end;
      b.src.(b.len) <- u;
      b.dst.(b.len) <- v;
      b.w.(b.len) <- w;
      b.len <- b.len + 1
    end

  let build b =
    b.closed <- true;
    build b.bn ~ne:b.len b.src b.dst b.w
end

let n g = g.n
let m g = Array.length g.adjncy / 2

let of_edges nv edges =
  let b = Builder.create nv in
  List.iter (fun (u, v, w) -> Builder.add_edge b u v w) edges;
  Builder.build b

let of_arrays ~n ~src ~dst ~w () =
  let context = "graph.of_arrays" in
  if n < 0 then invalid context "negative vertex count %d" n;
  let ne = Array.length src in
  if Array.length dst <> ne || Array.length w <> ne then
    invalid context "edge array lengths differ: src %d, dst %d, w %d" ne
      (Array.length dst) (Array.length w);
  for i = 0 to ne - 1 do
    let u = src.(i) and v = dst.(i) in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid context "edge %d = {%d, %d} has a dangling endpoint (n = %d)" i u v n;
    if not (w.(i) >= 0. && Float.is_finite w.(i)) then
      invalid context "edge %d = {%d, %d} has invalid weight %g" i u v w.(i)
  done;
  build n ~ne src dst w

let iter_edges f g =
  for u = 0 to g.n - 1 do
    for i = g.xadj.(u) to g.xadj.(u + 1) - 1 do
      let v = g.adjncy.(i) in
      if u < v then f u v g.adjw.(i)
    done
  done

let fold_edges f init g =
  let acc = ref init in
  iter_edges (fun u v w -> acc := f !acc u v w) g;
  !acc

let edges g =
  let out = Array.make (m g) (0, 0, 0.) in
  let k = ref 0 in
  iter_edges
    (fun u v w ->
      out.(!k) <- (u, v, w);
      incr k)
    g;
  out

let iter_neighbors f g u =
  for i = g.xadj.(u) to g.xadj.(u + 1) - 1 do
    f g.adjncy.(i) g.adjw.(i)
  done

let fold_neighbors f init g u =
  let acc = ref init in
  for i = g.xadj.(u) to g.xadj.(u + 1) - 1 do
    acc := f !acc g.adjncy.(i) g.adjw.(i)
  done;
  !acc

let degree g u = g.xadj.(u + 1) - g.xadj.(u)

let weighted_degree g u =
  let acc = ref 0. in
  for i = g.xadj.(u) to g.xadj.(u + 1) - 1 do
    acc := !acc +. g.adjw.(i)
  done;
  !acc

let total_weight g = g.total_w

(* Adjacency slot of [v] in row [u], or -1 — rows are ascending. *)
let slot g u v =
  let lo = ref g.xadj.(u) and hi = ref (g.xadj.(u + 1) - 1) in
  let res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = g.adjncy.(mid) in
    if x = v then begin
      res := mid;
      lo := !hi + 1
    end
    else if x < v then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let edge_weight g u v =
  let i = slot g u v in
  if i < 0 then 0. else g.adjw.(i)

let has_edge g u v = slot g u v >= 0

let induced g vs =
  let nv = Array.length vs in
  let index = Hashtbl.create (2 * nv) in
  Array.iteri
    (fun i v ->
      if Hashtbl.mem index v then invalid_arg "Graph.induced: duplicate vertex";
      Hashtbl.add index v i)
    vs;
  let b = Builder.create nv in
  Array.iteri
    (fun i v ->
      iter_neighbors
        (fun u w ->
          match Hashtbl.find_opt index u with
          | Some j when j > i -> Builder.add_edge b i j w
          | Some _ | None -> ())
        g v)
    vs;
  (Builder.build b, Array.copy vs)

let contract g partition ~n_parts =
  let context = "graph.contract" in
  if Array.length partition <> g.n then
    invalid context "partition length %d, expected n = %d" (Array.length partition) g.n;
  Array.iteri
    (fun v p ->
      if p < 0 || p >= n_parts then
        invalid context "vertex %d mapped to part %d, outside 0..%d" v p (n_parts - 1))
    partition;
  (* The build's input is the fine edges in ascending (u, v) order, read
     from [g] in place; intra-part edges are the self-loops it drops. *)
  let start = Array.make (n_parts + 1) 0 in
  for u = 0 to g.n - 1 do
    for i = g.xadj.(u) to g.xadj.(u + 1) - 1 do
      let v = g.adjncy.(i) in
      if u < v && partition.(u) <> partition.(v) then
        count start partition.(u) partition.(v)
    done
  done;
  offsets start n_parts;
  let s = scratch ~n:n_parts ~na:start.(n_parts) in
  Array.blit start 0 s.fill 0 n_parts;
  for u = 0 to g.n - 1 do
    for i = g.xadj.(u) to g.xadj.(u + 1) - 1 do
      let v = g.adjncy.(i) in
      if u < v && partition.(u) <> partition.(v) then
        bucket s partition.(u) partition.(v) g.adjw.(i)
    done
  done;
  finish n_parts start s

let reweight_edges g updates =
  let context = "graph.reweight_edges" in
  let adjw = Array.copy g.adjw in
  List.iter
    (fun (u, v, w) ->
      if u < 0 || u >= g.n || v < 0 || v >= g.n then
        invalid context "{%d, %d}: vertex out of range (n = %d)" u v g.n;
      if u = v then invalid context "{%d, %d}: self-loop" u v;
      if not (w >= 0. && Float.is_finite w) then
        invalid context "{%d, %d}: invalid weight %g" u v w;
      let i = slot g u v in
      if i < 0 then invalid context "no edge {%d, %d}" u v;
      adjw.(i) <- w;
      adjw.(slot g v u) <- w)
    updates;
  { g with adjw; total_w = edge_total g.n g.xadj g.adjncy adjw }

let fingerprint g =
  let open Hgp_util.Fingerprint in
  (* The CSR triple determines the graph completely ([total_w] is derived
     from it). *)
  seed |> Fun.flip add_int g.n
  |> Fun.flip add_int_array g.xadj
  |> Fun.flip add_int_array g.adjncy
  |> Fun.flip add_float_array g.adjw

let pp ppf g = Format.fprintf ppf "graph(n=%d, m=%d, W=%g)" g.n (m g) g.total_w
