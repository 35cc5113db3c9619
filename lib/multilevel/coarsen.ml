module Csr = Hgp_graph.Csr
module Graph = Hgp_graph.Graph
module Prng = Hgp_util.Prng

type level = { fine : Csr.t; cmap : int array; coarse : Csr.t }

type chain = level list

(* The matching's scratch, one per domain, grown to the largest graph seen
   and never shrunk: the visit order and the partner of each vertex.  The
   matching calls no user code, so a domain's buffers are never entered
   twice at once. *)
type buffers = { mutable order : int array; mutable matched : int array }

let buffers_key : buffers Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { order = [||]; matched = [||] })

let buffers n =
  let b = Domain.DLS.get buffers_key in
  if Array.length b.order < n then begin
    let c = max n (2 * Array.length b.order) in
    b.order <- Array.make c 0;
    b.matched <- Array.make c 0
  end;
  b

let matching rng csr ~max_weight =
  let n = Csr.n csr in
  let g = csr.Csr.graph and vw = csr.Csr.vwgt in
  let xadj = g.Graph.xadj and adjncy = g.Graph.adjncy and adjw = g.Graph.adjw in
  let { order; matched } = buffers n in
  (* The visit order is [Prng.permutation rng n] drawn into the buffer:
     the identity, then the same Fisher-Yates swaps. *)
  for v = 0 to n - 1 do
    order.(v) <- v;
    matched.(v) <- -1
  done;
  for i = n - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  (* Loops rather than a neighbor closure: a float crossing a closure
     (or held in a ref it captures) is boxed. *)
  for k = 0 to n - 1 do
    let v = order.(k) in
    if matched.(v) = -1 then begin
      let best = ref (-1) and best_w = ref 0. in
      for i = xadj.(v) to xadj.(v + 1) - 1 do
        let u = adjncy.(i) and w = adjw.(i) in
        if matched.(u) = -1 && u <> v && w > !best_w && vw.(v) +. vw.(u) <= max_weight
        then begin
          best := u;
          best_w := w
        end
      done;
      if !best >= 0 then begin
        matched.(v) <- !best;
        matched.(!best) <- v
      end
      else matched.(v) <- v
    end
  done;
  let cmap = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if cmap.(v) = -1 then begin
      cmap.(v) <- !next;
      if matched.(v) <> v then cmap.(matched.(v)) <- !next;
      incr next
    end
  done;
  (cmap, !next)

let step rng csr ~max_weight =
  let cmap, nc = matching rng csr ~max_weight in
  (cmap, Csr.contract csr cmap ~n_parts:nc)

let coarsest ~fine chain =
  match List.rev chain with [] -> fine | l :: _ -> l.coarse

(* ---- the coarsening loop ----

   [rebuild] is the one loop; [build] is [rebuild] against an empty previous
   chain.  It replays the cold coarsening against a cached chain from a
   previous run of the SAME seed whose graph differed from [csr] only on the
   edge weights listed in [delta] (vertex weights unchanged).  Each level
   recomputes the matching in full — consuming [Prng.permutation] exactly as
   a cold run does, so the rng stays in lockstep — then compares the fresh
   cmap with the cached one.  While they agree, the weight delta is mapped
   through the contraction (edges swallowed inside a matched pair drop out);
   the moment the mapped delta becomes empty the remaining cached suffix is
   bit-identical to what a cold run would recompute (same graph, same rng
   state) and is spliced wholesale.  A cmap divergence, or running out of
   cached levels, stops the tracking: the rest of the chain is contracted
   cold. *)

type rebuild_result = {
  r_chain : chain;
  r_fine_clean : bool array;
  r_coarse_clean : bool;
  r_reused_levels : int;
}

let rebuild rng csr ~prev ~delta ~threshold ~max_levels ~max_weight =
  let reused = ref 0 in
  (* [track] is [Some (prev, delta)] while every matching so far equals the
     cached one, [None] once the chains diverged. *)
  let rec go csr track acc clean depth =
    if Csr.n csr <= threshold || depth >= max_levels then
      (List.rev acc, List.rev clean, track = Some ([], []))
    else begin
      let cmap, nc = matching rng csr ~max_weight in
      let follow =
        match track with
        | Some ((p : level) :: prest, delta) when cmap = p.cmap ->
          let coarse_delta =
            List.sort_uniq compare
              (List.filter_map
                 (fun (u, v) ->
                   let cu = cmap.(u) and cv = cmap.(v) in
                   if cu = cv then None else Some (min cu cv, max cu cv))
                 delta)
          in
          Some (p, prest, delta, coarse_delta)
        | _ -> None
      in
      match follow with
      | Some (p, prest, delta, []) ->
        (* coarse graphs identical from here down: splice the suffix *)
        reused := 1 + List.length prest;
        ( List.rev_append ({ p with fine = csr } :: acc) prest,
          List.rev_append ((delta = []) :: clean) (List.map (fun _ -> true) prest),
          true )
      | _ ->
        let coarse = Csr.contract csr cmap ~n_parts:nc in
        if Csr.n coarse >= Csr.n csr then (List.rev acc, List.rev clean, false)
        else
          go coarse
            (Option.map (fun (_, prest, _, coarse_delta) -> (prest, coarse_delta)) follow)
            ({ fine = csr; cmap; coarse } :: acc)
            (false :: clean) (depth + 1)
    end
  in
  let chain, cleans, coarse_clean = go csr (Some (prev, delta)) [] [] 0 in
  {
    r_chain = chain;
    r_fine_clean = Array.of_list cleans;
    r_coarse_clean = coarse_clean;
    r_reused_levels = !reused;
  }

let build rng csr ~threshold ~max_levels ~max_weight =
  (rebuild rng csr ~prev:[] ~delta:[] ~threshold ~max_levels ~max_weight).r_chain
