module Csr = Hgp_graph.Csr
module Graph = Hgp_graph.Graph
module Prng = Hgp_util.Prng

type level = {
  fine : Csr.t;
  cmap : int array;
  coarse : Csr.t;
  key : Hgp_util.Fingerprint.t;
}

type chain = level list

let matching rng csr ~max_weight =
  let n = Csr.n csr in
  let g = csr.Csr.graph in
  let matched = Array.make n (-1) in
  let order = Prng.permutation rng n in
  Array.iter
    (fun v ->
      if matched.(v) = -1 then begin
        let best = ref (-1) and best_w = ref 0. in
        Graph.iter_neighbors
          (fun u w ->
            if
              matched.(u) = -1 && u <> v && w > !best_w
              && Csr.vertex_weight csr v +. Csr.vertex_weight csr u <= max_weight
            then begin
              best := u;
              best_w := w
            end)
          g v;
        if !best >= 0 then begin
          matched.(v) <- !best;
          matched.(!best) <- v
        end
        else matched.(v) <- v
      end)
    order;
  let cmap = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if cmap.(v) = -1 then begin
      cmap.(v) <- !next;
      if matched.(v) <> v && matched.(v) >= 0 then cmap.(matched.(v)) <- !next;
      incr next
    end
  done;
  (cmap, !next)

let step rng csr ~max_weight =
  let cmap, nc = matching rng csr ~max_weight in
  (cmap, Csr.contract csr cmap ~n_parts:nc)

let build rng csr ~threshold ~max_levels ~max_weight =
  let rec go csr acc depth =
    if Csr.n csr <= threshold || depth >= max_levels then List.rev acc
    else begin
      let cmap, coarse = step rng csr ~max_weight in
      if Csr.n coarse >= Csr.n csr then List.rev acc
      else
        go coarse
          ({ fine = csr; cmap; coarse; key = Csr.fingerprint coarse } :: acc)
          (depth + 1)
    end
  in
  go csr [] 0

let coarsest ~fine chain =
  match List.rev chain with [] -> fine | l :: _ -> l.coarse

(* ---- incremental rebuild ----

   Replays the cold [build] against a cached chain from a previous run of
   the SAME seed whose graph differed from [csr] only on the edge weights
   listed in [delta] (vertex weights unchanged).  Each level recomputes the
   matching in full — it consumes [Prng.permutation] exactly as [build], so
   the rng stays in lockstep with the cold path — then compares the fresh
   cmap with the cached one.  While they agree, the weight delta is mapped
   through the contraction (edges swallowed inside a matched pair drop out);
   the moment the mapped delta becomes empty the remaining cached suffix is
   bit-identical to what [build] would recompute (same graph, same rng
   state) and is spliced wholesale.  Any cmap divergence falls back to cold
   contraction for the rest of the chain. *)

type rebuild_result = {
  r_chain : chain;
  r_fine_clean : bool array;
  r_coarse_clean : bool;
  r_reused_levels : int;
}

let rebuild rng csr ~prev ~delta ~threshold ~max_levels ~max_weight =
  let reused = ref 0 in
  let mk fine cmap coarse = { fine; cmap; coarse; key = Csr.fingerprint coarse } in
  (* past any divergence: plain [build] from here on *)
  let rec cold csr acc clean depth =
    if Csr.n csr <= threshold || depth >= max_levels then (List.rev acc, List.rev clean, false)
    else begin
      let cmap, nc = matching rng csr ~max_weight in
      let coarse = Csr.contract csr cmap ~n_parts:nc in
      if Csr.n coarse >= Csr.n csr then (List.rev acc, List.rev clean, false)
      else cold coarse (mk csr cmap coarse :: acc) (false :: clean) (depth + 1)
    end
  in
  let rec go csr delta prev acc clean depth =
    if Csr.n csr <= threshold || depth >= max_levels then
      (List.rev acc, List.rev clean, delta = [] && prev = [])
    else begin
      let cmap, nc = matching rng csr ~max_weight in
      match prev with
      | (p : level) :: prest when cmap = p.cmap ->
        let coarse_delta =
          List.sort_uniq compare
            (List.filter_map
               (fun (u, v) ->
                 let cu = cmap.(u) and cv = cmap.(v) in
                 if cu = cv then None else Some (min cu cv, max cu cv))
               delta)
        in
        if coarse_delta = [] then begin
          (* coarse graphs identical from here down: splice the suffix *)
          reused := 1 + List.length prest;
          let acc = { p with fine = csr } :: acc in
          let clean = (delta = []) :: clean in
          ( List.rev_append acc prest,
            List.rev_append clean (List.map (fun _ -> true) prest),
            true )
        end
        else begin
          let coarse = Csr.contract csr cmap ~n_parts:nc in
          if Csr.n coarse >= Csr.n csr then (List.rev acc, List.rev clean, false)
          else
            go coarse coarse_delta prest
              (mk csr cmap coarse :: acc)
              (false :: clean) (depth + 1)
        end
      | _ ->
        let coarse = Csr.contract csr cmap ~n_parts:nc in
        if Csr.n coarse >= Csr.n csr then (List.rev acc, List.rev clean, false)
        else cold coarse (mk csr cmap coarse :: acc) (false :: clean) (depth + 1)
    end
  in
  let chain, cleans, coarse_clean = go csr delta prev [] [] 0 in
  {
    r_chain = chain;
    r_fine_clean = Array.of_list cleans;
    r_coarse_clean = coarse_clean;
    r_reused_levels = !reused;
  }
