(* Reference FM and greedy refinement engines, kept as the differential
   oracle for [Hgp_multilevel.Refine].

   This is the list-and-Hashtbl implementation the flat kernel replaced:
   a [Hashtbl] of [Queue]s as the gain-bucket queue, a list of records as
   the move log, and a closure per neighbour scan.  It is slow and
   allocates on every move, and it is deliberately left that way — the
   kernel must reproduce its moves, statistics and [?observe] event stream
   bit for bit (test_refine.ml, "kernel = reference").  Do not optimize it. *)

module Csr = Hgp_graph.Csr
module Graph = Hgp_graph.Graph
module Hierarchy = Hgp_hierarchy.Hierarchy
module Refine = Hgp_multilevel.Refine

type stats = Refine.stats = {
  passes : int;
  moves : int;
  gain : float;
  rollbacks : int;
}

type move = Refine.move = {
  vertex : int;
  src : int;
  dst : int;
  move_gain : float;
  undo : bool;
}

(* ---- bucket queue on quantized gains ----

   Entries land in bucket [floor (gain / quantum)]; [pop] serves the highest
   non-empty bucket FIFO.  Quantization only affects the *order* candidates
   are tried in, never the gains that are applied — the FM engine revalidates
   every popped entry against exact recomputed gains (lazy invalidation), so
   a coarse quantum costs move-ordering quality, not correctness. *)

module Bucketq = struct
  type 'a t = {
    quantum : float;
    buckets : (int, 'a Queue.t) Hashtbl.t;
    mutable best : int;  (* max key present; min_int when empty *)
    mutable size : int;
  }

  let create ~quantum =
    {
      quantum = Float.max 1e-18 quantum;
      buckets = Hashtbl.create 64;
      best = min_int;
      size = 0;
    }

  let length t = t.size
  let index_of t gain = int_of_float (Float.floor (gain /. t.quantum))

  let push t ~gain x =
    let i = index_of t gain in
    let q =
      match Hashtbl.find_opt t.buckets i with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add t.buckets i q;
        q
    in
    Queue.push x q;
    if i > t.best then t.best <- i;
    t.size <- t.size + 1

  (* Only non-empty buckets are kept in the table, so [best] always names a
     live bucket while [size > 0]. *)
  let pop t =
    if t.size = 0 then None
    else begin
      let i = t.best in
      let q = Hashtbl.find t.buckets i in
      let x = Queue.pop q in
      t.size <- t.size - 1;
      if Queue.is_empty q then begin
        Hashtbl.remove t.buckets i;
        t.best <- Hashtbl.fold (fun k _ acc -> max k acc) t.buckets min_int
      end;
      Some (i, x)
    end

  let clear t =
    Hashtbl.reset t.buckets;
    t.best <- min_int;
    t.size <- 0
end

(* ---- per-node banded load bookkeeping (shared by both engines) ---- *)

type band = {
  hy : Hierarchy.t;
  h : int;
  loads : float array array;  (* level 1..h; level 0 never changes *)
  caps : float array array;
}

let band_init csr hy assignment ~slack =
  let n = Csr.n csr in
  let h = Hierarchy.height hy in
  let loads =
    Array.init (h + 1) (fun j ->
        if j = 0 then [||] else Array.make (Hierarchy.nodes_at_level hy j) 0.)
  in
  for v = 0 to n - 1 do
    let l = assignment.(v) in
    let d = Csr.vertex_weight csr v in
    for j = 1 to h do
      let a = Hierarchy.ancestor hy ~level:j l in
      loads.(j).(a) <- loads.(j).(a) +. d
    done
  done;
  let caps =
    Array.init (h + 1) (fun j ->
        if j = 0 then [||]
        else
          Array.init (Hierarchy.nodes_at_level hy j) (fun idx ->
              slack *. Hierarchy.capacity_of hy ~level:j idx))
  in
  { hy; h; loads; caps }

(* A move to leaf [l] is safe when every ancestor of [l] that is NOT also an
   ancestor of the current leaf keeps its load within the band; shared
   ancestors see no load change. *)
let band_fits b ~from l d =
  let ok = ref true in
  let j = ref 1 in
  while !ok && !j <= b.h do
    let a = Hierarchy.ancestor b.hy ~level:!j l in
    if a <> Hierarchy.ancestor b.hy ~level:!j from then
      if b.loads.(!j).(a) +. d > b.caps.(!j).(a) then ok := false;
    incr j
  done;
  !ok

let band_apply b ~from l d =
  for j = 1 to b.h do
    let a = Hierarchy.ancestor b.hy ~level:j l in
    let p = Hierarchy.ancestor b.hy ~level:j from in
    if a <> p then begin
      b.loads.(j).(a) <- b.loads.(j).(a) +. d;
      b.loads.(j).(p) <- b.loads.(j).(p) -. d
    end
  done

(* ---- incremental boundary counts ----

   [cnt.(v)] is the number of adjacency entries of [v] whose endpoint sits on
   a different leaf; [v] is a boundary vertex iff [cnt.(v) > 0].  Moving [v]
   only changes the boundary status of [v] itself and of its direct
   neighbors, so one move costs O(deg v) to maintain — the full recompute is
   kept in {!boundary} as the differential oracle for the regression test. *)

let cnt_init csr assignment =
  let n = Csr.n csr in
  let graph = csr.Csr.graph in
  let cnt = Array.make n 0 in
  for v = 0 to n - 1 do
    let l = assignment.(v) in
    Graph.iter_neighbors (fun u _ -> if assignment.(u) <> l then cnt.(v) <- cnt.(v) + 1) graph v
  done;
  cnt

(* Call with [assignment] already updated to place [v] on [dst]. *)
let cnt_move csr cnt assignment v ~src ~dst =
  let graph = csr.Csr.graph in
  cnt.(v) <- 0;
  Graph.iter_neighbors
    (fun u _ ->
      let lu = assignment.(u) in
      if lu <> dst then cnt.(v) <- cnt.(v) + 1;
      let before = if src <> lu then 1 else 0 in
      let after = if dst <> lu then 1 else 0 in
      cnt.(u) <- cnt.(u) + after - before)
    graph v

(* ---- the greedy engine (historical semantics, bit-identical moves) ---- *)

let refine csr hy assignment ~slack ~max_passes =
  let n = Csr.n csr in
  let graph = csr.Csr.graph in
  let assignment = Array.copy assignment in
  let band = band_init csr hy assignment ~slack in
  let incident l v =
    let acc = ref 0. in
    Graph.iter_neighbors
      (fun u w -> if u <> v then acc := !acc +. (w *. Hierarchy.edge_cost hy l assignment.(u)))
      graph v;
    !acc
  in
  let moves = ref 0 and total_gain = ref 0. and passes = ref 0 in
  let improved = ref true in
  (* Candidate targets: only leaves hosting a neighbor — the classic
     boundary-refinement restriction that keeps a pass O(sum deg^2 / n) per
     vertex instead of O(k).  Interior vertices (no cross-leaf edge) have no
     candidates, so the incremental count lets each pass skip them in O(1)
     instead of rescanning their adjacency; the visit order and the move
     decisions over boundary vertices are unchanged. *)
  let cnt = cnt_init csr assignment in
  let cand = Array.make 8 0 in
  let cand = ref cand in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    for v = 0 to n - 1 do
      if cnt.(v) > 0 then begin
        let from = assignment.(v) in
        let ncand = ref 0 in
        Graph.iter_neighbors
          (fun u _ ->
            let l = assignment.(u) in
            if l <> from then begin
              let dup = ref false in
              for i = 0 to !ncand - 1 do
                if !cand.(i) = l then dup := true
              done;
              if not !dup then begin
                if !ncand >= Array.length !cand then begin
                  let bigger = Array.make (2 * Array.length !cand) 0 in
                  Array.blit !cand 0 bigger 0 !ncand;
                  cand := bigger
                end;
                !cand.(!ncand) <- l;
                incr ncand
              end
            end)
          graph v;
        if !ncand > 0 then begin
          let here = incident from v in
          let d = Csr.vertex_weight csr v in
          let best_l = ref from and best_gain = ref 1e-12 in
          for i = 0 to !ncand - 1 do
            let l = !cand.(i) in
            let gain = here -. incident l v in
            if gain > !best_gain && band_fits band ~from l d then begin
              best_gain := gain;
              best_l := l
            end
          done;
          if !best_l <> from then begin
            band_apply band ~from !best_l d;
            assignment.(v) <- !best_l;
            cnt_move csr cnt assignment v ~src:from ~dst:!best_l;
            moves := !moves + 1;
            total_gain := !total_gain +. !best_gain;
            improved := true
          end
        end
      end
    done
  done;
  (assignment, { passes = !passes; moves = !moves; gain = !total_gain; rollbacks = 0 })

(* ---- the FM engine ---- *)

(* One logged application; [log] is kept most-recent-first so rolling back to
   the best prefix pops from the head. *)
type logged = { lv : int; lsrc : int; ldst : int; lgain : float }

let refine_fm csr hy assignment ~slack ~max_passes ~hill_climb ?observe () =
  let n = Csr.n csr in
  let graph = csr.Csr.graph in
  let assignment = Array.copy assignment in
  let band = band_init csr hy assignment ~slack in
  let cnt = cnt_init csr assignment in
  let incident l v =
    let acc = ref 0. in
    Graph.iter_neighbors
      (fun u w -> if u <> v then acc := !acc +. (w *. Hierarchy.edge_cost hy l assignment.(u)))
      graph v;
    !acc
  in
  let notify mv =
    match observe with
    | None -> ()
    | Some f -> f mv (Array.map (fun c -> c > 0) cnt)
  in
  (* Quantum: gains scale with (edge weight x cost multiplier); an average
     edge at the root multiplier split across 64 buckets orders candidates
     finely enough that bucket ties are rare. *)
  let quantum =
    let m = Graph.m graph in
    let avg_w = if m = 0 then 1. else Graph.total_weight graph /. float_of_int m in
    let c0 = Hierarchy.cm hy 0 in
    Float.max 1e-12 (avg_w *. (if c0 > 0. then c0 else 1.) /. 64.)
  in
  let bq = Bucketq.create ~quantum in
  let stamp = Array.make n 0 in
  let locked = Array.make n false in
  (* Best single-vertex move of [v] under the current assignment, restricted
     to band-legal targets.  With [hill_climb] the best may have negative
     gain; without it, callers drop non-positive candidates. *)
  let best_move v =
    if cnt.(v) = 0 then None
    else begin
      let from = assignment.(v) in
      let d = Csr.vertex_weight csr v in
      let here = incident from v in
      let best_l = ref from and best_g = ref neg_infinity in
      Graph.iter_neighbors
        (fun u _ ->
          let l = assignment.(u) in
          (* Ascending-id neighbor iteration makes the first occurrence of a
             leaf the canonical candidate, so ties are deterministic. *)
          if l <> from && l <> !best_l then begin
            let g = here -. incident l v in
            if g > !best_g +. 1e-15 && band_fits band ~from l d then begin
              best_g := g;
              best_l := l
            end
          end)
        graph v;
      if !best_l = from then None else Some (!best_l, !best_g)
    end
  in
  let push_candidate v =
    if (not locked.(v)) && cnt.(v) > 0 then
      match best_move v with
      | None -> ()
      | Some (_, g) ->
        if hill_climb || g > 1e-12 then Bucketq.push bq ~gain:g (v, stamp.(v))
  in
  let moves = ref 0
  and rollbacks = ref 0
  and total_gain = ref 0.
  and passes = ref 0 in
  let improved = ref true in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    Array.fill locked 0 n false;
    Bucketq.clear bq;
    for v = 0 to n - 1 do
      push_candidate v
    done;
    let log = ref [] and log_len = ref 0 in
    let cum = ref 0. and best_cum = ref 0. and best_len = ref 0 in
    let apply v dst g =
      let src = assignment.(v) in
      let d = Csr.vertex_weight csr v in
      band_apply band ~from:src dst d;
      assignment.(v) <- dst;
      cnt_move csr cnt assignment v ~src ~dst;
      locked.(v) <- true;
      stamp.(v) <- stamp.(v) + 1;
      incr moves;
      log := { lv = v; lsrc = src; ldst = dst; lgain = g } :: !log;
      incr log_len;
      cum := !cum +. g;
      if !cum > !best_cum +. 1e-12 then begin
        best_cum := !cum;
        best_len := !log_len
      end;
      notify { vertex = v; src; dst; move_gain = g; undo = false };
      (* Lazy gain update: a neighbor's cached candidates are stale now —
         bump its stamp so queued entries die at pop, and queue a fresh
         candidate computed against the new assignment. *)
      Graph.iter_neighbors
        (fun u _ ->
          stamp.(u) <- stamp.(u) + 1;
          push_candidate u)
        graph v
    in
    let draining = ref true in
    while !draining do
      match Bucketq.pop bq with
      | None -> draining := false
      | Some (popped_bucket, (v, st)) ->
        if st = stamp.(v) && not locked.(v) then begin
          (* Stamps only change when a neighbor moves, so a fresh entry's
             gain is exact; band legality, however, depends on loads anywhere
             in the tree, so revalidate against the current loads. *)
          match best_move v with
          | None -> ()
          | Some (dst, g) ->
            if (not hill_climb) && g <= 1e-12 then ()
            else if Bucketq.index_of bq g < popped_bucket then
              (* The band shrank under this entry: requeue at its real
                 priority instead of applying out of order. *)
              Bucketq.push bq ~gain:g (v, st)
            else apply v dst g
        end
    done;
    (* Best-prefix rollback: keep the prefix with the highest cumulative
       gain (possibly empty), undoing the tail most-recent-first.  Every
       prefix state was reached through band-checked moves, so the restored
       state is in-band by construction. *)
    let pass_gain =
      if hill_climb then begin
        while !log_len > !best_len do
          match !log with
          | [] -> assert false
          | mv :: rest ->
            log := rest;
            decr log_len;
            let d = Csr.vertex_weight csr mv.lv in
            band_apply band ~from:mv.ldst mv.lsrc d;
            assignment.(mv.lv) <- mv.lsrc;
            cnt_move csr cnt assignment mv.lv ~src:mv.ldst ~dst:mv.lsrc;
            stamp.(mv.lv) <- stamp.(mv.lv) + 1;
            incr rollbacks;
            notify { vertex = mv.lv; src = mv.ldst; dst = mv.lsrc; move_gain = -.mv.lgain; undo = true }
        done;
        !best_cum
      end
      else !cum
    in
    total_gain := !total_gain +. pass_gain;
    if pass_gain > 1e-9 then improved := true
  done;
  ( assignment,
    { passes = !passes; moves = !moves; gain = !total_gain; rollbacks = !rollbacks } )
