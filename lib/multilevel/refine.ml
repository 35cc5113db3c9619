module Csr = Hgp_graph.Csr
module Graph = Hgp_graph.Graph
module Hierarchy = Hgp_hierarchy.Hierarchy

type stats = {
  passes : int;
  moves : int;
  gain : float;
  rollbacks : int;
}

type algo = Greedy | Fm of { hill_climb : bool }

type move = {
  vertex : int;
  src : int;
  dst : int;
  move_gain : float;
  undo : bool;
}

(* The hot loops below are written as direct loops over the CSR arrays, with
   no closures and no float crossing a function boundary that is not
   inlined: without flambda, a float passed to or returned from a real call
   is boxed, and these loops run once per neighbour of every evaluated
   move. *)

(* ---- per-hierarchy tables ----

   [cmat.(a * k + b)] is [Hierarchy.edge_cost hy a b] — the same floats, so
   every product and sum below is bit-identical to calling [edge_cost].
   [anc.(j * k + l)] (levels [1..h]) is the flat index of leaf [l]'s
   level-[j] ancestor: level [j]'s nodes are numbered consecutively after
   those of levels [1..j-1].  [cap] is [Hierarchy.capacity_of] by flat
   index.  One set is kept per domain, keyed on the hierarchy's physical
   identity; a different hierarchy builds a fresh set, so a caller holding
   the old one is never disturbed. *)

type tables = {
  hy : Hierarchy.t;
  k : int;
  h : int;
  cmat : float array;
  anc : int array;
  cap : float array;
}

let build_tables hy =
  let k = Hierarchy.num_leaves hy and h = Hierarchy.height hy in
  let off = Array.make (h + 2) 0 in
  for j = 1 to h do
    off.(j + 1) <- off.(j) + Hierarchy.nodes_at_level hy j
  done;
  let anc = Array.make ((h + 1) * k) 0 in
  let cap = Array.make off.(h + 1) 0. in
  for j = 1 to h do
    for l = 0 to k - 1 do
      anc.((j * k) + l) <- off.(j) + Hierarchy.ancestor hy ~level:j l
    done;
    for i = 0 to Hierarchy.nodes_at_level hy j - 1 do
      cap.(off.(j) + i) <- Hierarchy.capacity_of hy ~level:j i
    done
  done;
  let cmat = Array.init (k * k) (fun x -> Hierarchy.edge_cost hy (x / k) (x mod k)) in
  { hy; k; h; cmat; anc; cap }

let tables_key : tables option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let tables hy =
  let slot = Domain.DLS.get tables_key in
  match !slot with
  | Some t when t.hy == hy -> t
  | _ ->
    let t = build_tables hy in
    slot := Some t;
    t

(* [assignment.(v)], checked against the leaf range: the tables are indexed
   by leaf, so an out-of-range leaf would silently read another row. *)
let leaf_of t assignment v =
  let l = assignment.(v) in
  if l < 0 || l >= t.k then invalid_arg "Refine: assignment entry is not a leaf";
  l

(* ---- level cost and boundary (shared with Vcycle and the test layer) ---- *)

(* Edges in ascending [(u, v)] order, the {!Graph.iter_edges} order. *)
let cost csr hy assignment =
  let g = csr.Csr.graph in
  let t = tables hy in
  let k = t.k and cmat = t.cmat in
  let xadj = g.Graph.xadj and adjncy = g.Graph.adjncy and adjw = g.Graph.adjw in
  let acc = ref 0. in
  for u = 0 to g.Graph.n - 1 do
    let row = leaf_of t assignment u * k in
    for i = xadj.(u) to xadj.(u + 1) - 1 do
      let v = adjncy.(i) in
      if u < v then acc := !acc +. (adjw.(i) *. cmat.(row + assignment.(v)))
    done
  done;
  !acc

let boundary csr assignment =
  let g = csr.Csr.graph in
  let xadj = g.Graph.xadj and adjncy = g.Graph.adjncy in
  Array.init g.Graph.n (fun v ->
      let l = assignment.(v) in
      let b = ref false in
      for i = xadj.(v) to xadj.(v + 1) - 1 do
        if assignment.(adjncy.(i)) <> l then b := true
      done;
      !b)

(* ---- gain queue on quantized gains ----

   A binary heap over one flat int array, four slots per entry: bucket
   [floor (gain / quantum)], push sequence number, vertex, stamp.  Entries
   pop in (bucket descending, sequence ascending) order — the highest
   non-empty bucket first, FIFO within a bucket.  Quantization only affects
   the *order* candidates are tried in, never the gains that are applied:
   the FM engine revalidates every popped entry against exact recomputed
   gains (lazy invalidation), so a coarse quantum costs move-ordering
   quality, not correctness. *)

module Bucketq = struct
  type t = {
    mutable quantum : float;
    mutable heap : int array;
    mutable size : int;
    mutable seq : int;  (* next sequence number *)
    mutable bucket : int;  (* the entry the last successful [pop] removed *)
    mutable vertex : int;
    mutable stamp : int;
  }

  let create ~quantum =
    {
      quantum = Float.max 1e-18 quantum;
      heap = Array.make 256 0;
      size = 0;
      seq = 0;
      bucket = 0;
      vertex = 0;
      stamp = 0;
    }

  let length t = t.size
  let bucket t = t.bucket
  let vertex t = t.vertex
  let stamp t = t.stamp
  let[@inline] index_of t gain = int_of_float (Float.floor (gain /. t.quantum))

  let clear t =
    t.size <- 0;
    t.seq <- 0

  let push_at t b v st =
    let i0 = t.size in
    if 4 * (i0 + 1) > Array.length t.heap then begin
      let bigger = Array.make (2 * Array.length t.heap) 0 in
      Array.blit t.heap 0 bigger 0 (4 * i0);
      t.heap <- bigger
    end;
    let a = t.heap in
    let s = t.seq in
    t.seq <- s + 1;
    t.size <- i0 + 1;
    (* Sift up through a hole.  The new entry has the largest sequence
       number, so it passes exactly the parents in strictly lower buckets.
       (Moving the hole instead of swapping entries, and inlining the
       comparisons, made the FM engine ~3x faster than a swap-based heap
       with a comparison helper.) *)
    let i = ref i0 in
    while !i > 0 && a.(4 * ((!i - 1) / 2)) < b do
      let p = (!i - 1) / 2 in
      let o = 4 * !i and op = 4 * p in
      a.(o) <- a.(op);
      a.(o + 1) <- a.(op + 1);
      a.(o + 2) <- a.(op + 2);
      a.(o + 3) <- a.(op + 3);
      i := p
    done;
    let o = 4 * !i in
    a.(o) <- b;
    a.(o + 1) <- s;
    a.(o + 2) <- v;
    a.(o + 3) <- st

  let[@inline] push t ~gain v st = push_at t (index_of t gain) v st

  let pop t =
    if t.size = 0 then false
    else begin
      let a = t.heap in
      t.bucket <- a.(0);
      t.vertex <- a.(2);
      t.stamp <- a.(3);
      let n = t.size - 1 in
      t.size <- n;
      if n > 0 then begin
        (* Sift the last entry down from the root through a hole. *)
        let o = 4 * n in
        let lb = a.(o) and ls = a.(o + 1) and lv = a.(o + 2) and lst = a.(o + 3) in
        let i = ref 0 and sinking = ref true in
        while !sinking do
          let c = (2 * !i) + 1 in
          if c >= n then sinking := false
          else begin
            let c =
              if c + 1 < n then begin
                let b1 = a.(4 * c) and b2 = a.(4 * (c + 1)) in
                if b2 > b1 || (b2 = b1 && a.((4 * (c + 1)) + 1) < a.((4 * c) + 1)) then c + 1
                else c
              end
              else c
            in
            let oc = 4 * c in
            let cb = a.(oc) in
            if cb > lb || (cb = lb && a.(oc + 1) < ls) then begin
              let oi = 4 * !i in
              a.(oi) <- cb;
              a.(oi + 1) <- a.(oc + 1);
              a.(oi + 2) <- a.(oc + 2);
              a.(oi + 3) <- a.(oc + 3);
              i := c
            end
            else sinking := false
          end
        done;
        let oi = 4 * !i in
        a.(oi) <- lb;
        a.(oi + 1) <- ls;
        a.(oi + 2) <- lv;
        a.(oi + 3) <- lst
      end;
      true
    end
end

(* ---- per-node banded load bookkeeping (shared by both engines) ---- *)

type band = {
  t : tables;
  vwgt : float array;
  loads : float array;  (* by flat node index, levels 1..h; level 0 never changes *)
  caps : float array;
}

let band_init csr t assignment ~slack =
  let k = t.k and anc = t.anc and vwgt = csr.Csr.vwgt in
  let loads = Array.make (Array.length t.cap) 0. in
  for v = 0 to Csr.n csr - 1 do
    let l = leaf_of t assignment v in
    let d = vwgt.(v) in
    for j = 1 to t.h do
      let a = anc.((j * k) + l) in
      loads.(a) <- loads.(a) +. d
    done
  done;
  { t; vwgt; loads; caps = Array.map (fun c -> slack *. c) t.cap }

(* A move of [v] to leaf [l] is safe when every ancestor of [l] that is NOT
   also an ancestor of the current leaf keeps its load within the band;
   shared ancestors see no load change. *)
let band_fits b ~from l v =
  let k = b.t.k and anc = b.t.anc and d = b.vwgt.(v) in
  let ok = ref true in
  let j = ref 1 in
  while !ok && !j <= b.t.h do
    let a = anc.((!j * k) + l) in
    if a <> anc.((!j * k) + from) && b.loads.(a) +. d > b.caps.(a) then ok := false;
    incr j
  done;
  !ok

let band_apply b ~from l v =
  let k = b.t.k and anc = b.t.anc and d = b.vwgt.(v) in
  for j = 1 to b.t.h do
    let a = anc.((j * k) + l) in
    let p = anc.((j * k) + from) in
    if a <> p then begin
      b.loads.(a) <- b.loads.(a) +. d;
      b.loads.(p) <- b.loads.(p) -. d
    end
  done

let in_band csr hy assignment ~slack =
  let b = band_init csr (tables hy) assignment ~slack in
  let ok = ref true in
  Array.iteri (fun i load -> if load > b.caps.(i) +. 1e-9 then ok := false) b.loads;
  !ok

(* ---- incremental boundary counts ----

   [cnt.(v)] is the number of adjacency entries of [v] whose endpoint sits on
   a different leaf; [v] is a boundary vertex iff [cnt.(v) > 0].  Moving [v]
   only changes the boundary status of [v] itself and of its direct
   neighbors, so one move costs O(deg v) to maintain — the full recompute is
   kept in {!boundary} as the differential oracle for the regression test. *)

let cnt_init g assignment cnt =
  let xadj = g.Graph.xadj and adjncy = g.Graph.adjncy in
  for v = 0 to g.Graph.n - 1 do
    let l = assignment.(v) in
    let c = ref 0 in
    for i = xadj.(v) to xadj.(v + 1) - 1 do
      if assignment.(adjncy.(i)) <> l then incr c
    done;
    cnt.(v) <- !c
  done

(* Call with [assignment] already updated to place [v] on [dst]. *)
let cnt_move g cnt assignment v ~src ~dst =
  let adjncy = g.Graph.adjncy in
  let c = ref 0 in
  for i = g.Graph.xadj.(v) to g.Graph.xadj.(v + 1) - 1 do
    let u = adjncy.(i) in
    let lu = assignment.(u) in
    if lu <> dst then incr c;
    let before = if src <> lu then 1 else 0 in
    let after = if dst <> lu then 1 else 0 in
    cnt.(u) <- cnt.(u) + after - before
  done;
  cnt.(v) <- !c

(* ---- workspaces ----

   The per-vertex and per-leaf arrays both engines need, kept per domain
   and reused across calls (they grow to the largest level refined on the
   domain, never shrink).  Nothing here needs clearing between calls:
   [cnt] is rebuilt, [locked] refilled each pass, the queue cleared each
   pass (so stale [stamp] values from an earlier call never meet an entry),
   the log is written before it is read, and [mark] holds epochs below the
   current one.  A nested call on the same domain (an [observe] callback
   that refines) gets a fresh transient workspace. *)

type ws = {
  mutable cnt : int array;
  mutable stamp : int array;  (* bumped whenever a vertex's queued gain goes stale *)
  mutable locked : bool array;  (* moved in the current pass *)
  mutable log_v : int array;  (* the pass's applied moves, oldest first *)
  mutable log_src : int array;
  mutable log_gain : float array;
  mutable mark : int array;  (* per leaf: the last epoch that evaluated it *)
  mutable epoch : int;
  gain : float array;  (* one slot: the gain of the last [best_move] *)
  q : Bucketq.t;
}

let ws_create () =
  {
    cnt = [||];
    stamp = [||];
    locked = [||];
    log_v = [||];
    log_src = [||];
    log_gain = [||];
    mark = [||];
    epoch = 0;
    gain = [| 0. |];
    q = Bucketq.create ~quantum:1.;
  }

(* Each vertex moves at most once per pass, so a log of [n] entries never
   overflows. *)
let ws_reserve ws ~n ~k =
  if Array.length ws.cnt < n then begin
    let c = max n (2 * Array.length ws.cnt) in
    ws.cnt <- Array.make c 0;
    ws.stamp <- Array.make c 0;
    ws.locked <- Array.make c false;
    ws.log_v <- Array.make c 0;
    ws.log_src <- Array.make c 0;
    ws.log_gain <- Array.make c 0.
  end;
  if Array.length ws.mark < k then ws.mark <- Array.make k 0

type slot = { resident : ws; mutable busy : bool }

let ws_key : slot Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { resident = ws_create (); busy = false })

let with_ws ~n ~k f =
  let s = Domain.DLS.get ws_key in
  let ws = if s.busy then ws_create () else s.resident in
  s.busy <- true;
  Fun.protect
    ~finally:(fun () -> if ws == s.resident then s.busy <- false)
    (fun () ->
      ws_reserve ws ~n ~k;
      f ws)

(* ---- move evaluation (shared by both engines) ---- *)

type eval = { g : Graph.t; asg : int array; band : band; ws : ws }

(* Communication cost of [v]'s edges if [v] sat on leaf [l], summed in
   ascending neighbour order. *)
let[@inline] incident e l v =
  let g = e.g and asg = e.asg and cmat = e.band.t.cmat in
  let adjncy = g.Graph.adjncy and adjw = g.Graph.adjw in
  let row = l * e.band.t.k in
  let acc = ref 0. in
  for i = g.Graph.xadj.(v) to g.Graph.xadj.(v + 1) - 1 do
    acc := !acc +. (adjw.(i) *. cmat.(row + asg.(adjncy.(i))))
  done;
  !acc

(* Best band-legal single-vertex move of boundary vertex [v] under the
   current assignment: returns the target leaf ([asg.(v)] when there is
   none) and leaves its gain in [e.ws.gain.(0)].  Candidates are the leaves
   hosting a neighbor — the classic boundary-refinement restriction that
   keeps an evaluation O(deg^2) instead of O(k deg) — each evaluated once,
   in order of first occurrence in the ascending-id neighbor scan, so ties
   are deterministic.  The two engines differ only in the acceptance rule:
   greedy takes a strictly better gain above 1e-12; FM starts from any gain
   and needs a 1e-15 margin (so its best may be negative; callers that want
   descent drop non-positive ones).  Adding [0.] leaves every float
   comparison unchanged. *)
let best_move e ~greedy v =
  let ws = e.ws and asg = e.asg in
  let adjncy = e.g.Graph.adjncy and xadj = e.g.Graph.xadj in
  let mark = ws.mark in
  let from = asg.(v) in
  let here = incident e from v in
  ws.epoch <- ws.epoch + 1;
  let epoch = ws.epoch in
  let margin = if greedy then 0. else 1e-15 in
  let best_l = ref from and best_g = ref (if greedy then 1e-12 else neg_infinity) in
  for i = xadj.(v) to xadj.(v + 1) - 1 do
    let l = asg.(adjncy.(i)) in
    if l <> from && mark.(l) <> epoch then begin
      mark.(l) <- epoch;
      let g = here -. incident e l v in
      if g > !best_g +. margin && band_fits e.band ~from l v then begin
        best_g := g;
        best_l := l
      end
    end
  done;
  ws.gain.(0) <- !best_g;
  !best_l

(* ---- the greedy engine (historical semantics, bit-identical moves) ---- *)

let refine csr hy assignment ~slack ~max_passes =
  let g = csr.Csr.graph in
  let n = g.Graph.n in
  let asg = Array.copy assignment in
  let t = tables hy in
  let band = band_init csr t asg ~slack in
  with_ws ~n ~k:t.k @@ fun ws ->
  let e = { g; asg; band; ws } in
  let cnt = ws.cnt in
  cnt_init g asg cnt;
  let moves = ref 0 and total_gain = ref 0. and passes = ref 0 in
  let improved = ref true in
  (* Interior vertices (no cross-leaf edge) have no candidates, so the
     incremental count lets each pass skip them in O(1) instead of
     rescanning their adjacency. *)
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    for v = 0 to n - 1 do
      if cnt.(v) > 0 then begin
        let from = asg.(v) in
        let dst = best_move e ~greedy:true v in
        if dst <> from then begin
          band_apply band ~from dst v;
          asg.(v) <- dst;
          cnt_move g cnt asg v ~src:from ~dst;
          incr moves;
          total_gain := !total_gain +. ws.gain.(0);
          improved := true
        end
      end
    done
  done;
  (asg, { passes = !passes; moves = !moves; gain = !total_gain; rollbacks = 0 })

(* ---- the FM engine ---- *)

let push_candidate e ~hill_climb v =
  let ws = e.ws in
  if (not ws.locked.(v)) && ws.cnt.(v) > 0 then begin
    let l = best_move e ~greedy:false v in
    if l <> e.asg.(v) then begin
      let g = ws.gain.(0) in
      if hill_climb || g > 1e-12 then Bucketq.push ws.q ~gain:g v ws.stamp.(v)
    end
  end

let notify f cnt n vertex src dst move_gain undo =
  f { vertex; src; dst; move_gain; undo } (Array.init n (fun v -> cnt.(v) > 0))

let refine_fm csr hy assignment ~slack ~max_passes ~hill_climb ?observe () =
  let g = csr.Csr.graph in
  let n = g.Graph.n and xadj = g.Graph.xadj and adjncy = g.Graph.adjncy in
  let asg = Array.copy assignment in
  let t = tables hy in
  let band = band_init csr t asg ~slack in
  (* Quantum: gains scale with (edge weight x cost multiplier); an average
     edge at the root multiplier split across 64 buckets orders candidates
     finely enough that bucket ties are rare. *)
  let quantum =
    let m = Graph.m g in
    let avg_w = if m = 0 then 1. else Graph.total_weight g /. float_of_int m in
    let c0 = Hierarchy.cm hy 0 in
    Float.max 1e-12 (avg_w *. (if c0 > 0. then c0 else 1.) /. 64.)
  in
  with_ws ~n ~k:t.k @@ fun ws ->
  let e = { g; asg; band; ws } in
  let cnt = ws.cnt and stamp = ws.stamp and locked = ws.locked and q = ws.q in
  let log_v = ws.log_v and log_src = ws.log_src and log_gain = ws.log_gain in
  cnt_init g asg cnt;
  q.Bucketq.quantum <- Float.max 1e-18 quantum;
  let moves = ref 0
  and rollbacks = ref 0
  and total_gain = ref 0.
  and passes = ref 0 in
  let improved = ref true in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    Array.fill locked 0 n false;
    Bucketq.clear q;
    for v = 0 to n - 1 do
      push_candidate e ~hill_climb v
    done;
    let len = ref 0 in
    let cum = ref 0. and best_cum = ref 0. and best_len = ref 0 in
    while Bucketq.pop q do
      let v = q.Bucketq.vertex and st = q.Bucketq.stamp in
      (* Stamps only change when a neighbor moves, so a fresh entry's gain is
         exact; band legality, however, depends on loads anywhere in the
         tree, so revalidate against the current loads. *)
      if st = stamp.(v) && (not locked.(v)) && cnt.(v) > 0 then begin
        let src = asg.(v) in
        let dst = best_move e ~greedy:false v in
        let gain = ws.gain.(0) in
        if dst = src || ((not hill_climb) && gain <= 1e-12) then ()
        else if Bucketq.index_of q gain < q.Bucketq.bucket then
          (* The band shrank under this entry: requeue at its real priority
             instead of applying out of order. *)
          Bucketq.push q ~gain v st
        else begin
          band_apply band ~from:src dst v;
          asg.(v) <- dst;
          cnt_move g cnt asg v ~src ~dst;
          locked.(v) <- true;
          stamp.(v) <- stamp.(v) + 1;
          incr moves;
          log_v.(!len) <- v;
          log_src.(!len) <- src;
          log_gain.(!len) <- gain;
          incr len;
          cum := !cum +. gain;
          if !cum > !best_cum +. 1e-12 then begin
            best_cum := !cum;
            best_len := !len
          end;
          (match observe with None -> () | Some f -> notify f cnt n v src dst gain false);
          (* Lazy gain update: a neighbor's cached candidates are stale now —
             bump its stamp so queued entries die at pop, and queue a fresh
             candidate computed against the new assignment. *)
          for i = xadj.(v) to xadj.(v + 1) - 1 do
            let u = adjncy.(i) in
            stamp.(u) <- stamp.(u) + 1;
            push_candidate e ~hill_climb u
          done
        end
      end
    done;
    (* Best-prefix rollback: keep the prefix with the highest cumulative
       gain (possibly empty), undoing the tail most-recent-first.  Every
       prefix state was reached through band-checked moves, so the restored
       state is in-band by construction. *)
    let pass_gain =
      if hill_climb then begin
        while !len > !best_len do
          decr len;
          let i = !len in
          let v = log_v.(i) and src = log_src.(i) in
          let dst = asg.(v) in
          band_apply band ~from:dst src v;
          asg.(v) <- src;
          cnt_move g cnt asg v ~src:dst ~dst:src;
          stamp.(v) <- stamp.(v) + 1;
          incr rollbacks;
          match observe with
          | None -> ()
          | Some f -> notify f cnt n v dst src (-.log_gain.(i)) true
        done;
        !best_cum
      end
      else !cum
    in
    total_gain := !total_gain +. pass_gain;
    if pass_gain > 1e-9 then improved := true
  done;
  (asg, { passes = !passes; moves = !moves; gain = !total_gain; rollbacks = !rollbacks })
