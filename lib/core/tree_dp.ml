module Tree = Hgp_tree.Tree
module Hierarchy = Hgp_hierarchy.Hierarchy
module Obs = Hgp_obs.Obs
module Deadline = Hgp_resilience.Deadline
module Faults = Hgp_resilience.Faults
module Arena = Hgp_util.Arena
module Workspace = Hgp_util.Workspace

type config = {
  cm : float array;
  cp_units : int array;
  bucketing : float option;
  prune : bool;
  beam_width : int option;
}

let config_of_hierarchy hy ~resolution ?bucketing ?(prune = true) ?beam_width () =
  let h = Hierarchy.height hy in
  (* The DP is per-LEVEL: [cm] and [cp_units] are the level envelopes of the
     per-node vectors (exact on regular trees; on ragged trees the maxima —
     an admissible relaxation whose slack is recovered by capacity-aware
     packing and per-node certification, see docs/HIERARCHY.md). *)
  {
    cm = Array.init (h + 1) (Hierarchy.cm hy);
    cp_units = Hierarchy.level_capacity_units hy ~resolution;
    bucketing;
    prune;
    beam_width;
  }

type result = {
  cost : float;
  kappa : int array;
  root_signature : int array;
  states_explored : int;
}

(* w *. c with the convention inf *. 0. = 0. (uncut infinite edges are free). *)
let pay w c = if c = 0. then 0. else w *. c

(* --- per-subtree snapshots (incremental re-solve) ----------------------

   A snapshot captures everything a later solve over the SAME tree shape
   needs to reuse unchanged subtrees: per-node Merkle keys (a node's key
   folds its children's keys plus its local DP inputs, so key equality
   certifies that the whole subtree's inputs are unchanged), the packed
   per-node state tables, the packed backpointer segments, and per-node
   state counts (so [states_explored] stays bit-identical to a cold solve).

   Soundness: node [v]'s final table is a pure function of subtree([v]) —
   the children fold order, the weights of edges strictly inside the
   subtree, the leaf demands, and the config — and so are the back
   segments of all nodes strictly inside it.  Hence equal Merkle keys
   imply bit-identical reusable DP data (docs/INCREMENTAL.md). *)

type snapshot = {
  snap_parents : int array;  (* shape pin: node ids must align *)
  merkle : Hgp_util.Fingerprint.t array;
  s_node_off : int array;
  s_node_len : int array;
  s_node_keys : int array;
  s_node_costs : float array;
  s_back_off : int array;  (* offsets into s_back_store; one packed word per state *)
  s_back_len : int array;
  s_back_store : int array;
  s_states : int array;  (* states created while processing node v itself *)
}

type incr_stats = {
  reused_nodes : int;
  resolved_nodes : int;
  reused_states : int;
}

let no_stats = { reused_nodes = 0; resolved_nodes = 0; reused_states = 0 }

let merkle_keys t ~demand_units cfg =
  let module F = Hgp_util.Fingerprint in
  let cfg_fp =
    let h = F.add_float_array F.seed cfg.cm in
    let h = F.add_int_array h cfg.cp_units in
    let h = F.add_option F.add_float h cfg.bucketing in
    let h = F.add_bool h cfg.prune in
    F.add_option F.add_int h cfg.beam_width
  in
  let n = Tree.n_nodes t in
  let keys = Array.make n F.seed in
  Array.iter
    (fun v ->
      if Tree.is_leaf t v then
        keys.(v) <- F.add_int (F.add_int cfg_fp 0x1ea5) demand_units.(v)
      else begin
        let cs = Tree.children t v in
        let h = ref (F.add_int (F.add_int cfg_fp 0x0de) (Array.length cs)) in
        Array.iter
          (fun c ->
            h := F.add_float (F.combine !h keys.(c)) (Tree.edge_weight t c))
          cs;
        keys.(v) <- !h
      end)
    (Tree.post_order t);
  keys

let validate_config cfg =
  let h = Array.length cfg.cm - 1 in
  if Array.length cfg.cp_units <> h + 1 then
    invalid_arg "Tree_dp: cm / cp_units length mismatch";
  for j = 0 to h - 1 do
    if cfg.cm.(j) < cfg.cm.(j + 1) then invalid_arg "Tree_dp: cm must be non-increasing"
  done;
  h

(* The DP state machinery is flat struct-of-arrays throughout (see
   docs/ARCHITECTURE.md, "DP kernel & workspaces"):

   - per-node state tables are (cost, key)-sorted segments of one packed
     key/cost store, so folding a child iterates two contiguous ranges;
   - the merge accumulator is one open-addressed [Arena.Table] cleared by
     epoch between children, its probed range narrowed to the fold's
     insert bound; the merge loop decodes and buckets each accumulator row
     once, probes before it touches the table's size, and checks the
     deadline once per row;
   - the merge probes one candidate per child prefix group, not one per
     (child state, level): at level [lvl] every child state with the same
     level [0 .. lvl-1] values lands on the same key for a given
     accumulator row.  Once per fold the child states are stably
     radix-sorted by their values, level 0 first, so each level-[lvl]
     group is a run, with its end and leader (smallest child index)
     recorded ({!group_children}).  Each row walks the groups
     depth-first, advancing the key by the same per-level delta as
     re-encoding would, and leaves a group at the first subgroup whose
     merged value overflows capacity, since subgroup values ascend.
     Exactness: child segments are (cost, key)-sorted and float addition
     is monotone, so a member lands on its leader's key at a cost no
     lower, and at an equal cost it loses the tie-break unless its key is
     smaller — possible only when rounding absorbed its larger child cost.
     A group where that can happen (a smaller-keyed member within a
     conservative rounding bound of the leader's cost, or any non-finite
     cost) is flagged once per fold and probed member by member;
   - every pass after the merge is proportional to what the beam can keep:
     the occupied table slots are heapified in place (O(raw)) and popped in
     (cost, key) order only as far as the Pareto scan reads, and the scan
     stops once [beam_width] survivors are kept — no intermediate lists,
     no closures per entry;
   - the Pareto scan packs each popped signature into guard-bit words
     ({!Signature.packing}) once, so a dominance check is one
     subtract-and-mask per word instead of a loop over [h] levels;
   - backpointers are positional: a fold records, per survivor and in
     survivor order, one word packing (accumulator index, child index,
     merge level) as {!Arena.Table.pack} does — the table's payload itself
     — and reconstruction indexes those words directly.

   All scratch comes from a per-domain {!Hgp_util.Workspace}, so the solve
   allocates only its outputs in steady state.  The default dev profile
   compiles with [-opaque], so every cross-module call is a real call:
   helpers on the per-candidate path are written inline here.  Results are
   bit-identical to the reference DP (test/support/tree_dp_reference.ml):
   table contents per merge are order-independent (minimum cost per key
   over the same state set), ties are broken canonically — smallest
   (accumulator key, child key, level) at equal cost, smallest (cost, key)
   at the root — and the cost arithmetic keeps the reference's association
   order. *)

(* [group_children gb ...] groups one fold's child states by signature
   prefix, into [gb] (see the merge bullet above).  [smat] holds the
   decoded child signatures ([h] values per state, states [0 .. clen-1]),
   [bits.(l)] bounds the bit length of a level-[l] value, and [wcs.(l)]
   is the fold's level-[l] edge price.  Returns the number of groups
   over all levels.  Layout of [gb]'s data, with [hp = h + 1]:
   - [0 .. clen - 1]: the child indices in stable lexicographic order of
     their values, level 0 first ([clen .. 2 clen - 1] is sort scratch);
   - [2 clen + p hp + l]: the end (exclusive) of the level-[l] group that
     holds sorted position [p] — the run sharing levels [0 .. l-1];
   - [2 clen + clen hp + p hp + l]: at a group's first position, its
     leader (the smallest child index, so its (cost, key)-least member),
     or -1 when the group must be probed member by member.
   A group is flagged when some member with a smaller key than the
   leader's costs at most [thresh] more: only then can float rounding give
   it the leader's merged cost and let it win the tie-break.  [thresh] is
   [8 epsilon_float] times a bound on every merged cost's magnitude, four
   times the largest cost gap two roundings can absorb; any non-finite cost
   makes it infinite. *)
let group_children gb ~smat ~h ~bits ~clen ~(nkeys : int array) ~ncosts ~aoff ~alen ~coff
    ~wcs =
  let hp = h + 1 in
  let rbits = max 4 (min 16 (Signature.bit_length clen)) in
  let gend_o = 2 * clen in
  let lead_o = gend_o + (clen * hp) in
  let cnt_o = lead_o + (clen * hp) in
  Arena.Ibuf.clear gb;
  Arena.Ibuf.reserve gb (cnt_o + (1 lsl rbits));
  let g = Arena.Ibuf.data gb in
  for p = 0 to clen - 1 do
    g.(p) <- p
  done;
  (* Stable LSD radix sort: the last level first, each level's value in
     digits of at most [rbits] bits, low digits first. *)
  let src = ref 0 and dst = ref clen in
  if clen > 1 then
    for l = h - 1 downto 0 do
      let shift = ref 0 in
      while !shift < bits.(l) do
        let r = min rbits (bits.(l) - !shift) in
        let dmask = (1 lsl r) - 1 in
        Array.fill g cnt_o (dmask + 1) 0;
        for p = !src to !src + clen - 1 do
          let d = (smat.((g.(p) * h) + l) lsr !shift) land dmask in
          g.(cnt_o + d) <- g.(cnt_o + d) + 1
        done;
        let acc = ref 0 in
        for d = 0 to dmask do
          let n = g.(cnt_o + d) in
          g.(cnt_o + d) <- !acc;
          acc := !acc + n
        done;
        for p = !src to !src + clen - 1 do
          let ci = g.(p) in
          let d = (smat.((ci * h) + l) lsr !shift) land dmask in
          g.(!dst + g.(cnt_o + d)) <- ci;
          g.(cnt_o + d) <- g.(cnt_o + d) + 1
        done;
        let s = !src in
        src := !dst;
        dst := s;
        shift := !shift + r
      done
    done;
  if !src <> 0 then Array.blit g !src g 0 clen;
  (* Group ends and leaders, back to front: position [p] shares its
     level-[l] group with [p + 1] iff their first [l] values agree, so
     [p + 1] starts the groups of levels above that. *)
  let ngroups = ref (if clen > 0 then hp else 0) in
  for p = clen - 1 downto 0 do
    let ci = g.(p) in
    let shared =
      if p = clen - 1 then -1
      else begin
        let cn = g.(p + 1) in
        let l = ref 0 in
        while !l < h && smat.((ci * h) + !l) = smat.((cn * h) + !l) do
          incr l
        done;
        ngroups := !ngroups + h - !l;
        !l
      end
    in
    for l = 0 to h do
      let i = (p * hp) + l in
      if l <= shared then begin
        g.(gend_o + i) <- g.(gend_o + i + hp);
        let ln = g.(lead_o + i + hp) in
        g.(lead_o + i) <- (if ci < ln then ci else ln)
      end
      else begin
        g.(gend_o + i) <- p + 1;
        g.(lead_o + i) <- ci
      end
    done
  done;
  (* Flags, which only a group of two or more can need.  The largest
     magnitudes first; a NaN, once seen, sticks ([x <> x]). *)
  if clen > 1 then begin
    let amax = ref 0. and cmax = ref 0. and wmax = ref 0. in
    for i = aoff to aoff + alen - 1 do
      let x = Float.abs ncosts.(i) in
      if x > !amax || x <> x then amax := x
    done;
    for i = coff to coff + clen - 1 do
      let x = Float.abs ncosts.(i) in
      if x > !cmax || x <> x then cmax := x
    done;
    for l = 0 to h do
      let x = Float.abs wcs.(l) in
      if x > !wmax || x <> x then wmax := x
    done;
    let mag = !amax +. !cmax +. !wmax in
    (* [mag -. mag = 0.] fails exactly for infinities and NaN. *)
    let thresh = if mag -. mag = 0. then 8. *. epsilon_float *. mag else infinity in
    (* Child segments are (cost, key)-sorted, so a member costing more than
       its leader by at most [thresh] implies two adjacent child costs that
       differ by (0, thresh]; without one no group is flagged. *)
    let close = ref false in
    for i = coff + 1 to coff + clen - 1 do
      let d = ncosts.(i) -. ncosts.(i - 1) in
      if d > 0. && d <= thresh then close := true
    done;
    if !close then
      for p = 0 to clen - 1 do
        for l = 0 to h do
          let i = (p * hp) + l in
          let e = g.(gend_o + i) in
          if e - p > 1 && (p = 0 || g.(gend_o + i - hp) = p) then begin
            let ld = g.(lead_o + i) in
            let kl = nkeys.(coff + ld) and cl = ncosts.(coff + ld) in
            let q = ref p in
            while !q < e do
              let j = g.(!q) in
              if nkeys.(coff + j) < kl && ncosts.(coff + j) -. cl <= thresh then begin
                g.(lead_o + i) <- -1;
                q := e
              end
              else incr q
            done
          end
        done
      done
  end;
  !ngroups

let solve_impl ?(deadline = Deadline.none) ?workspace ?prev ~want_snap t
    ~demand_units cfg =
  Faults.fire "tree_dp.solve";
  let bytes0 = Gc.allocated_bytes () in
  let h = validate_config cfg in
  let n = Tree.n_nodes t in
  if Array.length demand_units <> n then invalid_arg "Tree_dp.solve: demand_units length";
  Array.iteri
    (fun v d ->
      if d < 0 then invalid_arg "Tree_dp.solve: negative demand";
      if d > 0 && not (Tree.is_leaf t v) then
        invalid_arg "Tree_dp.solve: internal node carries demand")
    demand_units;
  let total = Array.fold_left ( + ) 0 demand_units in
  if total > cfg.cp_units.(0) then None
  else begin
    let owned, ws =
      match (workspace : Workspace.lease option) with
      | Some l -> (None, l.Workspace.workspace)
      | None ->
        let l = Workspace.acquire () in
        (Some l, l.Workspace.workspace)
    in
    Fun.protect
      ~finally:(fun () -> match owned with Some l -> Workspace.release l | None -> ())
    @@ fun () ->
    Workspace.reset ws;
    let ws_reused = Workspace.note_use ws in
    let grows0 = Workspace.grows ws in
    let space = Signature.create ~cp_units:cfg.cp_units ?bucketing:cfg.bucketing () in
    let caps = space.Signature.caps in
    let strides = space.Signature.strides in
    let bucket = space.Signature.bucket in
    let bucketed = Option.is_some cfg.bucketing in
    let cm = cfg.cm in
    let layout = Signature.packing caps in
    let nw = layout.Signature.words in
    let g0 = layout.Signature.guards.(0) in
    let states = ref 0 in
    let beam_evictions = ref 0 in
    let pareto_dropped = ref 0 in
    let table_peak = ref 0 in
    let merge_probes = ref 0 in
    (* Merge pairs since the last deadline check. *)
    let dl_pairs = ref 0 in
    (* node_off/node_len.(v): node v's final state table, a (cost, key)-
       sorted segment of ws.node_keys / ws.node_costs. *)
    let node_off = Array.make n 0 in
    let node_len = Array.make n 0 in
    (* back_off/back_len.(c): the backpointer segment written when child c
       was folded into its parent — one packed (accumulator index, child
       index, merge level) word per survivor, in survivor order, in
       ws.back_store. *)
    let back_off = Array.make n 0 in
    let back_len = Array.make n 0 in
    (* sig_a: the decoded accumulator row (merge) or popped state (scan);
       bsig_a: its bucketed values, filled only under bucketing. *)
    let sig_a = Array.make h 0 in
    let bsig_a = Array.make h 0 in
    (* The merge's per-fold edge price per level, the bit length of each
       level's values, and its depth-first walk: per open level-[l] group,
       the next subgroup start, the group's end and its key. *)
    let hp = h + 1 in
    let wcs = Array.make hp 0. in
    let bits = Array.map Signature.bit_length caps in
    let cur = Array.make hp 0 and lim = Array.make hp 0 and kst = Array.make hp 0 in
    let infeasible_leaf = ref false in
    (* Payload packing, hoisted: the level is the low [c_bits] bits, the
       child index the next [b_bits], the accumulator index the rest. *)
    let child_shift = Arena.Table.c_bits in
    let acc_shift = Arena.Table.b_bits + Arena.Table.c_bits in
    let level_mask = (1 lsl Arena.Table.c_bits) - 1 in
    let child_mask = (1 lsl Arena.Table.b_bits) - 1 in
    let tbl = ws.Workspace.tbl in
    let po = Tree.post_order t in
    (* Incremental machinery (all of it is inert — zero allocation, one
       branch per node — on the plain [solve] path). *)
    let incremental = want_snap || Option.is_some prev in
    let parents = if incremental then Array.init n (Tree.parent t) else [||] in
    let merkle = if incremental then merkle_keys t ~demand_units cfg else [||] in
    let prev =
      match (prev : snapshot option) with
      | Some s when Array.length s.merkle = n && s.snap_parents = parents ->
        Some s
      | _ -> None
    in
    (* reuse.(v): some ancestor-or-self has an unchanged Merkle key, so v's
       DP data is spliced or skipped.  Reversed post-order visits parents
       before children, making the ancestor propagation a single pass. *)
    let reuse = Array.make (if incremental then n else 0) false in
    (match prev with
    | Some s ->
      for i = n - 1 downto 0 do
        let v = po.(i) in
        let p = parents.(v) in
        reuse.(v) <-
          Int64.equal merkle.(v) s.merkle.(v) || (p >= 0 && reuse.(p))
      done
    | None -> ());
    let states_of = Array.make (if incremental then n else 0) 0 in
    let reused_states = ref 0 in
    Array.iter
      (fun v ->
        Deadline.check deadline ~stage:"tree_dp";
        if incremental && reuse.(v) then begin
          let p = parents.(v) in
          if p < 0 || not reuse.(p) then begin
            (* Maximal clean root: splice its final table into the
               workspace so the (dirty) parent's fold reads it exactly as
               if it had just been computed; interior nodes stay in the
               snapshot (their back segments are read from there during
               reconstruction). *)
            let s = match prev with Some s -> s | None -> assert false in
            let len = s.s_node_len.(v) in
            let off = Arena.Ibuf.alloc ws.Workspace.node_keys len in
            let (_ : int) = Arena.Fbuf.alloc ws.Workspace.node_costs len in
            Array.blit s.s_node_keys s.s_node_off.(v)
              (Arena.Ibuf.data ws.Workspace.node_keys)
              off len;
            Array.blit s.s_node_costs s.s_node_off.(v)
              (Arena.Fbuf.data ws.Workspace.node_costs)
              off len;
            node_off.(v) <- off;
            node_len.(v) <- len;
            let rec add_sub u =
              states_of.(u) <- s.s_states.(u);
              states := !states + s.s_states.(u);
              reused_states := !reused_states + s.s_states.(u);
              Array.iter add_sub (Tree.children t u)
            in
            add_sub v
          end
        end
        else begin
          let s0 = !states in
          (if Tree.is_leaf t v then begin
          node_off.(v) <- Arena.Ibuf.length ws.Workspace.node_keys;
          match Signature.of_leaf space demand_units.(v) with
          | Some key ->
            node_len.(v) <- 1;
            Arena.Ibuf.push ws.Workspace.node_keys key;
            Arena.Fbuf.push ws.Workspace.node_costs 0.;
            incr states
          | None ->
            node_len.(v) <- 0;
            infeasible_leaf := true
        end
        else begin
          let cs = Tree.children t v in
          (* The accumulator starts as the single all-zeros state. *)
          let acc_off = ref (Arena.Ibuf.length ws.Workspace.node_keys) in
          let acc_len = ref 1 in
          Arena.Ibuf.push ws.Workspace.node_keys 0;
          Arena.Fbuf.push ws.Workspace.node_costs 0.;
          for ic = 0 to Array.length cs - 1 do
            let c = cs.(ic) in
            let w = Tree.edge_weight t c in
            let aoff = !acc_off and alen = !acc_len in
            let coff = node_off.(c) and clen = node_len.(c) in
            (* The fold's largest payload must pack; then every one
               does. *)
            ignore (Arena.Table.pack (max 0 (alen - 1)) (max 0 (clen - 1)) h : int);
            (* Decode each child state once into the signature matrix,
               price the edge per level and group the child states by
               signature prefix. *)
            Arena.Ibuf.clear ws.Workspace.sigs;
            Arena.Ibuf.reserve ws.Workspace.sigs (clen * h);
            let smat = Arena.Ibuf.data ws.Workspace.sigs in
            let nkeys = Arena.Ibuf.data ws.Workspace.node_keys in
            let ncosts = Arena.Fbuf.data ws.Workspace.node_costs in
            for ci = 0 to clen - 1 do
              Signature.decode_into space nkeys.(coff + ci) smat ~pos:(ci * h)
            done;
            for l = 0 to h do
              wcs.(l) <- (if cm.(l) = 0. then 0. else w *. cm.(l))
            done;
            let ngroups =
              group_children ws.Workspace.groups ~smat ~h ~bits ~clen ~nkeys ~ncosts ~aoff
                ~alen ~coff ~wcs
            in
            (* Each (accumulator row, prefix group) pair inserts at most
               one key, so the fold's table is sized to that bound rather
               than to the largest fold this workspace has seen. *)
            Arena.Table.clear_bounded tbl (alen * ngroups);
            let g = Arena.Ibuf.data ws.Workspace.groups in
            let gend_o = 2 * clen in
            let lead_o = gend_o + (clen * hp) in
            (* Cached table internals for the inlined upsert below.  The
               inline form keeps the cost float unboxed — Arena.Table.upsert
               called cross-module would box it on every one of the merge's
               millions of calls.  Semantics must stay exactly those of
               [Arena.Table.upsert], except that the packed payload is
               positional (accumulator index, child index, level) and the
               canonical tie-break compares the keys those indices name;
               the caches are re-read whenever [ensure_room] grows the
               backing arrays. *)
            let t_mask = ref (Arena.Table.mask tbl) in
            let t_epoch = ref (Arena.Table.epoch tbl) in
            let t_marks = ref (Arena.Table.marks tbl) in
            let t_keys = ref (Arena.Table.keys tbl) in
            let t_costs = ref (Arena.Table.costs tbl) in
            let t_pl = ref (Arena.Table.payloads tbl) in
            for ai = 0 to alen - 1 do
              let ka = nkeys.(aoff + ai) in
              let costa = ncosts.(aoff + ai) in
              Signature.decode_into space ka sig_a ~pos:0;
              if bucketed then
                for j = 0 to h - 1 do
                  bsig_a.(j) <- bucket sig_a.(j)
                done;
              dl_pairs := !dl_pairs + clen;
              if !dl_pairs >= 256 then begin
                dl_pairs := 0;
                Deadline.check deadline ~stage:"tree_dp"
              end;
              (* Walk the prefix groups depth-first from the level-0
                 group, which holds every child state: group ([q], [d])
                 is the level-[d] group starting at sorted position [q],
                 and every member merges into key [key] at level [d]. *)
              let q = ref 0 and d = ref 0 and key = ref ka in
              let live = ref (clen > 0) in
              while !live do
                let lvl = !d and k = !key in
                let gi = (!q * hp) + lvl in
                let e = g.(gend_o + gi) and ld = g.(lead_o + gi) in
                let c = cm.(lvl) and wc = wcs.(lvl) in
                (* The leader alone, or every member of a flagged group. *)
                let x = ref (if ld >= 0 then e - 1 else !q) in
                while !x < e do
                  let ci = if ld >= 0 then ld else g.(!x) in
                  incr x;
                  incr merge_probes;
                  let base = costa +. ncosts.(coff + ci) in
                  (* pay, inlined: inf *. 0. = 0. convention *)
                  let cost = if c = 0. then base else base +. wc in
                  let pl = (ai lsl acc_shift) lor (ci lsl child_shift) lor lvl in
                  (* same Fibonacci hash / linear probe as the Table *)
                  let s = ref ((k * 0x2545F4914F6CDD1D) land max_int land !t_mask) in
                  while !t_marks.(!s) = !t_epoch && !t_keys.(!s) <> k do
                    s := (!s + 1) land !t_mask
                  done;
                  if !t_marks.(!s) = !t_epoch then begin
                    let costs = !t_costs in
                    let sl = !s in
                    let old = costs.(sl) in
                    if cost < old then begin
                      costs.(sl) <- cost;
                      !t_pl.(sl) <- pl
                    end
                    else if cost = old then begin
                      (* canonical tie-break: smallest (accumulator key,
                         child key, level); keys are distinct within a
                         segment, so equal indices mean equal keys *)
                      let pla = !t_pl in
                      let o = pla.(sl) in
                      let o1 = o lsr acc_shift
                      and o2 = (o lsr child_shift) land child_mask in
                      if
                        if ai <> o1 then ka < nkeys.(aoff + o1)
                        else if ci <> o2 then nkeys.(coff + ci) < nkeys.(coff + o2)
                        else lvl < o land level_mask
                      then pla.(sl) <- pl
                    end
                  end
                  else begin
                    (* A new key: only now can the table need to grow.
                       After growth the key is still absent, so the
                       re-probe stops at the first free slot. *)
                    if Arena.Table.ensure_room tbl then begin
                      t_mask := Arena.Table.mask tbl;
                      t_epoch := Arena.Table.epoch tbl;
                      t_marks := Arena.Table.marks tbl;
                      t_keys := Arena.Table.keys tbl;
                      t_costs := Arena.Table.costs tbl;
                      t_pl := Arena.Table.payloads tbl;
                      s := (k * 0x2545F4914F6CDD1D) land max_int land !t_mask;
                      while !t_marks.(!s) = !t_epoch do
                        s := (!s + 1) land !t_mask
                      done
                    end;
                    let sl = !s in
                    !t_marks.(sl) <- !t_epoch;
                    !t_keys.(sl) <- k;
                    !t_costs.(sl) <- cost;
                    !t_pl.(sl) <- pl;
                    Arena.Table.added tbl;
                    incr states
                  end
                done;
                (* Next group, depth-first: this group's first subgroup,
                   else the next sibling of the deepest open group.  A
                   group's subgroups come in ascending order of their
                   next value, so the first one whose merged value
                   overflows capacity ends its parent's walk. *)
                let top =
                  ref
                    (if lvl < h then begin
                       cur.(lvl) <- !q;
                       lim.(lvl) <- e;
                       kst.(lvl) <- k;
                       lvl
                     end
                     else lvl - 1)
                in
                live := false;
                while (not !live) && !top >= 0 do
                  let l = !top in
                  let p = cur.(l) in
                  if p >= lim.(l) then decr top
                  else begin
                    let v = smat.((g.(p) * h) + l) in
                    let merged = sig_a.(l) + v in
                    if merged > caps.(l) then decr top
                    else begin
                      (* the bucketed delta keeps the key consistent with
                         re-encoding the bucketed vector; unbucketed, the
                         delta is just the child's value *)
                      (if bucketed then
                         key := kst.(l) + ((bucket merged - bsig_a.(l)) * strides.(l))
                       else key := kst.(l) + (v * strides.(l)));
                      q := p;
                      d := l + 1;
                      cur.(l) <- g.(gend_o + (p * hp) + l + 1);
                      live := true
                    end
                  end
                done
              done
            done;
            (* Collect the occupied slots and heapify them in place: the
               post-merge passes read keys, costs and back payloads
               straight from the table's slot arrays, which stay untouched
               until the next child clears the table. *)
            let raw = Arena.Table.size tbl in
            if raw > !table_peak then table_peak := raw;
            Arena.Ibuf.reserve ws.Workspace.perm raw;
            let perm = Arena.Ibuf.data ws.Workspace.perm in
            (let marks = !t_marks in
             let ep = !t_epoch in
             let out = ref 0 in
             for s = 0 to !t_mask do
               if marks.(s) = ep then begin
                 perm.(!out) <- s;
                 incr out
               end
             done);
            let skeys = !t_keys and scosts = !t_costs in
            Arena.heapify_perm_min perm raw scosts skeys;
            (* Very large raw tables are pre-truncated so the Pareto pass
               stays near-linear: the sorted prefix IS beam truncation. *)
            let pre, width =
              match cfg.beam_width with
              | Some width when raw > 8 * width -> (8 * width, width)
              | Some width -> (raw, width)
              | None -> (raw, raw)
            in
            (* Scan the (cost, key)-sorted prefix, popped lazily from the
               heap, and Pareto-prune it: drop any state whose signature is
               pointwise >= an earlier (cheaper-or-equal) kept state.
               Sound: capacities are upper bounds, so a smaller active-set
               vector admits every completion of a larger one at the same
               future cost.  The beam keeps exactly the first [width]
               survivors, so the scan stops there.  [pw] holds the kept
               states' packed signatures, words [r*nw ..] for survivor
               [r]; kept [k] dominates popped [p] iff
               [((p_w lor g_w) - k_w) land g_w = g_w] for every word [w]
               ({!Signature.packed_leq}). *)
            let kept = ws.Workspace.kept in
            Arena.Ibuf.clear kept;
            Arena.Ibuf.clear ws.Workspace.sigs;
            Arena.Ibuf.reserve ws.Workspace.sigs (min pre width * nw);
            let pw = Arena.Ibuf.data ws.Workspace.sigs in
            let scanned = ref 0 in
            let nk = ref 0 in
            while !scanned < pre && !nk < width do
              let slot = Arena.pop_perm_min perm (raw - !scanned) scosts skeys in
              incr scanned;
              let dominated = ref false in
              if cfg.prune then begin
                let row = !nk * nw in
                Signature.decode_into space skeys.(slot) sig_a ~pos:0;
                Signature.pack_into layout sig_a pw ~pos:row;
                (* Word 0, tested inline, rejects almost every pair; the
                   full test runs only when it passes — with one word,
                   at most once per popped state. *)
                let p0 = pw.(row) lor g0 in
                let kr = ref 0 in
                while (not !dominated) && !kr < row do
                  if
                    (p0 - pw.(!kr)) land g0 = g0
                    && Signature.packed_leq layout pw ~apos:!kr pw ~bpos:row
                  then dominated := true;
                  kr := !kr + nw
                done
              end;
              if not !dominated then begin
                Arena.Ibuf.push kept slot;
                incr nk
              end
            done;
            let kept_count = !nk in
            (* Scanned-and-dominated states are Pareto drops; everything
               the scan never reached is a beam eviction. *)
            pareto_dropped := !pareto_dropped + (!scanned - kept_count);
            beam_evictions := !beam_evictions + (raw - !scanned);
            (* Persist the survivors' positional backpointers in survivor
               order: word [i] belongs to the new accumulator's state
               [i]. *)
            let kdata = Arena.Ibuf.data ws.Workspace.kept in
            let spl = !t_pl in
            let bo = Arena.Ibuf.alloc ws.Workspace.back_store kept_count in
            let bdata = Arena.Ibuf.data ws.Workspace.back_store in
            for i = 0 to kept_count - 1 do
              bdata.(bo + i) <- spl.(kdata.(i))
            done;
            back_off.(c) <- bo;
            back_len.(c) <- kept_count;
            (* The survivors, already (cost, key)-sorted, become the new
               accumulator segment. *)
            let ao = Arena.Ibuf.alloc ws.Workspace.node_keys kept_count in
            let (_ : int) = Arena.Fbuf.alloc ws.Workspace.node_costs kept_count in
            let nkeys = Arena.Ibuf.data ws.Workspace.node_keys in
            let ncosts = Arena.Fbuf.data ws.Workspace.node_costs in
            for i = 0 to kept_count - 1 do
              let slot = kdata.(i) in
              nkeys.(ao + i) <- skeys.(slot);
              ncosts.(ao + i) <- scosts.(slot)
            done;
            acc_off := ao;
            acc_len := kept_count
          done;
          node_off.(v) <- !acc_off;
          node_len.(v) <- !acc_len
        end);
          if incremental then states_of.(v) <- !states - s0
        end)
      po;
    (* One registry update per solve keeps the DP loops free of telemetry
       calls; all are no-ops while collection is disabled. *)
    Obs.count "tree_dp.solves" 1;
    Obs.count "tree_dp.states" !states;
    Obs.count "tree_dp.merge_probes" !merge_probes;
    Obs.count "tree_dp.beam_evictions" !beam_evictions;
    Obs.count "tree_dp.pareto_dropped" !pareto_dropped;
    Obs.gauge_max "tree_dp.table_peak" (float_of_int !table_peak);
    if ws_reused then Obs.count "workspace.reuses" 1;
    Obs.count "workspace.grows" (Workspace.grows ws - grows0);
    Obs.count "tree_dp.bytes_allocated"
      (int_of_float (Gc.allocated_bytes () -. bytes0));
    if !infeasible_leaf then None
    else begin
      let r = Tree.root t in
      if node_len.(r) = 0 then None
      else begin
        (* Segments are (cost, key)-sorted: the head is the canonical
           optimum (minimal cost, smallest key among ties). *)
        let root_key = Arena.Ibuf.get ws.Workspace.node_keys node_off.(r) in
        let cost = Arena.Fbuf.get ws.Workspace.node_costs node_off.(r) in
        (* Reconstruct kappa by walking the positional back segments: a
           node's chosen state is an index into its final table (the root's
           is 0), and the word at that index in its last child's segment
           names the child's state and the accumulator state before that
           fold, and so on back to the first child (whose accumulator index
           is always 0, the all-zeros start). *)
        let kappa = Array.make n 0 in
        let sv = Array.make n 0 in
        let si = Array.make n 0 in
        sv.(0) <- r;
        let sp = ref 1 in
        let bdata_ws = Arena.Ibuf.data ws.Workspace.back_store in
        while !sp > 0 do
          decr sp;
          let v = sv.(!sp) in
          let cs = Tree.children t v in
          (* A child's back segment was written when [v] folded it — fresh
             in the workspace iff [v] was recomputed this run, otherwise it
             lives in the snapshot (v is inside a clean subtree). *)
          let from_prev = incremental && reuse.(v) in
          let idx = ref si.(!sp) in
          for i = Array.length cs - 1 downto 0 do
            let c = cs.(i) in
            let bdata, off =
              if from_prev then
                match prev with
                | Some s -> (s.s_back_store, s.s_back_off.(c))
                | None -> assert false
              else (bdata_ws, back_off.(c))
            in
            let b = bdata.(off + !idx) in
            kappa.(c) <- b land level_mask;
            sv.(!sp) <- c;
            si.(!sp) <- (b lsr child_shift) land child_mask;
            incr sp;
            idx := b lsr acc_shift
          done
        done;
        (* Corrupt action: zero one edge label — a plausible-looking but
           non-optimal labeling whose assignment re-prices downstream. *)
        (match Faults.corrupt_index "tree_dp.solve" ~len:n with
        | Some i -> kappa.(i) <- 0
        | None -> ());
        let stats =
          if not incremental then no_stats
          else begin
            let reused = ref 0 in
            Array.iter (fun r -> if r then incr reused) reuse;
            {
              reused_nodes = !reused;
              resolved_nodes = n - !reused;
              reused_states = !reused_states;
            }
          end
        in
        let snap =
          if not want_snap then None
          else begin
            (* Stitch the new snapshot from this run's workspace (recomputed
               nodes and spliced clean roots) and the previous snapshot
               (interiors of clean subtrees, never touched this run). *)
            let nk = Arena.Ibuf.data ws.Workspace.node_keys in
            let nc = Arena.Fbuf.data ws.Workspace.node_costs in
            let bd = Arena.Ibuf.data ws.Workspace.back_store in
            let interior v =
              reuse.(v) && parents.(v) >= 0 && reuse.(parents.(v))
            in
            let tot_tab = ref 0 and tot_back = ref 0 in
            for v = 0 to n - 1 do
              (match prev with
              | Some s when interior v -> tot_tab := !tot_tab + s.s_node_len.(v)
              | _ -> tot_tab := !tot_tab + node_len.(v));
              if parents.(v) >= 0 then
                match prev with
                | Some s when reuse.(parents.(v)) ->
                  tot_back := !tot_back + s.s_back_len.(v)
                | _ -> tot_back := !tot_back + back_len.(v)
            done;
            let o_no = Array.make n 0 and o_nl = Array.make n 0 in
            let o_keys = Array.make (max 1 !tot_tab) 0 in
            let o_costs = Array.make (max 1 !tot_tab) 0. in
            let o_bo = Array.make n 0 and o_bl = Array.make n 0 in
            let o_bs = Array.make (max 1 !tot_back) 0 in
            let tpos = ref 0 and bpos = ref 0 in
            for v = 0 to n - 1 do
              (match prev with
              | Some s when interior v ->
                let len = s.s_node_len.(v) in
                Array.blit s.s_node_keys s.s_node_off.(v) o_keys !tpos len;
                Array.blit s.s_node_costs s.s_node_off.(v) o_costs !tpos len;
                o_no.(v) <- !tpos;
                o_nl.(v) <- len;
                tpos := !tpos + len
              | _ ->
                let len = node_len.(v) in
                Array.blit nk node_off.(v) o_keys !tpos len;
                Array.blit nc node_off.(v) o_costs !tpos len;
                o_no.(v) <- !tpos;
                o_nl.(v) <- len;
                tpos := !tpos + len);
              if parents.(v) >= 0 then
                match prev with
                | Some s when reuse.(parents.(v)) ->
                  let len = s.s_back_len.(v) in
                  Array.blit s.s_back_store s.s_back_off.(v) o_bs !bpos len;
                  o_bo.(v) <- !bpos;
                  o_bl.(v) <- len;
                  bpos := !bpos + len
                | _ ->
                  let len = back_len.(v) in
                  Array.blit bd back_off.(v) o_bs !bpos len;
                  o_bo.(v) <- !bpos;
                  o_bl.(v) <- len;
                  bpos := !bpos + len
            done;
            Some
              {
                snap_parents = parents;
                merkle;
                s_node_off = o_no;
                s_node_len = o_nl;
                s_node_keys = o_keys;
                s_node_costs = o_costs;
                s_back_off = o_bo;
                s_back_len = o_bl;
                s_back_store = o_bs;
                s_states = states_of;
              }
          end
        in
        Some
          ( {
              cost;
              kappa;
              root_signature = Signature.decode space root_key;
              states_explored = !states;
            },
            snap,
            stats )
      end
    end
  end

let solve ?deadline ?workspace t ~demand_units cfg =
  match solve_impl ?deadline ?workspace ~want_snap:false t ~demand_units cfg with
  | Some (r, _, _) -> Some r
  | None -> None

let solve_snap ?deadline ?workspace ?prev t ~demand_units cfg =
  match solve_impl ?deadline ?workspace ?prev ~want_snap:true t ~demand_units cfg with
  | Some (r, Some snap, stats) -> Some (r, snap, stats)
  | Some (_, None, _) -> assert false
  | None -> None

let kappa_cost t ~kappa ~cm =
  let acc = ref 0. in
  for v = 0 to Tree.n_nodes t - 1 do
    if v <> Tree.root t then acc := !acc +. pay (Tree.edge_weight t v) cm.(kappa.(v))
  done;
  !acc

let check_kappa t ~demand_units ~kappa ~cp_units =
  let n = Tree.n_nodes t in
  let h = Array.length cp_units - 1 in
  let worst = ref 0. in
  for j = 1 to h do
    let dsu = Hgp_util.Dsu.create n in
    for v = 0 to n - 1 do
      if v <> Tree.root t && kappa.(v) >= j then
        ignore (Hgp_util.Dsu.union dsu v (Tree.parent t v))
    done;
    let demand = Array.make n 0 in
    Array.iter
      (fun l ->
        let r = Hgp_util.Dsu.find dsu l in
        demand.(r) <- demand.(r) + demand_units.(l))
      (Tree.leaves t);
    Array.iter
      (fun d ->
        if d > 0 then
          worst := Float.max !worst (float_of_int d /. float_of_int cp_units.(j)))
      demand
  done;
  !worst

let brute_force t ~demand_units cfg =
  let h = validate_config cfg in
  let n = Tree.n_nodes t in
  let root = Tree.root t in
  let edges = List.filter (fun v -> v <> root) (List.init n (fun i -> i)) in
  let m = List.length edges in
  if float_of_int (h + 1) ** float_of_int m > 2e7 then
    invalid_arg "Tree_dp.brute_force: too large";
  let edge_arr = Array.of_list edges in
  let kappa = Array.make n 0 in
  let best = ref None in
  let total = Array.fold_left ( + ) 0 demand_units in
  if total > cfg.cp_units.(0) then None
  else begin
    let rec go i =
      if i = m then begin
        let violation = check_kappa t ~demand_units ~kappa ~cp_units:cfg.cp_units in
        if violation <= 1. +. 1e-12 then begin
          let cost = kappa_cost t ~kappa ~cm:cfg.cm in
          match !best with
          | Some c when c <= cost -> ()
          | _ -> best := Some cost
        end
      end
      else
        for j = 0 to h do
          kappa.(edge_arr.(i)) <- j;
          go (i + 1)
        done
    in
    go 0;
    !best
  end
