(* The hierarchy tree H, generalized to irregular ("ragged") shapes.

   One internal representation serves both worlds: a leveled tree (every
   leaf at depth h) stored level-major — the nodes of Level-(j) occupy the
   contiguous id range [level_off.(j), level_off.(j+1)) and the children of
   any node are contiguous at the next level.  Per-node arrays carry the
   fan-out, cost multiplier, capacity and leaf span; an (h+1) x k ancestor
   matrix makes navigation a lookup.

   Regular hierarchies (the paper's model: uniform fan-out per level,
   per-level multipliers, one leaf capacity) additionally keep their
   original (degs, cm, leaf_capacity) triple in [regular].  That field is
   the compatibility layer: fingerprints, printing and the textual spec
   use the exact historical formulas, so every pre-refactor cache key,
   golden file and solution is reproduced bit for bit (see
   test/test_differential.ml). *)

type regular = {
  degs : int array;
  cm : float array;
  leaf_capacity : float;
  leaves_under : int array; (* leaves_under.(j): leaves below a Level-(j) node *)
}

type t = {
  height : int;
  level_off : int array; (* length h+2: level-j ids in [off.(j), off.(j+1)) *)
  first_child : int array; (* absolute id of first child; -1 for leaves *)
  n_children : int array; (* 0 for leaves *)
  node_cm : float array;
  node_cap : float array; (* total leaf capacity under the node *)
  node_leaves : int array; (* leaves under the node *)
  leaf_start : int array; (* first leaf index under the node *)
  anc : int array; (* anc.(j*k + l): within-level index of leaf l's level-j ancestor *)
  lvl_deg : int array; (* length h: max fan-out at each level *)
  lvl_cm : float array; (* length h+1: max multiplier at each level *)
  lvl_cap : float array; (* length h+1: max node capacity at each level *)
  lvl_leaves : int array; (* length h+1: max leaves-under at each level *)
  leaf_cap_min : float;
  leaf_cap_max : float;
  regular : regular option;
}

type spec =
  | Leaf of { capacity : float; cm : float }
  | Node of { cm : float; children : spec list }

(* ---- basic accessors (defined early; builders below use them) ---- *)

let height t = t.height
let num_leaves t = t.level_off.(t.height + 1) - t.level_off.(t.height)
let is_regular t = t.regular <> None

let nodes_at_level t j = t.level_off.(j + 1) - t.level_off.(j)

let deg t j =
  if j < 0 || j >= height t then invalid_arg "Hierarchy.deg: level out of range";
  t.lvl_deg.(j)

let degs t = Array.copy t.lvl_deg

let leaves_under t j =
  if j < 0 || j > height t then invalid_arg "Hierarchy.leaves_under: level out of range";
  t.lvl_leaves.(j)

let leaf_capacity t = t.leaf_cap_max
let min_leaf_capacity t = t.leaf_cap_min

let leaf_cap t l =
  if l < 0 || l >= num_leaves t then invalid_arg "Hierarchy.leaf_cap: leaf out of range";
  t.node_cap.(t.level_off.(t.height) + l)

let capacity t j =
  if j < 0 || j > height t then invalid_arg "Hierarchy.capacity: level out of range";
  t.lvl_cap.(j)

let capacity_of t ~level idx =
  if level < 0 || level > height t then invalid_arg "Hierarchy.capacity_of: level";
  if idx < 0 || idx >= nodes_at_level t level then invalid_arg "Hierarchy.capacity_of: idx";
  t.node_cap.(t.level_off.(level) + idx)

let total_capacity t = t.node_cap.(0)

let cm t j =
  if j < 0 || j > height t then invalid_arg "Hierarchy.cm: level out of range";
  t.lvl_cm.(j)

let cm_of t ~level idx =
  if level < 0 || level > height t then invalid_arg "Hierarchy.cm_of: level";
  if idx < 0 || idx >= nodes_at_level t level then invalid_arg "Hierarchy.cm_of: idx";
  t.node_cm.(t.level_off.(level) + idx)

let deg_of t ~level idx =
  if level < 0 || level >= height t then invalid_arg "Hierarchy.deg_of: level";
  if idx < 0 || idx >= nodes_at_level t level then invalid_arg "Hierarchy.deg_of: idx";
  t.n_children.(t.level_off.(level) + idx)

let leaves_under_of t ~level idx =
  if level < 0 || level > height t then invalid_arg "Hierarchy.leaves_under_of: level";
  if idx < 0 || idx >= nodes_at_level t level then invalid_arg "Hierarchy.leaves_under_of: idx";
  t.node_leaves.(t.level_off.(level) + idx)

let range_over_level t arr j =
  let lo = ref infinity and hi = ref neg_infinity in
  for id = t.level_off.(j) to t.level_off.(j + 1) - 1 do
    if arr.(id) < !lo then lo := arr.(id);
    if arr.(id) > !hi then hi := arr.(id)
  done;
  (!lo, !hi)

let cm_range t j =
  if j < 0 || j > height t then invalid_arg "Hierarchy.cm_range: level out of range";
  range_over_level t t.node_cm j

let capacity_range t j =
  if j < 0 || j > height t then invalid_arg "Hierarchy.capacity_range: level out of range";
  range_over_level t t.node_cap j

let deg_range t j =
  if j < 0 || j >= height t then invalid_arg "Hierarchy.deg_range: level out of range";
  let lo = ref max_int and hi = ref 0 in
  for id = t.level_off.(j) to t.level_off.(j + 1) - 1 do
    if t.n_children.(id) < !lo then lo := t.n_children.(id);
    if t.n_children.(id) > !hi then hi := t.n_children.(id)
  done;
  (!lo, !hi)

(* ---- navigation ---- *)

let ancestor t ~level leaf =
  if leaf < 0 || leaf >= num_leaves t then invalid_arg "Hierarchy.ancestor: leaf out of range";
  if level < 0 || level > height t then invalid_arg "Hierarchy.ancestor: level out of range";
  t.anc.((level * num_leaves t) + leaf)

let parent_of t ~level idx =
  if level < 1 || level > height t then invalid_arg "Hierarchy.parent_of: level";
  if idx < 0 || idx >= nodes_at_level t level then invalid_arg "Hierarchy.parent_of: idx";
  let l = t.leaf_start.(t.level_off.(level) + idx) in
  t.anc.(((level - 1) * num_leaves t) + l)

let lca_level t a b =
  if a < 0 || a >= num_leaves t || b < 0 || b >= num_leaves t then
    invalid_arg "Hierarchy.lca_level: leaf out of range";
  let h = height t in
  if a = b then h
  else begin
    let k = num_leaves t in
    (* Deepest level at which the ancestors coincide. *)
    let rec go j =
      if j < 0 then 0
      else if t.anc.((j * k) + a) = t.anc.((j * k) + b) then j
      else go (j - 1)
    in
    go (h - 1)
  end

let edge_cost t a b =
  let j = lca_level t a b in
  t.node_cm.(t.level_off.(j) + t.anc.((j * num_leaves t) + a))

let children_of t ~level idx =
  if level < 0 || level >= height t then invalid_arg "Hierarchy.children_of: level";
  if idx < 0 || idx >= nodes_at_level t level then invalid_arg "Hierarchy.children_of: idx";
  let id = t.level_off.(level) + idx in
  let first = t.first_child.(id) - t.level_off.(level + 1) in
  (first, first + t.n_children.(id) - 1)

let leaves_of t ~level idx =
  if level < 0 || level > height t then invalid_arg "Hierarchy.leaves_of: level";
  if idx < 0 || idx >= nodes_at_level t level then invalid_arg "Hierarchy.leaves_of: idx";
  let id = t.level_off.(level) + idx in
  (t.leaf_start.(id), t.leaf_start.(id) + t.node_leaves.(id) - 1)

(* ---- normalization (Lemma 1) ---- *)

let leaf_cm_min t =
  let m = ref infinity in
  for id = t.level_off.(t.height) to t.level_off.(t.height + 1) - 1 do
    if t.node_cm.(id) < !m then m := t.node_cm.(id)
  done;
  !m

let is_normalized t = leaf_cm_min t = 0.

let normalize t =
  let offset = leaf_cm_min t in
  if offset = 0. then (t, 0.)
  else
    let node_cm = Array.map (fun c -> c -. offset) t.node_cm in
    let lvl_cm = Array.map (fun c -> c -. offset) t.lvl_cm in
    let regular =
      Option.map
        (fun r -> { r with cm = Array.map (fun c -> c -. offset) r.cm })
        t.regular
    in
    ({ t with node_cm; lvl_cm; regular }, offset)

(* ---- capacities in demand units (for the signature DP) ---- *)

let capacity_units t ~resolution =
  if resolution < 1 then invalid_arg "Hierarchy.capacity_units: resolution must be >= 1";
  let h = height t in
  match t.regular with
  | Some r ->
    (* Exact historical rule: [resolution] units per (uniform) leaf. *)
    Array.init (h + 1) (fun j ->
        Array.make (nodes_at_level t j) (resolution * r.leaves_under.(j)))
  | None ->
    (* Units are fractions of the LARGEST leaf, so a max-size demand still
       quantizes to [resolution] units; per-node capacities round to the
       nearest unit (>= 1 so no node vanishes). *)
    let unit = t.leaf_cap_max /. float_of_int resolution in
    Array.init (h + 1) (fun j ->
        Array.init (nodes_at_level t j) (fun idx ->
            let u = Float.round (t.node_cap.(t.level_off.(j) + idx) /. unit) in
            Stdlib.max 1 (int_of_float u)))

let level_capacity_units t ~resolution =
  capacity_units t ~resolution
  |> Array.map (fun row -> Array.fold_left Stdlib.max 1 row)

(* ---- constructors ---- *)

let max_table_entries = 1 lsl 22

let too_large fn =
  invalid_arg
    (Printf.sprintf
       "%s: hierarchy too large: its (h+1)*k leaf-ancestor table would exceed %d entries"
       fn max_table_entries)

let create ~degs ~cm ~leaf_capacity =
  let h = Array.length degs in
  if Array.length cm <> h + 1 then invalid_arg "Hierarchy.create: cm must have length h+1";
  Array.iter (fun d -> if d < 1 then invalid_arg "Hierarchy.create: degree must be >= 1") degs;
  (* The size check runs before anything is allocated.  The running leaf
     count keeps [(h+1) * leaves <= max_table_entries], so no product
     below can overflow. *)
  let leaves = ref 1 in
  Array.iter
    (fun d ->
      if d > max_table_entries / (h + 1) / !leaves then too_large "Hierarchy.create";
      leaves := !leaves * d)
    degs;
  for j = 0 to h - 1 do
    if cm.(j) < cm.(j + 1) then invalid_arg "Hierarchy.create: cm must be non-increasing"
  done;
  Array.iter (fun c -> if not (c >= 0.) then invalid_arg "Hierarchy.create: cm must be >= 0") cm;
  if not (leaf_capacity > 0.) then invalid_arg "Hierarchy.create: leaf_capacity must be positive";
  let leaves_under = Array.make (h + 1) 1 in
  for j = h - 1 downto 0 do
    leaves_under.(j) <- leaves_under.(j + 1) * degs.(j)
  done;
  let k = leaves_under.(0) in
  let level_off = Array.make (h + 2) 0 in
  for j = 0 to h do
    level_off.(j + 1) <- level_off.(j) + (k / leaves_under.(j))
  done;
  let n_nodes = level_off.(h + 1) in
  let first_child = Array.make n_nodes (-1) in
  let n_children = Array.make n_nodes 0 in
  let node_cm = Array.make n_nodes 0. in
  let node_cap = Array.make n_nodes 0. in
  let node_leaves = Array.make n_nodes 1 in
  let leaf_start = Array.make n_nodes 0 in
  for j = 0 to h do
    let cap_j = float_of_int leaves_under.(j) *. leaf_capacity in
    for idx = 0 to (k / leaves_under.(j)) - 1 do
      let id = level_off.(j) + idx in
      node_cm.(id) <- cm.(j);
      node_cap.(id) <- cap_j;
      node_leaves.(id) <- leaves_under.(j);
      leaf_start.(id) <- idx * leaves_under.(j);
      if j < h then begin
        n_children.(id) <- degs.(j);
        first_child.(id) <- level_off.(j + 1) + (idx * degs.(j))
      end
    done
  done;
  let anc = Array.make ((h + 1) * k) 0 in
  for j = 0 to h do
    for l = 0 to k - 1 do
      anc.((j * k) + l) <- l / leaves_under.(j)
    done
  done;
  {
    height = h;
    level_off;
    first_child;
    n_children;
    node_cm;
    node_cap;
    node_leaves;
    leaf_start;
    anc;
    lvl_deg = Array.copy degs;
    lvl_cm = Array.copy cm;
    lvl_cap = Array.init (h + 1) (fun j -> float_of_int leaves_under.(j) *. leaf_capacity);
    lvl_leaves = Array.copy leaves_under;
    leaf_cap_min = leaf_capacity;
    leaf_cap_max = leaf_capacity;
    regular = Some { degs = Array.copy degs; cm = Array.copy cm; leaf_capacity; leaves_under };
  }

(* Depth of a spec; also validates that siblings agree so all leaves end up
   at the same depth (the DP and the per-level machinery require a leveled
   tree). *)
let rec spec_depth = function
  | Leaf _ -> 0
  | Node { children = []; _ } ->
    invalid_arg "Hierarchy.create_ragged: internal node must have >= 1 child"
  | Node { children; _ } ->
    let ds = List.map spec_depth children in
    let d0 = List.hd ds in
    List.iter
      (fun d ->
        if d <> d0 then
          invalid_arg "Hierarchy.create_ragged: all leaves must be at the same depth")
      ds;
    d0 + 1

let rec spec_leaves = function
  | Leaf _ -> 1
  | Node { children; _ } -> List.fold_left (fun acc c -> acc + spec_leaves c) 0 children

let create_ragged sp =
  let h = spec_depth sp in
  (* The size check runs before any array is allocated. *)
  if h + 1 > max_table_entries / spec_leaves sp then too_large "Hierarchy.create_ragged";
  (* Count nodes per level. *)
  let counts = Array.make (h + 1) 0 in
  let rec count lvl = function
    | Leaf _ -> counts.(lvl) <- counts.(lvl) + 1
    | Node { children; _ } ->
      counts.(lvl) <- counts.(lvl) + 1;
      List.iter (count (lvl + 1)) children
  in
  count 0 sp;
  let level_off = Array.make (h + 2) 0 in
  for j = 0 to h do
    level_off.(j + 1) <- level_off.(j) + counts.(j)
  done;
  let n_nodes = level_off.(h + 1) in
  let k = counts.(h) in
  let first_child = Array.make n_nodes (-1) in
  let n_children = Array.make n_nodes 0 in
  let node_cm = Array.make n_nodes 0. in
  let node_cap = Array.make n_nodes 0. in
  let node_leaves = Array.make n_nodes 0 in
  let leaf_start = Array.make n_nodes 0 in
  let anc = Array.make ((h + 1) * k) 0 in
  let cursor = Array.make (h + 1) 0 in
  (* chain.(j): within-level index of the current node's level-j ancestor. *)
  let chain = Array.make (h + 1) 0 in
  let next_leaf = ref 0 in
  let rec fill lvl parent_cm sp =
    let idx = cursor.(lvl) in
    cursor.(lvl) <- idx + 1;
    chain.(lvl) <- idx;
    let id = level_off.(lvl) + idx in
    (match sp with
    | Leaf { capacity; cm } ->
      if not (capacity > 0.) then
        invalid_arg "Hierarchy.create_ragged: leaf capacity must be positive";
      if not (cm >= 0.) then invalid_arg "Hierarchy.create_ragged: cm must be >= 0";
      if cm > parent_cm then
        invalid_arg "Hierarchy.create_ragged: cm must be non-increasing along paths";
      let l = !next_leaf in
      incr next_leaf;
      node_cm.(id) <- cm;
      node_cap.(id) <- capacity;
      node_leaves.(id) <- 1;
      leaf_start.(id) <- l;
      for j = 0 to h do
        anc.((j * k) + l) <- chain.(j)
      done
    | Node { cm; children } ->
      if not (cm >= 0.) then invalid_arg "Hierarchy.create_ragged: cm must be >= 0";
      if cm > parent_cm then
        invalid_arg "Hierarchy.create_ragged: cm must be non-increasing along paths";
      node_cm.(id) <- cm;
      first_child.(id) <- level_off.(lvl + 1) + cursor.(lvl + 1);
      n_children.(id) <- List.length children;
      leaf_start.(id) <- !next_leaf;
      List.iter (fill (lvl + 1) cm) children;
      let cap = ref 0. and leaves = ref 0 in
      for c = first_child.(id) to first_child.(id) + n_children.(id) - 1 do
        cap := !cap +. node_cap.(c);
        leaves := !leaves + node_leaves.(c)
      done;
      node_cap.(id) <- !cap;
      node_leaves.(id) <- !leaves)
  in
  fill 0 infinity sp;
  (* If the spec happens to be perfectly regular, rebuild through the
     regular constructor so content-addressing and the textual spec agree
     with the historical representation. *)
  let detect_regular () =
    let uniform_level j =
      let id0 = level_off.(j) in
      let ok = ref true in
      for id = id0 + 1 to level_off.(j + 1) - 1 do
        if n_children.(id) <> n_children.(id0) || node_cm.(id) <> node_cm.(id0) then
          ok := false
      done;
      !ok
    in
    let caps_uniform = ref true in
    for id = level_off.(h) + 1 to level_off.(h + 1) - 1 do
      if node_cap.(id) <> node_cap.(level_off.(h)) then caps_uniform := false
    done;
    let all_uniform = ref !caps_uniform in
    for j = 0 to h do
      if not (uniform_level j) then all_uniform := false
    done;
    if not !all_uniform then None
    else
      Some
        (create
           ~degs:(Array.init h (fun j -> n_children.(level_off.(j))))
           ~cm:(Array.init (h + 1) (fun j -> node_cm.(level_off.(j))))
           ~leaf_capacity:node_cap.(level_off.(h)))
  in
  match detect_regular () with
  | Some t -> t
  | None ->
    let lvl_deg =
      Array.init h (fun j ->
          let m = ref 0 in
          for id = level_off.(j) to level_off.(j + 1) - 1 do
            if n_children.(id) > !m then m := n_children.(id)
          done;
          !m)
    in
    let max_over arr j init =
      let m = ref init in
      for id = level_off.(j) to level_off.(j + 1) - 1 do
        if arr.(id) > !m then m := arr.(id)
      done;
      !m
    in
    let lvl_cm = Array.init (h + 1) (fun j -> max_over node_cm j neg_infinity) in
    let lvl_cap = Array.init (h + 1) (fun j -> max_over node_cap j neg_infinity) in
    let lvl_leaves = Array.init (h + 1) (fun j -> max_over node_leaves j 0) in
    let cap_min = ref infinity and cap_max = ref neg_infinity in
    for id = level_off.(h) to level_off.(h + 1) - 1 do
      if node_cap.(id) < !cap_min then cap_min := node_cap.(id);
      if node_cap.(id) > !cap_max then cap_max := node_cap.(id)
    done;
    {
      height = h;
      level_off;
      first_child;
      n_children;
      node_cm;
      node_cap;
      node_leaves;
      leaf_start;
      anc;
      lvl_deg;
      lvl_cm;
      lvl_cap;
      lvl_leaves;
      leaf_cap_min = !cap_min;
      leaf_cap_max = !cap_max;
      regular = None;
    }

let rec spec_of_node t id lvl =
  if lvl = t.height then Leaf { capacity = t.node_cap.(id); cm = t.node_cm.(id) }
  else
    Node
      {
        cm = t.node_cm.(id);
        children =
          List.init t.n_children.(id) (fun c ->
              spec_of_node t (t.first_child.(id) + c) (lvl + 1));
      }

let spec_of t = spec_of_node t 0 0

(* ---- fingerprints ---- *)

let fingerprint t =
  let open Hgp_util.Fingerprint in
  match t.regular with
  | Some r ->
    (* Historical formula, preserved exactly: degs + cm + leaf_capacity
       determine a regular hierarchy (leaves_under is derived). *)
    seed |> Fun.flip add_int_array r.degs
    |> Fun.flip add_float_array r.cm
    |> Fun.flip add_float r.leaf_capacity
  | None ->
    (* Level-major structure + per-node multipliers + per-leaf capacities:
       perturbing a single leaf capacity or one subtree's multiplier yields
       a different key (cache-integrity tests rely on this). *)
    let k = num_leaves t in
    let leaf_caps = Array.sub t.node_cap t.level_off.(t.height) k in
    seed |> Fun.flip add_string "ragged"
    |> Fun.flip add_int_array t.n_children
    |> Fun.flip add_float_array t.node_cm
    |> Fun.flip add_float_array leaf_caps

let pp ppf t =
  match t.regular with
  | Some r ->
    let degs_s =
      String.concat "x" (Array.to_list (Array.map string_of_int r.degs))
    in
    let cm_s =
      String.concat "," (Array.to_list (Array.map (Printf.sprintf "%g") r.cm))
    in
    Format.fprintf ppf "H(h=%d, degs=%s, k=%d, cm=[%s], cap=%g)" (height t)
      (if degs_s = "" then "-" else degs_s)
      (num_leaves t) cm_s r.leaf_capacity
  | None ->
    Format.fprintf ppf "H(h=%d, ragged, k=%d, nodes=%d, cm0=%g, caps=%g..%g)"
      (height t) (num_leaves t) t.level_off.(t.height + 1) t.node_cm.(0)
      t.leaf_cap_min t.leaf_cap_max

module Presets = struct
  let flat ~k =
    create ~degs:[| k |] ~cm:[| 1.0; 0.0 |] ~leaf_capacity:1.0

  let dual_socket =
    (* cross-socket memory bus / shared L3 / shared L2 between hyperthreads *)
    create ~degs:[| 2; 4; 2 |] ~cm:[| 100.0; 30.0; 8.0; 0.0 |] ~leaf_capacity:1.0

  let quad_socket =
    (* The 64-core server of the paper's introduction; cm(h)=1 models the
       residual cost of same-core communication (not normalized). *)
    create ~degs:[| 4; 8; 2 |] ~cm:[| 120.0; 40.0; 10.0; 1.0 |] ~leaf_capacity:1.0

  let cluster =
    create ~degs:[| 2; 4; 8 |] ~cm:[| 1000.0; 100.0; 10.0; 0.0 |] ~leaf_capacity:1.0

  let datacenter =
    create ~degs:[| 2; 4; 4; 4 |]
      ~cm:[| 5000.0; 1000.0; 100.0; 10.0; 0.0 |]
      ~leaf_capacity:1.0

  let uniform ~branching ~height =
    if height < 0 then invalid_arg "Presets.uniform: negative height";
    let degs = Array.make height branching in
    let cm = Array.init (height + 1) (fun j -> float_of_int ((1 lsl (height - j)) - 1)) in
    create ~degs ~cm ~leaf_capacity:1.0

  let leaves ?(cm = 0.) caps =
    List.map (fun c -> Leaf { capacity = c; cm }) caps

  let ragged_rack =
    (* A rack row mid-rollout: one full rack, one partially filled with a
       downbinned machine, and a premium two-machine rack on a faster
       switch (lower subtree multiplier). *)
    create_ragged
      (Node
         {
           cm = 100.0;
           children =
             [
               Node { cm = 10.0; children = leaves [ 4.; 4.; 4.; 4. ] };
               Node { cm = 10.0; children = leaves [ 4.; 4.; 2. ] };
               Node { cm = 5.0; children = leaves [ 8.; 8. ] };
             ];
         })

  let gpu_cpu_tier =
    (* Accelerator island (few big leaves, fast interconnect) next to a CPU
       tier (many small leaves, slower fabric). *)
    create_ragged
      (Node
         {
           cm = 50.0;
           children =
             [
               Node { cm = 4.0; children = leaves [ 16.; 16.; 16.; 16. ] };
               Node { cm = 12.0; children = leaves [ 2.; 2.; 2.; 2.; 2.; 2.; 2.; 2. ] };
             ];
         })

  let all =
    [
      ("flat16", flat ~k:16);
      ("dual_socket", dual_socket);
      ("quad_socket", quad_socket);
      ("cluster", cluster);
      ("datacenter", datacenter);
    ]

  let ragged_all = [ ("ragged_rack", ragged_rack); ("gpu_cpu_tier", gpu_cpu_tier) ]
  let all_named = all @ ragged_all
end
