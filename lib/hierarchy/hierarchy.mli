(** The hierarchy tree [H] of the HGP problem, generalized to irregular
    ("ragged") shapes: per-node child counts, per-leaf capacities, and
    per-subtree cost multipliers.

    [H] is a {e leveled} tree: the root is Level-0 and every leaf lives at
    Level-[h].  Each node carries a cost multiplier, non-increasing along
    every root-to-leaf path; cutting a task-graph edge whose endpoints land
    on leaves with lowest common ancestor node [x] costs [w * cm(x)].  Each
    leaf carries its own capacity.

    The paper's regular model — uniform fan-out [degs.(j)] per level, one
    multiplier [cm.(j)] per level, one leaf capacity — is the special case
    built by {!create}.  Regular hierarchies keep their historical
    semantics {e exactly}: leaves are numbered left to right, the Level-(j)
    ancestor of a leaf is [leaf / leaves_under j], and {!fingerprint}
    reproduces the pre-generalization cache keys bit for bit.  The
    per-level accessors ({!deg}, {!cm}, {!capacity}, {!leaves_under})
    remain total on ragged trees by returning the level {e envelope}
    (maximum over the level's nodes) — callers that need exact per-node
    values use the [_of] variants.  See [docs/HIERARCHY.md]. *)

type t

(** Shape description consumed by {!create_ragged}: a leaf with its own
    capacity (and optional residual same-leaf multiplier), or an internal
    node with a subtree multiplier and at least one child. *)
type spec =
  | Leaf of { capacity : float; cm : float }
  | Node of { cm : float; children : spec list }

(** The size limit of a hierarchy: its [(h+1) * k] leaf-ancestor table
    (height [h], [k] leaves) may hold at most this many entries, [2^22]
    (32 MiB of ints).  Every per-node array is no larger than that table,
    so the bound covers them all.  {!create} and {!create_ragged} check it
    before allocating anything. *)
val max_table_entries : int

(** [create ~degs ~cm ~leaf_capacity] builds a {e regular} hierarchy of
    height [Array.length degs]; [degs.(j)] is the fan-out of Level-(j) nodes
    and [cm] must have length [height + 1] and be non-increasing with
    [cm.(j) >= 0].  [degs = [||]] gives the trivial single-leaf hierarchy.
    Requires every [degs.(j) >= 1], [leaf_capacity > 0.] and a shape within
    {!max_table_entries}.
    @raise Invalid_argument otherwise. *)
val create : degs:int array -> cm:float array -> leaf_capacity:float -> t

(** [create_ragged spec] builds an irregular hierarchy.  Requires all
    leaves at the same depth, every internal node non-empty, capacities
    positive, and multipliers non-negative and non-increasing along every
    root-to-leaf path, and a shape within {!max_table_entries}.  A spec
    that happens to be perfectly regular
    (uniform fan-outs, multipliers and capacities per level) is rebuilt
    through {!create}, so equal content always means equal
    {!fingerprint}.
    @raise Invalid_argument on malformed specs. *)
val create_ragged : spec -> t

(** [spec_of t] recovers the shape (inverse of {!create_ragged} up to
    regular-detection). *)
val spec_of : t -> spec

(** [is_regular t] is true for hierarchies built by {!create} (or detected
    as regular); such trees honor every historical arithmetic identity. *)
val is_regular : t -> bool

(** [height t] is [h]; leaves live at Level-[h]. *)
val height : t -> int

(** [deg t j] is the fan-out of Level-(j) nodes, [0 <= j < height t]; on a
    ragged tree, the {e maximum} fan-out at the level. *)
val deg : t -> int -> int

(** [deg_of t ~level idx] is the exact fan-out of node [idx] at [level]. *)
val deg_of : t -> level:int -> int -> int

(** [deg_range t j] is the [(min, max)] fan-out over Level-(j) nodes. *)
val deg_range : t -> int -> int * int

(** [degs t] is the per-level fan-out vector (per-level maxima when
    ragged). *)
val degs : t -> int array

(** [num_leaves t] is [k], the number of leaves. *)
val num_leaves : t -> int

(** [nodes_at_level t j] is the number of Level-(j) nodes. *)
val nodes_at_level : t -> int -> int

(** [leaves_under t j] is the number of leaves in the subtree of a Level-(j)
    node (the maximum over the level's nodes when ragged). *)
val leaves_under : t -> int -> int

(** [leaves_under_of t ~level idx] is the exact leaf count under node
    [idx]. *)
val leaves_under_of : t -> level:int -> int -> int

(** [leaf_capacity t] is the capacity of one leaf; on a ragged tree, the
    {e largest} leaf capacity (the demand-quantization scale — a valid
    instance's per-vertex demand never exceeds it). *)
val leaf_capacity : t -> float

(** [min_leaf_capacity t] is the smallest leaf capacity — the safe cap for
    coarsening merges (a merged vertex of this weight still fits on any
    leaf; see [docs/MULTILEVEL.md]). *)
val min_leaf_capacity : t -> float

(** [leaf_cap t l] is the capacity of leaf [l]. *)
val leaf_cap : t -> int -> float

(** [capacity t j] is [CP(j)]: total leaf capacity under a Level-(j) node
    (the maximum over the level's nodes when ragged). *)
val capacity : t -> int -> float

(** [capacity_of t ~level idx] is the exact total leaf capacity under node
    [idx] at [level] — the denominator of that node's load violation. *)
val capacity_of : t -> level:int -> int -> float

(** [capacity_range t j] is the [(min, max)] node capacity at Level-(j). *)
val capacity_range : t -> int -> float * float

(** [total_capacity t] is the whole machine: the root's capacity. *)
val total_capacity : t -> float

(** [cm t j] is the Level-(j) cost multiplier, [0 <= j <= height t] (the
    maximum over the level's nodes when ragged — an admissible pessimistic
    bound for the per-level DP relaxation). *)
val cm : t -> int -> float

(** [cm_of t ~level idx] is the exact multiplier of node [idx] at
    [level]. *)
val cm_of : t -> level:int -> int -> float

(** [cm_range t j] is the [(min, max)] multiplier at Level-(j). *)
val cm_range : t -> int -> float * float

(** [ancestor t ~level leaf] is the index (within its level) of the Level-
    [level] ancestor of [leaf]. *)
val ancestor : t -> level:int -> int -> int

(** [parent_of t ~level idx] is the within-level index (at [level - 1]) of
    the parent of node [idx] at [level], [1 <= level <= height t]. *)
val parent_of : t -> level:int -> int -> int

(** [lca_level t a b] is the level of the lowest common ancestor of leaves
    [a] and [b] ([height t] when [a = b]). *)
val lca_level : t -> int -> int -> int

(** [edge_cost t a b] is the multiplier of the lowest-common-ancestor
    {e node} of leaves [a] and [b] — the per-unit-weight cost of placing
    communicating tasks there.  Equals [cm (lca_level t a b)] on regular
    trees. *)
val edge_cost : t -> int -> int -> float

(** [is_normalized t] tests that the smallest leaf multiplier is [0]
    ([cm h = 0] on regular trees). *)
val is_normalized : t -> bool

(** [normalize t] implements Lemma 1: returns [(t', offset)] where every
    multiplier is reduced by [offset], the smallest leaf multiplier.  On
    regular trees (uniform leaf multiplier) any solution's cost satisfies
    [cost t p = cost t' p +. offset *. total_edge_weight]; on ragged trees
    with non-uniform leaf multipliers the identity degrades to a bound and
    the exact cost should be evaluated un-normalized. *)
val normalize : t -> t * float

(** [children_of t ~level idx] is the index range [(first, last)] of the
    children (at [level + 1]) of node [idx] at [level].  Children are
    always contiguous, including on ragged trees. *)
val children_of : t -> level:int -> int -> int * int

(** [leaves_of t ~level idx] is the inclusive leaf range [(first, last)]
    under node [idx] at [level]. *)
val leaves_of : t -> level:int -> int -> int * int

(** [capacity_units t ~resolution] is the per-node capacity expressed in
    demand units — [units.(j).(idx)] for node [idx] at Level-(j).  On
    regular trees this is exactly [resolution * leaves_under j] (the
    historical DP rule); on ragged trees units are fractions of the largest
    leaf and each node's capacity rounds to the nearest unit (>= 1).
    Child units never exceed parent units. *)
val capacity_units : t -> resolution:int -> int array array

(** [level_capacity_units t ~resolution] is the per-level envelope (row
    maxima of {!capacity_units}) — the signature DP's per-level capacity
    vector, non-increasing with depth. *)
val level_capacity_units : t -> resolution:int -> int array

(** [fingerprint t] is a content fingerprint of the hierarchy — the
    hierarchy component of solver cache keys (see [docs/ARCHITECTURE.md]).
    Regular trees reproduce the historical (degs, cm, leaf_capacity)
    digest exactly; ragged trees digest the level-major structure,
    per-node multipliers and per-leaf capacities, so any single-field
    perturbation (one leaf capacity, one subtree multiplier) changes the
    key. *)
val fingerprint : t -> Hgp_util.Fingerprint.t

(** [pp] prints a one-line description. *)
val pp : Format.formatter -> t -> unit

(** Hardware-inspired presets.  Cost multipliers are derived from typical
    communication latencies (arbitrary units); some presets are deliberately
    not normalized to exercise Lemma 1. *)
module Presets : sig
  (** [flat ~k] encodes classic k-balanced graph partitioning: height 1,
      [cm = [|1; 0|]]. *)
  val flat : k:int -> t

  (** [dual_socket] is 2 sockets x 4 cores x 2 hyperthreads (16 leaves),
      height 3. *)
  val dual_socket : t

  (** [quad_socket] is 4 sockets x 8 cores x 2 hyperthreads (64 leaves), the
      server of the paper's introduction; [cm h = 1] (not normalized). *)
  val quad_socket : t

  (** [cluster] is 2 racks x 4 servers x 8 cores (64 leaves), height 3, with
      steep network-versus-memory multipliers. *)
  val cluster : t

  (** [datacenter] is height 4: 2 pods x 4 racks x 4 servers x 4 cores. *)
  val datacenter : t

  (** [uniform ~branching ~height] has fan-out [branching] everywhere and
      geometrically decaying multipliers [cm j = 2^(h-j) - 1]. *)
  val uniform : branching:int -> height:int -> t

  (** [ragged_rack] is an irregular rack row: a full 4-machine rack, a
      partially filled rack with a downbinned machine (caps 4,4,2), and a
      premium 2-machine rack (caps 8,8) on a faster switch. *)
  val ragged_rack : t

  (** [gpu_cpu_tier] is an accelerator island (4 leaves of capacity 16,
      fast interconnect) next to a CPU tier (8 leaves of capacity 2). *)
  val gpu_cpu_tier : t

  (** [all] is every named {e regular} preset with its label (kept stable
      for the differential suite and existing cache keys). *)
  val all : (string * t) list

  (** [ragged_all] is every named ragged preset. *)
  val ragged_all : (string * t) list

  (** [all_named] is [all @ ragged_all] — the lookup table for
      {!Topology.parse}. *)
  val all_named : (string * t) list
end
