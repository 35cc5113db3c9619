(** Certification-preserving boundary refinement on CSR graphs.

    After a coarse solution is projected one level down, every fine vertex
    sits where its super-vertex sat; the only vertices whose placement can
    be wrong at this level are those with an edge crossing a leaf boundary.
    Two engines polish them, both restricted to moves that keep the load of
    every hierarchy-level ancestor of the destination within
    [slack * CP(j)] — with [slack] set to the certified bound
    [(1+eps)(1+h)] no move can push any level past the band the coarse
    certificate established, so the certificate survives uncoarsening (the
    semantics [docs/MULTILEVEL.md] relies on):

    - {!refine} is the historical greedy engine: each pass visits vertices
      in ascending id order (no randomness — the V-cycle must be
      deterministic for a fixed seed) and moves a vertex to the
      neighbor-hosting leaf that reduces its incident communication cost
      the most.  Interior vertices are skipped via an incrementally
      maintained cross-neighbor count; the move sequence is bit-identical
      to the pre-FM implementation.
    - {!refine_fm} is the FM engine: boundary vertices are ranked in a
      flat gain queue on quantized gains ({!Bucketq}), gains are
      invalidated lazily on neighbor moves (stale entries die at pop
      against a per-vertex stamp), each vertex moves at most once per
      pass, and with [hill_climb] temporarily negative move sequences are
      allowed and rolled back to the best prefix at the end of the pass —
      so a pass never increases the level cost, but can escape the
      single-move local minima the greedy engine gets stuck in.

    Both engines allocate almost nothing per move: gains are summed
    straight over the CSR arrays against a [k × k] matrix of
    [Hierarchy.edge_cost] values (same floats, same ascending-neighbour
    order, so every gain is bit-identical to the [edge_cost] sum), the
    move log is preallocated arrays, and the queue and per-vertex arrays
    live in a per-domain workspace reused across passes and calls.  The
    workspace grows to the largest graph refined on its domain.  Both
    engines are pinned bit for bit against the implementation they
    replaced ([test/support/refine_reference.ml]). *)

type stats = {
  passes : int;
  moves : int;  (** applied moves, including any later rolled back *)
  gain : float;  (** total level-cost decrease over all passes *)
  rollbacks : int;  (** moves undone by best-prefix rollback (greedy: 0) *)
}

(** Which engine the V-cycle runs at each level. *)
type algo = Greedy | Fm of { hill_climb : bool }

(** One observed state change, reported through [?observe] of {!refine_fm}:
    an application ([undo = false], [move_gain] = exact cost decrease, may
    be negative under hill-climbing) or a best-prefix rollback of that
    application ([undo = true], [move_gain] negated). *)
type move = {
  vertex : int;
  src : int;
  dst : int;
  move_gain : float;
  undo : bool;
}

(** [cost csr hy assignment] is the level objective both engines descend:
    the sum over edges of [w * edge_cost hy l_u l_v], accumulated in
    ascending [(u, v)] order.  (On the finest level this is the Equation-1
    instance cost.)
    @raise Invalid_argument when an entry of [assignment] is not a leaf of
    [hy] (so do {!refine}, {!refine_fm} and {!in_band}). *)
val cost : Hgp_graph.Csr.t -> Hgp_hierarchy.Hierarchy.t -> int array -> float

(** [boundary csr assignment] is the brute-force boundary set — vertex [v]
    is marked iff some neighbor lives on a different leaf.  This is the
    differential oracle the incremental maintenance is regression-tested
    against (see [test_refine.ml]); the engines themselves never rescan the
    graph after a move. *)
val boundary : Hgp_graph.Csr.t -> int array -> bool array

(** [in_band csr hy assignment ~slack] checks the invariant both engines
    maintain: every hierarchy node at levels [1..h] carries load at most
    [slack * CP(node)] (tolerance 1e-9 for float accumulation).  The test
    layer and the E20 ledger use it to re-verify every level, and the
    benchmark to check final answers. *)
val in_band :
  Hgp_graph.Csr.t -> Hgp_hierarchy.Hierarchy.t -> int array -> slack:float -> bool

(** The quantized-gain queue behind {!refine_fm}, exposed for the property
    suite.  An entry is a vertex and its stamp, filed under bucket
    [floor (gain / quantum)]; [pop] removes the entry from the highest
    non-empty bucket, FIFO within a bucket.  It is a binary heap over one
    flat int array ordered by (bucket descending, push order ascending), so
    steady-state use allocates nothing.  Quantization affects only the
    order entries come out, never the gains the FM engine applies — popped
    entries are revalidated against exact recomputed gains. *)
module Bucketq : sig
  type t

  val create : quantum:float -> t
  val length : t -> int

  (** [index_of t gain] is the bucket [gain] files under. *)
  val index_of : t -> float -> int

  (** [push t ~gain v stamp] files entry [(v, stamp)] under
      [index_of t gain]. *)
  val push : t -> gain:float -> int -> int -> unit

  (** [pop t] removes the front entry and returns [true], or returns
      [false] when [t] is empty.  The removed entry is read with {!bucket},
      {!vertex} and {!stamp} until the next [pop]. *)
  val pop : t -> bool

  val bucket : t -> int
  val vertex : t -> int
  val stamp : t -> int
  val clear : t -> unit
end

(** [refine csr hy assignment ~slack ~max_passes] runs the greedy engine and
    returns the refined copy of [assignment] (vertex -> leaf of [hy]) and
    move statistics.  Vertex weights of [csr] are the demands. *)
val refine :
  Hgp_graph.Csr.t ->
  Hgp_hierarchy.Hierarchy.t ->
  int array ->
  slack:float ->
  max_passes:int ->
  int array * stats

(** [refine_fm csr hy assignment ~slack ~max_passes ~hill_climb ()] runs the
    FM engine.  With [hill_climb = false] only strictly positive-gain moves
    are applied (monotone descent, no rollback); with [hill_climb = true]
    each pass drains the whole bucket queue — negative moves included — and
    rolls back to the best prefix, so the pass gain is still [>= 0].

    [?observe] is a test hook: called after every applied or undone move
    with the exact gain and a snapshot of the incrementally maintained
    boundary flags (so the suite can pin them to {!boundary}).  It is
    [None] in production, where no event record or snapshot is built: the
    cost is one test of the option per move. *)
val refine_fm :
  Hgp_graph.Csr.t ->
  Hgp_hierarchy.Hierarchy.t ->
  int array ->
  slack:float ->
  max_passes:int ->
  hill_climb:bool ->
  ?observe:(move -> bool array -> unit) ->
  unit ->
  int array * stats
