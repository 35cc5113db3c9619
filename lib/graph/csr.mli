(** Vertex-weighted graphs: a {!Graph.t} plus one weight per vertex.

    The adjacency is the graph's own CSR arrays, shared, not copied; this
    module adds only {e vertex weights}, the quantity coarsening must
    conserve: a coarse vertex's weight is the demand of everything merged
    into it (the nonuniform-weights setting of Makarychev & Makarychev).
    Adjacency queries go to {!Graph} on the [graph] field.

    Validation raises structured {!Hgp_resilience.Hgp_error.Invalid_input}
    errors (exit class 65), not [Invalid_argument]: these constructors sit
    on the ingest path of the multilevel front-end, where malformed data is
    an input problem, not a bug. *)

type t = private {
  graph : Graph.t;
  vwgt : float array;  (** vertex weights (demands); all [> 0.] and finite *)
  total_vw : float;  (** sum of vertex weights, in vertex order *)
}

(** [of_graph ?vwgt g] attaches vertex weights to [g], sharing its
    adjacency arrays — O(n).  [vwgt] defaults to all-ones.
    @raise Hgp_resilience.Hgp_error.Error ([Invalid_input _]) on a length
    mismatch or a non-positive or non-finite vertex weight. *)
val of_graph : ?vwgt:float array -> Graph.t -> t

(** [to_graph t] is [t.graph]. *)
val to_graph : t -> Graph.t

val n : t -> int
val vertex_weight : t -> int -> float
val total_vertex_weight : t -> float

(** [contract t map ~n_parts] is {!Graph.contract} with vertex weights
    added up per part.  O(n + m).
    @raise Hgp_resilience.Hgp_error.Error ([Invalid_input _]) on a length
    mismatch or an out-of-range part id (context ["graph.contract"]), or
    an empty part (context ["csr.contract"]): coarse vertices stand for
    demands, and a zero demand cannot be instantiated downstream. *)
val contract : t -> int array -> n_parts:int -> t

(** [fingerprint t] digests the full structure including vertex weights —
    the content address used by the multilevel hierarchy cache. *)
val fingerprint : t -> Hgp_util.Fingerprint.t

val pp : Format.formatter -> t -> unit
