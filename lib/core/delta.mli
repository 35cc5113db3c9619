(** Typed edit logs against an {!Instance} — the entry point of the
    incremental solve path (docs/INCREMENTAL.md).

    A delta is an ordered list of edits applied sequentially.  Edits refer
    to vertices by {e working ids}: the instance's original dense ids
    [0..n-1], plus ids [n, n+1, …] for vertices appended by [Add_vertex]
    (in delta order).  Removing a vertex retires its working id — later
    edits may not mention it — but does not shift any other id; the final
    instance is re-compacted to dense ids in one pass at the end
    ({!Io.normalize_ids} with the surviving ids as the kept-vertex set, so
    vertices left isolated by edge removals survive).

    Validation failures raise {!Hgp_resilience.Hgp_error.Error} with an
    [Invalid_input] payload (context ["delta.apply"]): out-of-range or
    retired ids, self-loops, negative or non-finite weights,
    reweight/remove of an absent edge, add of a present edge, demands
    outside [(0, leaf_capacity]], or removing the last vertex. *)

type edit =
  | Reweight_edge of int * int * float
      (** [Reweight_edge (u, v, w)]: set the weight of existing edge
          [{u, v}] to [w >= 0.]. *)
  | Add_edge of int * int * float
      (** [Add_edge (u, v, w)]: add edge [{u, v}] (must be absent). *)
  | Remove_edge of int * int
      (** [Remove_edge (u, v)]: delete existing edge [{u, v}].  Endpoints
          survive even if this was their last edge. *)
  | Add_vertex of float * (int * float) list
      (** [Add_vertex (d, nbrs)]: append a vertex with demand [d] and
          edges to the (distinct, live) vertices in [nbrs].  The new
          vertex gets the next unused working id. *)
  | Remove_vertex of int
      (** [Remove_vertex v]: delete [v] and every incident edge. *)

type t = edit list

(** [apply inst delta] is the post-delta instance (same hierarchy). *)
val apply : Instance.t -> t -> Instance.t

(** [apply_mapped inst delta] additionally returns the map from each
    {e original} vertex id to its id in the new instance, or [-1] if the
    vertex was removed.  Used for churn accounting by the session's
    [Hgp_multilevel.Vcycle.resolve_delta]. *)
val apply_mapped : Instance.t -> t -> Instance.t * int array

(** [is_reweight_only delta] is true when every edit is [Reweight_edge] —
    the structure-preserving case a session re-solves incrementally
    ([Hgp_multilevel.Vcycle.resolve_delta]); other deltas re-solve the
    session from scratch. *)
val is_reweight_only : t -> bool

(** {1 Text format}

    One edit per line, after a [%hgp-delta 1] header; blank lines and
    [#] comments are skipped:
    {v
    %hgp-delta 1
    reweight U V W
    add-edge U V W
    remove-edge U V
    add-vertex D [U W]...
    remove-vertex V
    v} *)

(** [to_string delta] renders the text format (17-digit floats, so a
    round-trip is exact). *)
val to_string : t -> string

(** [of_string s] parses the text format.
    @raise Hgp_resilience.Hgp_error.Error ([Parse _], context ["delta"])
    with a 1-based line number on malformed input. *)
val of_string : string -> t

(** [load path] parses the file [path] ([Io_error] if it cannot be read). *)
val load : string -> t
