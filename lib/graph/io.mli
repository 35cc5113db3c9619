(** Graph serialization in the METIS graph-file format.

    Format: a header line [n m fmt] where [fmt = 001] marks edge weights,
    followed by one line per vertex listing [neighbor weight] pairs
    (vertices are 1-based in the file).  Comment lines start with ['%']. *)

(** [to_string g] renders [g] in METIS format with edge weights. *)
val to_string : Graph.t -> string

(** [of_string s] parses a METIS-format graph (with or without edge weights).
    After the header come exactly [n] vertex lines; an empty one is an
    isolated vertex, so [of_string (to_string g)] is [g] for every graph.
    Only ['%'] comment lines are skipped.
    @raise Hgp_resilience.Hgp_error.Error ([Invalid_input _], context
    ["io.of_string"], its message led by the line number) on malformed
    input or a header/content mismatch. *)
val of_string : string -> Graph.t

(** [read r] is {!of_string} on the lines after [r]'s current one (an
    instance file's graph section), with [r]'s line numbers. *)
val read : Hgp_resilience.Reader.t -> Graph.t

(** [normalize_ids ?vertices edges] compacts arbitrary non-negative vertex
    ids to the dense [0..k-1] range every other layer (CSR construction,
    generators, the DP) assumes, preserving ascending id order —
    normalizing an already-dense edge list is the identity.  [vertices]
    lists ids that must exist in the result even if no edge mentions them
    (isolated vertices, e.g. after an edit stream removed their last
    incident edge).  Returns the graph and the map from new id to
    original id.
    @raise Hgp_resilience.Hgp_error.Error ([Invalid_input _]) on a negative
    id. *)
val normalize_ids :
  ?vertices:int list -> (int * int * float) list -> Graph.t * int array
