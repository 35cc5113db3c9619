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
    @raise Hgp_resilience.Hgp_error.Error ([Invalid_input _], its message
    led by the line number, counted from [first_line] (default 1)) on
    malformed input or a header/content mismatch. *)
val of_string : ?first_line:int -> string -> Graph.t

(** [save g path] writes [to_string g] to [path]. *)
val save : Graph.t -> string -> unit

(** [load path] reads a graph from [path]. *)
val load : string -> Graph.t

(** [to_edge_list_string g] renders one ["u v w"] line per edge (0-based). *)
val to_edge_list_string : Graph.t -> string

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

(** [of_edge_list_string s] parses the edge-list format.  By default ids are
    taken literally and the vertex count is one plus the largest mentioned
    id, so sparse ids produce isolated padding vertices; pass
    [~normalize:true] to compact ids via {!normalize_ids} instead.
    @raise Hgp_resilience.Hgp_error.Error ([Invalid_input _]) on a negative
    id. *)
val of_edge_list_string : ?normalize:bool -> string -> Graph.t
