(** Global minimum cut of an undirected weighted graph (Stoer–Wagner): a
    test oracle for the flow and generator suites. *)

(** [stoer_wagner g] returns [(value, side)] where [value] is the weight of a
    global minimum cut and [side] is the membership array of one side.
    Requires [Graph.n g >= 2] and a connected graph for a meaningful result
    (a disconnected graph yields value [0.] and one component as the side). *)
val stoer_wagner : Hgp_graph.Graph.t -> float * bool array

(** [brute_force g] enumerates all 2^(n-1) cuts; for cross-checking on tiny
    graphs ([n <= 20]). *)
val brute_force : Hgp_graph.Graph.t -> float * bool array
