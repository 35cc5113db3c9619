(** Serialization of full HGP instances (graph + demands + hierarchy).

    Text format, line oriented:
    {v
    %hgp-instance 1
    hierarchy 2x4x2@100,30,8,0 capacity 1
    demands 0.5 0.25 ...
    graph
    <METIS graph text>
    v}
    Blank lines and comment lines starting with ['#'] are ignored before
    the [graph] section, which {!Hgp_graph.Io.read} reads in place.

    All parse failures raise {!Hgp_resilience.Hgp_error.Error} with a
    [Parse] payload carrying the 1-based line number (when attributable) and
    the section or field in which the problem was found; file-system
    failures in {!load} carry an [Io_error] payload.  Fault sites
    ["instance_io.parse"] and ["instance_io.load"] are wired in for
    resilience testing (see [docs/ROBUSTNESS.md]). *)

(** [to_string inst] renders the instance. *)
val to_string : Instance.t -> string

(** [of_string s] parses an instance.
    @raise Hgp_resilience.Hgp_error.Error with a [Parse] payload on
    malformed input. *)
val of_string : string -> Instance.t

(** [load path] parses the file [path] ([Io_error] if it cannot be read). *)
val load : string -> Instance.t

(** [load_any path] reads [path] once: an instance as {!load} if it starts
    with the [%hgp-instance] header, else a METIS graph. *)
val load_any : string -> [ `Instance of Instance.t | `Graph of Hgp_graph.Graph.t ]
