(** Lightweight telemetry for the Theorem-1 pipeline.

    A process-global registry of hierarchical spans (monotonic wall-clock
    timers), named counters and gauges, with pluggable sinks.  Collection is
    {e off} by default: every entry point first reads one atomic flag, so the
    instrumented hot paths pay a single branch when telemetry is disabled.

    Spans nest: {!span} pushes a frame on a domain-local stack, so a span
    started inside another span records the enclosing span's name as its
    parent, and the parent accumulates the child's wall time to compute its
    own {e self} time (total minus direct children).  Spans executed on
    another domain start from that domain's own stack; a task handed to a
    worker domain keeps its submitter's span as parent only when wrapped
    by {!propagate}.

    Aggregation is by span name: repeated executions of the same span merge
    into one {!span_stat} (count, total, self, max).  The registry is
    protected by a mutex and safe to use from multiple domains. *)

(** Key/value annotations attached to a span (last completion wins). *)
type attrs = (string * string) list

(** {1 Collection switch} *)

val enabled : unit -> bool

(** [enable ()] turns collection on process-wide. *)
val enable : unit -> unit

(** [disable ()] turns collection off; already-recorded data is kept. *)
val disable : unit -> unit

(** [reset ()] drops all recorded spans, counters and gauges. *)
val reset : unit -> unit

(** {1 Recording} *)

(** [now_ns ()] is the current monotonic clock reading in nanoseconds.
    Usable even when collection is disabled. *)
val now_ns : unit -> int64

(** [span name ?attrs f] runs [f ()], timing it when collection is enabled.
    The timing is recorded even if [f] raises.  When disabled this is
    [f ()] plus one atomic load. *)
val span : string -> ?attrs:attrs -> (unit -> 'a) -> 'a

(** [propagate tasks] wraps each task so that the spans it opens, on any
    domain, take the caller's innermost open span as their parent — the
    same parent they would have had run inline.  On the caller's own domain
    the open span also absorbs their time as child time as usual; on
    another domain it does not (that time was not spent by the caller), so
    the parent's self time includes its wait for other domains.  Identity
    when collection is disabled or no span is open. *)
val propagate : (unit -> 'a) array -> (unit -> 'a) array

(** [count name n] adds [n] to the named counter (created at 0). *)
val count : string -> int -> unit

(** [counter_value name] reads the named counter's current value ([0] when
    it has never been counted).  Works regardless of the collection switch —
    used by the resilience tests to assert which fault sites fired. *)
val counter_value : string -> int

(** [gauge name v] sets the named gauge to [v]. *)
val gauge : string -> float -> unit

(** [gauge_max name v] raises the named gauge to [v] if [v] is larger. *)
val gauge_max : string -> float -> unit

(** {1 Snapshots} *)

type span_stat = {
  name : string;
  parent : string option;  (** enclosing span at first completion *)
  count : int;  (** completions merged into this stat *)
  total_ns : int64;  (** summed wall time *)
  self_ns : int64;  (** total minus direct children's wall time *)
  max_ns : int64;  (** slowest single completion *)
  attrs : attrs;
}

type snapshot = {
  spans : span_stat list;  (** sorted by name *)
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name *)
}

(** [snapshot ()] copies the current registry contents. *)
val snapshot : unit -> snapshot

(** [ms_of_ns ns] converts to milliseconds. *)
val ms_of_ns : int64 -> float

(** {1 Sinks}

    See [docs/OBSERVABILITY.md] for the JSON-lines schema. *)

type sink =
  | Noop  (** discard — the default posture *)
  | Table  (** human-readable aligned tables (via {!Hgp_util.Tablefmt}) *)
  | Jsonl  (** one JSON object per line, machine-readable *)

(** [render sink snap] renders a snapshot to a string ([""] for {!Noop}). *)
val render : sink -> snapshot -> string

(** [emit sink oc] renders the current registry contents to [oc]. *)
val emit : sink -> out_channel -> unit

(** [sink_of_string s] parses ["json"] / ["table"] / ["noop"]. *)
val sink_of_string : string -> (sink, string) result
