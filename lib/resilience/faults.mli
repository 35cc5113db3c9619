(** Deterministic fault injection for resilience testing.

    The pipeline is instrumented with {e named sites} (see {!known_sites}).
    A {e plan} arms an action at one or more sites; when execution reaches an
    armed site the action fires:

    - [crash]: raise {!Hgp_error.Error} ([Fault_injected _]) — models a bug
      or a dead dependency at that point;
    - [delay:MS]: busy-wait [MS] milliseconds — models a stall, for
      exercising deadlines;
    - [corrupt]: the site corrupts its own data in a documented, seeded way
      (e.g. the DP zeroes one [kappa] entry, the packer drops one leaf) —
      models silent data corruption that only downstream certification can
      catch.

    Plans are fully deterministic: which hit fires is chosen by the plan
    ([@N] selects the Nth hit of that site only; default every hit; the
    per-tree DP hits of one ensemble are numbered in tree order, see
    {!reserve}), and
    which element gets corrupted is derived from the plan's seed.  Every
    fired action bumps an [Obs] counter [faults.fired.<site>].

    Grammar (also accepted from the [HGP_FAULT_PLAN] environment variable):
    {v
      plan   ::= item (";" item)*
      item   ::= "seed=" INT | SITE "=" action
      action ::= ("crash" | "delay:" FLOAT | "corrupt") ("@" INT)?
    v}
    Example: [HGP_FAULT_PLAN="seed=7;decomposition.build=crash@2"] crashes
    only the second decomposition build of the process.

    Disarmed (the default), every entry point is one atomic load. *)

type action = Crash | Delay_ms of float | Corrupt

type site_plan = { site : string; action : action; nth : int option }
type t = { seed : int; sites : site_plan list }

(** Sites wired into the pipeline; {!parse} rejects others. *)
val known_sites : string list

val parse : string -> (t, string) result

(** [arm plan] installs the plan process-wide (hit counters reset). *)
val arm : t -> unit

val disarm : unit -> unit
val armed : unit -> t option

(** The environment variable read by {!from_env}: ["HGP_FAULT_PLAN"]. *)
val env_var : string

(** [from_env ()] arms from [HGP_FAULT_PLAN] if set and non-empty.
    [Ok false] when unset, [Ok true] when armed, [Error _] on a malformed
    plan. *)
val from_env : unit -> (bool, string) result

(** [fire site] executes a pending [crash] or [delay] action at [site]
    (no-op otherwise, and for [corrupt] plans — those act through
    {!corrupt_index}). *)
val fire : string -> unit

(** [corrupt_index site ~len] is [Some i] with [0 <= i < len] exactly when a
    [corrupt] action fires at [site] ([len > 0]); the caller applies its
    documented corruption to element [i]. *)
val corrupt_index : string -> len:int -> int option

(** Hit numbers claimed ahead of a batch of tasks. *)
type reservation

(** [reserve site n] claims the next [n] hit numbers of [site] at once —
    what [n] sequential tasks that each hit [site] would have drawn. *)
val reserve : string -> int -> reservation

(** [with_hit r i f] runs [f ()]; while it runs, every hit of the reserved
    site on this domain takes the [i]-th reserved number ([0]-based) instead
    of drawing from the site's counter.  So [@N] selects the same task
    whatever order the tasks run in, and on whichever domain. *)
val with_hit : reservation -> int -> (unit -> 'a) -> 'a

(** [with_plan plan f] arms, runs [f ()], and restores the previous arming
    state even on exceptions — the test-suite workhorse. *)
val with_plan : t -> (unit -> 'a) -> 'a
