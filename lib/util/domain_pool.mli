(** A reusable pool of worker domains for per-solve task batches.

    [Domain.spawn] costs hundreds of microseconds (thread + minor heap + GC
    registration); paying it for every ensemble member of every solve is
    wasteful once solves repeat.  A pool spawns its workers once — lazily, on
    the first batch that has work for them — and reuses them for the life of
    the process.

    Semantics are tailored to the solver's needs:

    - {b fixed lanes}: a pool of [size] workers has [size + 1] lanes.  Task
      [i] of a batch runs on lane [i mod (size + 1)], in index order within
      its lane; lane 0 is the submitting domain itself, lane [j >= 1] is
      worker [j].  Which domain (and so which domain-local workspace) runs
      which task therefore never depends on timing.
    - {b per-slot fault capture}: a task that raises fills its slot with
      [Error exn]; other slots are unaffected — the per-tree isolation
      contract of the supervised solve.
    - {b the caller works}: [run_batch] runs lane 0 on the caller, then
      waits for the other lanes; it returns only when every slot is filled,
      so no task of a batch ever outlives the call.
    - {b re-entrancy is per pool}: a worker of pool [P] that calls
      [run_batch P] runs that inner batch inline on its own domain instead
      of deadlocking on its own mailbox.  A worker of another pool fans the
      batch out like any other caller.  Pools must not submit to each other
      in a cycle.

    Tasks see the domain-local state of the domain they run on: telemetry
    spans opened by a task on a worker have no parent unless the submitter
    carries one in ({!Hgp_obs.Obs.propagate}).  Workers never hold results
    or task closures between batches, so nothing is retained after
    [run_batch] returns. *)

type t

(** [create ~size] makes an independent pool of at most [size] workers
    ([size >= 0]; a pool of size 0 runs every batch inline on the caller).
    Workers are spawned on demand, never eagerly. *)
val create : size:int -> t

(** The process-wide pool of [recommended_domain_count () - 1] workers, so
    that a batch keeps every core busy with the caller on lane 0.  On a
    one-core host it has no worker and runs every batch inline.  Created on
    first use; joined automatically at process exit. *)
val shared : unit -> t

(** Number of worker lanes (the [size] given to {!create}). *)
val size : t -> int

(** Workers actually spawned so far. *)
val spawned : t -> int

(** [run_batch t tasks] runs every task to completion and returns one
    [Ok result] or [Error exn] per slot, in order.  At most [size t + 1]
    tasks run at once, one per lane.  Runs inline, in index order, when
    the batch has one task, when the pool has size 0 or is shut down, or
    when called from one of [t]'s own workers; a lane whose worker cannot
    be spawned runs on the caller after lane 0. *)
val run_batch : t -> (unit -> 'a) array -> ('a, exn) result array

(** [shutdown t] stops and joins all workers; the pool runs inline
    afterwards.  Idempotent.  Called automatically for {!shared} at exit. *)
val shutdown : t -> unit
