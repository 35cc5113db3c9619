(** Per-domain pools of DP scratch arenas.

    A workspace bundles every scratch structure the flat DP kernel of
    [Tree_dp] needs — the merge-accumulator table, packed per-node state
    and backpointer stores, the merge's prefix groups, and the slot heap
    and survivor buffers of the prune pass.  One lives on each domain (via
    [Domain.DLS]), so the worker domains of {!Domain_pool} reuse their own
    scratch across solves and parallel ensemble members never contend for
    it.

    Ownership rule: a workspace belongs to exactly one in-flight solve on
    its domain.  {!acquire} hands out the domain's resident workspace and
    marks it busy; a nested acquire on the same domain (re-entrant solve)
    gets a fresh transient workspace instead.  See docs/ARCHITECTURE.md,
    "DP kernel & workspaces". *)

type t = {
  tbl : Arena.Table.t;  (** merge accumulator: key → cost + back payload *)
  node_keys : Arena.Ibuf.t;  (** packed per-node state tables: keys *)
  node_costs : Arena.Fbuf.t;  (** packed per-node state tables: costs *)
  back_store : Arena.Ibuf.t;  (** positional backpointer segments, one packed word per state *)
  perm : Arena.Ibuf.t;  (** heap of occupied table slots for the prune scan *)
  sigs : Arena.Ibuf.t;  (** child signatures (entries × h), then packed survivor words *)
  groups : Arena.Ibuf.t;
      (** the merge's child grouping: prefix-sorted order, group ends and leaders *)
  kept : Arena.Ibuf.t;  (** surviving table slots after pruning *)
  mutable uses : int;  (** solves served so far (feeds [workspace.reuses]) *)
}

(** [create ()] builds a fresh, unpooled workspace (tests, transients). *)
val create : unit -> t

(** [note_use ws] records one solve served by [ws]; [true] when the
    workspace already served an earlier solve — the [workspace.reuses]
    feed (the consumer bumps the counter, [Hgp_util] cannot see [Obs]). *)
val note_use : t -> bool

(** Cumulative growth events across all member arenas; report the delta
    over a borrow window as the [workspace.grows] counter. *)
val grows : t -> int

(** [reset ws] clears lengths, keeping every capacity. *)
val reset : t -> unit

(** A borrow of a workspace.  [slot] is [None] for transient (re-entrant)
    borrows. *)
type lease = { workspace : t; slot : slot option }

and slot

(** [acquire ()] borrows this domain's workspace (reset, marked busy), or a
    transient one when the resident workspace is already borrowed. *)
val acquire : unit -> lease

(** [release lease] returns the workspace to its domain.  Transient leases
    release to nothing. *)
val release : lease -> unit

(** [with_ws f] is [acquire]/[release] with exception safety. *)
val with_ws : (lease -> 'a) -> 'a
