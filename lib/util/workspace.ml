(* Per-domain pools of DP scratch arenas.

   One workspace per domain, handed out through [Domain.DLS]: the pool
   workers of [Domain_pool] each lazily materialise their own on first DP
   solve and keep it for the domain's lifetime, so parallel ensemble solves
   never share scratch and never reallocate it.  A re-entrant acquire (a
   solve nested inside a solve on the same domain) falls back to a fresh
   transient workspace rather than corrupting the one in use. *)

type t = {
  tbl : Arena.Table.t;  (* merge accumulator: key -> cost + back payload *)
  node_keys : Arena.Ibuf.t;  (* packed per-node state tables: keys *)
  node_costs : Arena.Fbuf.t;  (* packed per-node state tables: costs *)
  back_store : Arena.Ibuf.t;  (* positional backpointer segments, one packed word per state *)
  perm : Arena.Ibuf.t;  (* heap of occupied table slots for the prune scan *)
  sigs : Arena.Ibuf.t;  (* child signatures (entries x h), then packed survivor words *)
  groups : Arena.Ibuf.t;  (* child states' prefix-sorted order, group ends and leaders *)
  kept : Arena.Ibuf.t;  (* surviving table slots after pruning *)
  mutable uses : int;  (* solves served so far (feeds workspace.reuses) *)
}

let create () =
  {
    tbl = Arena.Table.create ~capacity:256 ();
    node_keys = Arena.Ibuf.create ~capacity:256 ();
    node_costs = Arena.Fbuf.create ~capacity:256 ();
    back_store = Arena.Ibuf.create ~capacity:1024 ();
    perm = Arena.Ibuf.create ~capacity:256 ();
    sigs = Arena.Ibuf.create ~capacity:256 ();
    groups = Arena.Ibuf.create ~capacity:1024 ();
    kept = Arena.Ibuf.create ~capacity:64 ();
    uses = 0;
  }

(* [note_use ws] records one solve served by [ws]; true when the workspace
   already served an earlier solve (its scratch is being reused). *)
let note_use ws =
  let reused = ws.uses > 0 in
  ws.uses <- ws.uses + 1;
  reused

(* Total growth events across members — the [workspace.grows] feed (the
   caller reports the delta over a borrow window). *)
let grows ws =
  Arena.Table.grows ws.tbl
  + Arena.Ibuf.grows ws.node_keys
  + Arena.Fbuf.grows ws.node_costs
  + Arena.Ibuf.grows ws.back_store
  + Arena.Ibuf.grows ws.perm
  + Arena.Ibuf.grows ws.sigs
  + Arena.Ibuf.grows ws.groups
  + Arena.Ibuf.grows ws.kept

(* Per-solve reset: lengths only, capacity (the whole point) is kept. *)
let reset ws =
  Arena.Table.clear ws.tbl;
  Arena.Ibuf.clear ws.node_keys;
  Arena.Fbuf.clear ws.node_costs;
  Arena.Ibuf.clear ws.back_store;
  Arena.Ibuf.clear ws.perm;
  Arena.Ibuf.clear ws.sigs;
  Arena.Ibuf.clear ws.groups;
  Arena.Ibuf.clear ws.kept

type slot = { ws : t; mutable busy : bool }

let dls_key : slot Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { ws = create (); busy = false })

type lease = { workspace : t; slot : slot option }

let acquire () =
  let s = Domain.DLS.get dls_key in
  if s.busy then { workspace = create (); slot = None }
  else begin
    s.busy <- true;
    reset s.ws;
    { workspace = s.ws; slot = Some s }
  end

let release lease = match lease.slot with Some s -> s.busy <- false | None -> ()

let with_ws f =
  let lease = acquire () in
  Fun.protect ~finally:(fun () -> release lease) (fun () -> f lease)
