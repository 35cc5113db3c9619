module Lru = Hgp_util.Lru
module Obs = Hgp_obs.Obs

type ('k, 'v) t = {
  lru : ('k, 'v) Lru.t;
  lock : Mutex.t;
  (* per-cache counter names, built once so a lookup allocates none *)
  hit : string;
  miss : string;
  evict : string;
}

type registered = {
  name : string;
  stats : unit -> Lru.stats;
  clear : unit -> unit;
  reset : unit -> unit;
}

let enabled = Atomic.make true
let set_enabled b = Atomic.set enabled b
let active () = Atomic.get enabled && Faults.armed () = None

(* newest first *)
let registry : registered list ref = ref []
let registry_lock = Mutex.create ()

let create ~name ~capacity =
  let t =
    {
      lru = Lru.create ~capacity;
      lock = Mutex.create ();
      hit = "cache." ^ name ^ ".hit";
      miss = "cache." ^ name ^ ".miss";
      evict = "cache." ^ name ^ ".evict";
    }
  in
  let locked f () = Mutex.protect t.lock (fun () -> f t.lru) in
  let r =
    { name; stats = locked Lru.stats; clear = locked Lru.clear; reset = locked Lru.reset_stats }
  in
  Mutex.protect registry_lock (fun () -> registry := r :: !registry);
  t

let find t k =
  if not (active ()) then None
  else begin
    let r = Mutex.protect t.lock (fun () -> Lru.find t.lru k) in
    (match r with
    | Some _ ->
      Obs.count "cache.hit" 1;
      Obs.count t.hit 1
    | None ->
      Obs.count "cache.miss" 1;
      Obs.count t.miss 1);
    r
  end

let add t k v =
  if active () then begin
    let evicted =
      Mutex.protect t.lock (fun () ->
          let before = (Lru.stats t.lru).Lru.evictions in
          Lru.add t.lru k v;
          (Lru.stats t.lru).Lru.evictions - before)
    in
    if evicted > 0 then begin
      Obs.count "cache.evict" evicted;
      Obs.count t.evict evicted
    end
  end

let registered () = List.rev (Mutex.protect registry_lock (fun () -> !registry))
let clear_all () = List.iter (fun r -> r.clear ()) (registered ())
let stats_all () = List.map (fun r -> (r.name, r.stats ())) (registered ())
let reset_all () = List.iter (fun r -> r.reset ()) (registered ())
