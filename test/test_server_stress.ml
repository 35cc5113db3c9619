(* Concurrency stress/soak layer for the shared infrastructure under the
   batch solve service: the (externally locked) LRU caches, the shared
   worker-domain pool, and the server's duplicate-coalescing drain.

   These tests hammer the structures from 4+ concurrent domains with mixed
   insert/lookup/evict traffic and a crash mid-storm, then assert the
   invariants that the service depends on: no corrupted values, stats that
   sum exactly (hits + misses = lookups), occupancy within capacity, crash
   isolation per slot, and bit-identical solutions for duplicate requests
   both within one drain and across warm re-drains. *)

module Lru = Hgp_util.Lru
module Domain_pool = Hgp_util.Domain_pool
module Prng = Hgp_util.Prng
module Gen = Hgp_graph.Generators
module H = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Pipeline = Hgp_core.Pipeline
module Protocol = Hgp_server.Protocol
module Server = Hgp_server.Server
module Hgp_error = Hgp_resilience.Hgp_error

let domains = 4
let ops_per_domain = 20_000

(* The value stored for key [k]; a torn or crossed read would break it. *)
let value_of k = (k * 31) + 7

(* One storm domain: a deterministic mix of finds and adds against a shared
   cache, counting its own lookups.  [crash_at = Some n] raises after n ops
   (the mid-storm crash-slot test). *)
let storm ?crash_at ~cache ~lock ~seed ~lookups () =
  let rng = Prng.create seed in
  for op = 1 to ops_per_domain do
    (match crash_at with
    | Some n when op = n -> failwith "storm crash"
    | _ -> ());
    let k = Prng.int rng 64 in
    Mutex.lock lock;
    (if Prng.int rng 100 < 60 then begin
       incr lookups;
       match Lru.find cache k with
       | None -> ()
       | Some v -> if v <> value_of k then (Mutex.unlock lock; Alcotest.failf "corrupt value for %d: %d" k v)
     end
     else Lru.add cache k (value_of k));
    Mutex.unlock lock
  done

let test_lru_storm () =
  let cache = Lru.create ~capacity:16 in
  let lock = Mutex.create () in
  let lookups = Array.init domains (fun _ -> ref 0) in
  let pool = Domain_pool.create ~size:domains in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let slots =
        Domain_pool.run_batch pool
          (Array.init domains (fun d () ->
               storm ~cache ~lock ~seed:(1000 + d) ~lookups:lookups.(d) ()))
      in
      Array.iteri
        (fun d r ->
          match r with
          | Ok () -> ()
          | Error e -> Alcotest.failf "storm domain %d died: %s" d (Printexc.to_string e))
        slots;
      let total_lookups = Array.fold_left (fun a r -> a + !r) 0 lookups in
      let st = Lru.stats cache in
      Alcotest.(check int) "hits + misses = lookups" total_lookups
        (st.Lru.hits + st.Lru.misses);
      Alcotest.(check bool) "some of each" true (st.Lru.hits > 0 && st.Lru.misses > 0);
      Alcotest.(check bool) "occupancy within capacity" true
        (st.Lru.entries <= 16 && st.Lru.entries = Lru.length cache);
      Alcotest.(check bool) "evictions happened under pressure" true
        (st.Lru.evictions > 0);
      (* Every surviving entry is intact. *)
      for k = 0 to 63 do
        match Lru.find cache k with
        | Some v -> Alcotest.(check int) "intact value" (value_of k) v
        | None -> ()
      done)

let test_crash_slot_mid_storm () =
  (* Domain 2 crashes a third of the way in; its slot reports the error, the
     other three storms complete, the cache stays consistent, and the SAME
     pool then runs a clean follow-up batch (recovery). *)
  let cache = Lru.create ~capacity:8 in
  let lock = Mutex.create () in
  let lookups = Array.init domains (fun _ -> ref 0) in
  let pool = Domain_pool.create ~size:domains in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let slots =
        Domain_pool.run_batch pool
          (Array.init domains (fun d () ->
               storm
                 ?crash_at:(if d = 2 then Some (ops_per_domain / 3) else None)
                 ~cache ~lock ~seed:(2000 + d) ~lookups:lookups.(d) ()))
      in
      Array.iteri
        (fun d r ->
          match (d, r) with
          | 2, Error (Failure m) when m = "storm crash" -> ()
          | 2, Ok () -> Alcotest.fail "slot 2 should have crashed"
          | 2, Error e -> Alcotest.failf "slot 2 wrong error: %s" (Printexc.to_string e)
          | _, Ok () -> ()
          | d, Error e ->
            Alcotest.failf "sibling %d infected by crash: %s" d (Printexc.to_string e))
        slots;
      let st = Lru.stats cache in
      let total_lookups = Array.fold_left (fun a r -> a + !r) 0 lookups in
      Alcotest.(check int) "stats exact despite the crash" total_lookups
        (st.Lru.hits + st.Lru.misses);
      Alcotest.(check bool) "occupancy within capacity" true (st.Lru.entries <= 8);
      (* Recovery: the pool is reusable after a crashed slot. *)
      let again = Domain_pool.run_batch pool (Array.init domains (fun d () -> d * d)) in
      Array.iteri
        (fun d r ->
          match r with
          | Ok v -> Alcotest.(check int) "post-crash batch ok" (d * d) v
          | Error e -> Alcotest.failf "post-crash batch: %s" (Printexc.to_string e))
        again)

let test_concurrent_batches_on_shared_pool () =
  (* Several spawner domains drive run_batch on ONE pool at once — the
     service shape: concurrent drains share workers.  Every batch must get
     exactly its own results back. *)
  let pool = Domain_pool.create ~size:domains in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let spawners =
        Array.init 3 (fun s ->
            Domain.spawn (fun () ->
                let ok = ref true in
                for round = 0 to 19 do
                  let tasks = Array.init 8 (fun i () -> (s * 10_000) + (round * 100) + i) in
                  let slots = Domain_pool.run_batch pool tasks in
                  Array.iteri
                    (fun i r ->
                      match r with
                      | Ok v -> if v <> (s * 10_000) + (round * 100) + i then ok := false
                      | Error _ -> ok := false)
                    slots
                done;
                !ok))
      in
      Array.iteri
        (fun s d ->
          Alcotest.(check bool) (Printf.sprintf "spawner %d saw only its results" s) true
            (Domain.join d))
        spawners)

(* ---- duplicate in-flight requests through the server ---- *)

let hy () = H.create ~degs:[| 2; 2 |] ~cm:[| 10.; 3.; 0. |] ~leaf_capacity:1.0

let mk_instance seed =
  let rng = Prng.create seed in
  let g = Gen.gnp_connected rng 12 0.4 in
  Instance.uniform_demands g (hy ()) ~load_factor:0.6

let solved (r : Protocol.response) =
  match r.Protocol.outcome with
  | Protocol.Solved s -> s
  | Protocol.Updated _ ->
    Alcotest.failf "request %s answered as an update" r.Protocol.id
  | Protocol.Failed e ->
    Alcotest.failf "request %s failed: %s" r.Protocol.id (Hgp_error.to_string e)

let test_duplicate_requests_under_storm () =
  (* 4 distinct instances x 4 in-flight duplicates over 4 workers, twice.
     Within a drain duplicates must be bit-identical; the second (warm)
     drain must reproduce the first bit-for-bit and be served from the
     packed cache. *)
  Pipeline.clear_caches ();
  Pipeline.reset_cache_stats ();
  let server =
    Server.create ~config:{ Server.workers = domains; queue_limit = 64; slack = 1.25 } ()
  in
  let submit_round () =
    for dup = 0 to 3 do
      for i = 0 to 3 do
        match
          Server.submit_any server
            (Protocol.Solve
               (Protocol.inline_request
                  ~id:(Printf.sprintf "i%d-d%d" i dup)
                  ~trees:2 ~seed:(50 + i) (mk_instance (50 + i))))
        with
        | `Admitted -> ()
        | `Rejected r ->
          Alcotest.failf "unexpected rejection: %s" (Protocol.response_to_line r)
      done
    done;
    Server.drain server
  in
  let first = submit_round () in
  let second = submit_round () in
  Alcotest.(check int) "16 responses" 16 (List.length first);
  let assignment_of responses id =
    match List.find_opt (fun (r : Protocol.response) -> r.Protocol.id = id) responses with
    | Some r -> (solved r).Protocol.assignment
    | None -> Alcotest.failf "missing response %s" id
  in
  for i = 0 to 3 do
    let leader = assignment_of first (Printf.sprintf "i%d-d0" i) in
    for dup = 1 to 3 do
      Alcotest.(check bool) "duplicates bit-identical in flight" true
        (assignment_of first (Printf.sprintf "i%d-d%d" i dup) = leader)
    done;
    (* Across drains: warm equals cold. *)
    for dup = 0 to 3 do
      Alcotest.(check bool) "warm re-drain bit-identical" true
        (assignment_of second (Printf.sprintf "i%d-d%d" i dup) = leader)
    done
  done;
  (* The second drain's leaders hit the packed cache: every response of the
     warm round is a cache hit. *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "warm round all cache hits" true (solved r).Protocol.cache_hit)
    second;
  let st = Server.stats server in
  Alcotest.(check int) "all ok" 32 st.Server.ok;
  Alcotest.(check int) "coalesced 3 followers x 4 keys x 2 drains" 24 st.Server.coalesced;
  Alcotest.(check int) "response conservation" st.Server.admitted
    (st.Server.ok + st.Server.errors);
  ignore (Server.shutdown server)

let () =
  Alcotest.run "server_stress"
    [
      ( "storm",
        [
          Alcotest.test_case "lru storm" `Quick test_lru_storm;
          Alcotest.test_case "crash slot mid-storm" `Quick test_crash_slot_mid_storm;
          Alcotest.test_case "concurrent batches" `Quick test_concurrent_batches_on_shared_pool;
          Alcotest.test_case "duplicate requests" `Quick test_duplicate_requests_under_storm;
        ] );
    ]
