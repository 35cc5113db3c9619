(* The shared domain pool's contract (lib/util/domain_pool.mli): the
   submitter works lane 0, slot faults stay in their slot, re-entrancy is
   per pool, and the task -> domain map is fixed by the lanes. *)

module Domain_pool = Hgp_util.Domain_pool

let with_pool size f =
  let pool = Domain_pool.create ~size in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) (fun () -> f pool)

let domain_id () = (Domain.self () :> int)

(* Spin until [flag] is set or [seconds] pass; true when it was set.  A
   bounded wait keeps a scheduling regression a failure instead of a
   hang. *)
let await ?(seconds = 10.) flag =
  let deadline = Int64.add (Hgp_obs.Obs.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  while (not (Atomic.get flag)) && Hgp_obs.Obs.now_ns () < deadline do
    Domain.cpu_relax ()
  done;
  Atomic.get flag

let ok_exn = function Ok v -> v | Error e -> raise e

let test_submitter_works_its_batch () =
  (* One worker, two tasks that each wait for the other to start: only a
     submitter that runs lane 0 itself lets both finish. *)
  with_pool 1 @@ fun pool ->
  let started = Array.init 2 (fun _ -> Atomic.make false) in
  let slots =
    Domain_pool.run_batch pool
      (Array.init 2 (fun i () ->
           Atomic.set started.(i) true;
           await started.(1 - i)))
  in
  Array.iteri
    (fun i slot ->
      Alcotest.(check bool) (Printf.sprintf "task %d saw its sibling start" i) true
        (ok_exn slot))
    slots

let test_slot_exceptions_stay_in_slot () =
  with_pool 2 @@ fun pool ->
  let slots =
    Domain_pool.run_batch pool
      (Array.init 7 (fun i () -> if i mod 3 = 1 then failwith (string_of_int i) else i * i))
  in
  Array.iteri
    (fun i slot ->
      match slot with
      | Ok v when i mod 3 <> 1 -> Alcotest.(check int) "sibling result" (i * i) v
      | Error (Failure m) when i mod 3 = 1 ->
        Alcotest.(check string) "its own error" (string_of_int i) m
      | Ok _ -> Alcotest.failf "slot %d should have failed" i
      | Error e -> Alcotest.failf "slot %d: %s" i (Printexc.to_string e))
    slots

let test_nested_same_pool_runs_inline () =
  (* Task 1 runs on the pool's worker; the batch it submits to the same
     pool must run inline there. *)
  with_pool 1 @@ fun pool ->
  let slots =
    Domain_pool.run_batch pool
      [|
        (fun () -> (domain_id (), []));
        (fun () ->
          let inner = Domain_pool.run_batch pool (Array.make 3 domain_id) in
          (domain_id (), Array.to_list (Array.map ok_exn inner)));
      |]
  in
  let submitter = domain_id () in
  let outer0, _ = ok_exn slots.(0) in
  let outer1, inner = ok_exn slots.(1) in
  Alcotest.(check int) "task 0 on the submitter" submitter outer0;
  Alcotest.(check bool) "task 1 on the worker" true (outer1 <> submitter);
  Alcotest.(check (list int)) "nested batch inline on the worker" [ outer1; outer1; outer1 ]
    inner

let test_other_pool_worker_fans_out () =
  (* A worker of pool A submits to pool B: B's batch runs on A's worker
     (lane 0) and B's worker (lane 1), concurrently. *)
  with_pool 1 @@ fun a ->
  with_pool 1 @@ fun b ->
  let slots =
    Domain_pool.run_batch a
      [|
        (fun () -> []);
        (fun () ->
          let started = Array.init 2 (fun _ -> Atomic.make false) in
          Domain_pool.run_batch b
            (Array.init 2 (fun i () ->
                 Atomic.set started.(i) true;
                 (domain_id (), await started.(1 - i))))
          |> Array.to_list |> List.map ok_exn);
      |]
  in
  match ok_exn slots.(1) with
  | [ (d0, both0); (d1, both1) ] ->
    Alcotest.(check bool) "two domains" true (d0 <> d1);
    Alcotest.(check bool) "ran concurrently" true (both0 && both1)
  | _ -> Alcotest.fail "expected two results"

let test_fixed_lanes () =
  (* Three lanes: task i runs on lane i mod 3 on every run, lane 0 being the
     submitter. *)
  with_pool 2 @@ fun pool ->
  let map () =
    Domain_pool.run_batch pool (Array.make 8 domain_id) |> Array.map ok_exn
  in
  let first = map () in
  Alcotest.(check int) "lane 0 is the submitter" (domain_id ()) first.(0);
  Array.iteri
    (fun i d -> Alcotest.(check int) (Printf.sprintf "task %d on lane %d" i (i mod 3)) first.(i mod 3) d)
    first;
  Alcotest.(check bool) "three distinct lanes" true
    (first.(0) <> first.(1) && first.(1) <> first.(2) && first.(0) <> first.(2));
  for run = 1 to 20 do
    Alcotest.(check (array int)) (Printf.sprintf "run %d: same map" run) first (map ())
  done

let test_inline_cases () =
  (* A size-0 pool and a one-task batch never leave the caller, and spawn
     nothing. *)
  with_pool 0 @@ fun zero ->
  with_pool 3 @@ fun three ->
  let me = domain_id () in
  Alcotest.(check (array int)) "size 0 runs inline" [| me; me; me |]
    (Array.map ok_exn (Domain_pool.run_batch zero (Array.make 3 domain_id)));
  Alcotest.(check (array int)) "one task runs inline" [| me |]
    (Array.map ok_exn (Domain_pool.run_batch three [| domain_id |]));
  Alcotest.(check int) "no worker spawned" 0
    (Domain_pool.spawned zero + Domain_pool.spawned three)

let () =
  Alcotest.run "domain_pool"
    [
      ( "pool",
        [
          Alcotest.test_case "submitter works lane 0" `Quick test_submitter_works_its_batch;
          Alcotest.test_case "slot exceptions stay in slot" `Quick
            test_slot_exceptions_stay_in_slot;
          Alcotest.test_case "nested same-pool submit inline" `Quick
            test_nested_same_pool_runs_inline;
          Alcotest.test_case "other pool's worker fans out" `Quick
            test_other_pool_worker_fans_out;
          Alcotest.test_case "fixed lanes" `Quick test_fixed_lanes;
          Alcotest.test_case "inline cases" `Quick test_inline_cases;
        ] );
    ]
