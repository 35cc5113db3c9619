(* The hgp benchmark: two closed-loop workloads, one client each, over the
   V-cycle and batch-serve paths (the exact path runs inside both).

     hgpbench.exe --workload NAME --seed N --seconds S --trace 0|1

   A run sets up several times (the median is [setup_s]), then runs ops
   until [S] seconds have passed, checks every answer, and prints the
   end-to-end metrics (trace 0) or the per-layer metrics (trace 1) as the
   last line.  The traced run alternates untraced and traced ops, so the
   tracing overhead is measured against the same host phases.
   perfbench/README.md documents workloads, metrics and layers. *)

module Prng = Hgp_util.Prng
module Stats = Hgp_util.Stats
module Hierarchy = Hgp_hierarchy.Hierarchy
module Csr = Hgp_graph.Csr
module Graph = Hgp_graph.Graph
module Instance = Hgp_core.Instance
module Delta = Hgp_core.Delta
module Pipeline = Hgp_core.Pipeline
module Solver = Hgp_core.Solver
module Refine = Hgp_multilevel.Refine
module Vcycle = Hgp_multilevel.Vcycle
module Protocol = Hgp_server.Protocol
module Server = Hgp_server.Server
module Des = Hgp_sim.Des
module Stream_dag = Hgp_workloads.Stream_dag
module Obs = Hgp_obs.Obs

(* ---- harness ---- *)

(* One timed op: the latency of each request it completed, its wall time
   and the bytes it allocated. *)
type step = { lat_ms : float array; timed_ms : float; alloc_b : float }

(* A set-up workload.  [hygiene i] runs untimed before op [i]; [op ~traced i]
   runs it and returns its step and the untimed check of its answers, which
   yields [(ok, failed)] request counts; [close] releases what set-up
   opened. *)
type runner = {
  hygiene : int -> unit;
  op : traced:bool -> int -> step * (unit -> int * int);
  close : unit -> unit;
}

type workload = {
  name : string;
  prefix : int;  (** ops whose answers feed the digest; every run completes them *)
  setup : seed:int -> runner;
}

(* Times [f] as one op of one request. *)
let timed f =
  let a0 = Measure.allocated_bytes () in
  let t0 = Measure.now_ns () in
  let r = f () in
  let t1 = Measure.now_ns () in
  let alloc_b = Measure.allocated_bytes () -. a0 in
  let ms = Measure.ms_between t0 t1 in
  (r, { lat_ms = [| ms |]; timed_ms = ms; alloc_b })

let hy = Hierarchy.Presets.dual_socket

(* The workloads' inputs are pinned stream DAGs: instance [k] of a size is
   the generator's output for seed [2100 + n_sources + k] (k = 0 is the
   bench E21 instance).  Solve time and cost move by up to 1.6x and 4x
   between generator seeds, and runs with different workload seeds must
   agree within the benchmark's bounds, so the workload seed only varies
   what averages out within a run: the serve windows after the digest
   prefix.  The answers that feed the digest come from pinned inputs, so
   the digest, [cost] and [violation_max] are the same for every seed.
   perfbench/README.md gives the figures. *)
let pinned ~n_sources k =
  let rng = Prng.create (2100 + n_sources + k) in
  let w = Stream_dag.generate rng { Stream_dag.default_params with n_sources } in
  Stream_dag.to_instance w hy ~load_factor:0.6

(* [inst] with every edge weight (tuple rate) scaled by a factor drawn from
   [0.9, 1.1]: a first-time input of a known shape. *)
let jittered inst ~seed =
  let rng = Prng.create seed in
  let g = inst.Instance.graph in
  let edges =
    Array.fold_right
      (fun (u, v, x) acc -> (u, v, x *. (0.9 +. Prng.float rng 0.2)) :: acc)
      (Graph.edges g) []
  in
  Instance.create (Graph.of_edges (Graph.n g) edges) ~demands:inst.Instance.demands
    inst.Instance.hierarchy

let tally_one ok = if ok then (1, 0) else (0, 1)

(* ---- vcycle_fm_1e4: Vcycle.solve with stacked FM refinement ----

   A ~10^4-vertex stream DAG coarsened down to 32 vertices: an op takes
   ~150-250 ms, so a run holds a few hundred of them, and the coarse DP
   (~70%) and FM refinement (~25%) share it.  At the default threshold of
   128 the coarse DP alone takes ~1.1 s. *)

let vcycle_fm_1e4 =
  let setup ~seed:_ =
    let inst = pinned ~n_sources:1830 0 in
    let options =
      {
        Vcycle.default_options with
        threshold = 32;
        refine_algo = Refine.Fm { hill_climb = true };
        solver = { Solver.default_options with ensemble_size = 2 };
      }
    in
    let eps = options.Vcycle.solver.Solver.eps in
    let csr = Csr.of_graph ~vwgt:inst.Instance.demands inst.Instance.graph in
    let first = ref None in
    ignore (Vcycle.solve ~options inst);
    let op ~traced i =
      let r, step = timed (fun () -> Vcycle.solve ~options inst) in
      if traced then Layers.vcycle_result r;
      let check () =
        let a = r.Vcycle.solution.Solver.assignment in
        let ok = Answers.check ~record:(i = 0) inst a ~eps in
        let band =
          Refine.in_band csr hy a
            ~slack:r.Vcycle.coarse_certificate.Hgp_core.Verify.theorem_bound
        in
        let repeat =
          match !first with
          | None ->
            first := Some a;
            true
          | Some a0 -> a0 = a
        in
        tally_one (ok && band && repeat)
      in
      (step, check)
    in
    (* Every op starts from the same cache and heap state. *)
    let hygiene _ =
      Pipeline.clear_caches ();
      Gc.full_major ()
    in
    { hygiene; op; close = ignore }
  in
  { name = "vcycle_fm_1e4"; prefix = 1; setup }

(* ---- serve_mixed: JSON lines through parse -> submit -> drain ---- *)

let hot_pool = 6
let sessions = 2
let hot_dups_per_window = 3
let fresh_dups = 2
let serve_prefix = 3

(* What the client expects back for one line of a window. *)
type expect =
  | Hot of int  (** equal to the first answer for hot-pool input [k] *)
  | Fresh  (** a first-time solve *)
  | Follower  (** a coalesced duplicate: equal to the window's fresh answer *)
  | Update  (** a delta against a session *)

let serve_mixed =
  let setup ~seed =
    let workers = max 1 (Domain.recommended_domain_count () - 1) in
    let server = Server.create ~config:{ Server.default_config with workers } () in
    let eps = 0.25 in
    let inst = pinned ~n_sources:8 in
    let hot = Array.init hot_pool inst in
    let sess_inst = Array.init sessions (fun k -> inst (hot_pool + k)) in
    (* Every first-time solve re-weights one instance, so windows cost about
       the same and a window's latency reflects the host and the program
       rather than which input it drew. *)
    let fresh_base = inst (hot_pool + sessions) in
    let line ?session id i = Protocol.request_to_line (Protocol.inline_request ~id ?session i) in
    let hot_lines = Array.mapi (fun k i -> line (Printf.sprintf "hot%d" k) i) hot in
    (* Windows up to the digest prefix are pinned; later ones follow the seed. *)
    let pinned_rng = Prng.create 0 and seeded_rng = Prng.create seed in
    let run_lines lines =
      List.iter
        (fun l ->
          match Protocol.parse_any l with
          | Ok r -> ignore (Server.submit_any server r)
          | Error e -> failwith e)
        lines;
      Server.drain server
    in
    let opened =
      run_lines
        (Array.to_list hot_lines
        @ List.init sessions (fun k ->
              line ~session:(Printf.sprintf "s%d" k) (Printf.sprintf "open%d" k) sess_inst.(k)))
    in
    let first_hot =
      Array.init hot_pool (fun k ->
          match (List.nth opened k).Protocol.outcome with
          | Protocol.Solved s -> s.Protocol.assignment
          | _ -> failwith "serve_mixed: a hot-pool solve failed in set-up")
    in
    (* Window [w]: the lines, what each must answer, and the instance each
       answer is certified on. *)
    let window w =
      let rng, s = if w <= serve_prefix then (pinned_rng, 0) else (seeded_rng, seed) in
      let fresh = jittered fresh_base ~seed:((s * 1_000_003) + w) in
      let fresh_line = line (Printf.sprintf "f%d" w) fresh in
      let items = ref [] in
      let add l e i = items := (l, e, i) :: !items in
      add fresh_line Fresh fresh;
      for _ = 1 to fresh_dups do
        add fresh_line Follower fresh
      done;
      for j = 0 to hot_pool - 1 do
        let k = (j + w) mod hot_pool in
        add hot_lines.(k) (Hot k) hot.(k)
      done;
      for _ = 1 to hot_dups_per_window do
        let k = Prng.int rng hot_pool in
        add hot_lines.(k) (Hot k) hot.(k)
      done;
      for k = 0 to sessions - 1 do
        let d = Des.drift_delta rng sess_inst.(k) ~edits:1 ~magnitude:0.05 ~structural:false in
        sess_inst.(k) <- Delta.apply sess_inst.(k) d;
        let u =
          Protocol.update_request ~id:(Printf.sprintf "u%d.%d" w k)
            ~session:(Printf.sprintf "s%d" k) (Delta.to_string d)
        in
        add (Protocol.update_to_line u) Update sess_inst.(k)
      done;
      Array.of_list (List.rev !items)
    in
    (* Window 0 is set-up's warm-up; op [w] sends window [w + 1].  Every
       window starts from a collected heap. *)
    let pending = ref [||] in
    let hygiene w =
      pending := window (w + 1);
      Gc.full_major ()
    in
    let run_window ~traced ~w items =
      let n = Array.length items in
      let handed = Array.make n 0L in
      let parse_ms = ref 0. and submit_ms = ref 0. in
      let rejected = ref 0 in
      let stats_before = Server.stats server in
      let a0 = Measure.allocated_bytes () in
      let t0 = Measure.now_ns () in
      Array.iteri
        (fun j (l, _, _) ->
          let t = Measure.now_ns () in
          handed.(j) <- t;
          match Protocol.parse_any l with
          | Error _ -> incr rejected
          | Ok r -> (
            let t' = Measure.now_ns () in
            parse_ms := !parse_ms +. Measure.ms_between t t';
            let s = Server.submit_any server r in
            submit_ms := !submit_ms +. Measure.ms_since t';
            match s with `Admitted -> () | `Rejected _ -> incr rejected))
        items;
      let t_drain = Measure.now_ns () in
      let responses = Server.drain server in
      let t1 = Measure.now_ns () in
      let alloc_b = Measure.allocated_bytes () -. a0 in
      if traced then
        Layers.serve_window ~parse_ms:!parse_ms ~submit_ms:!submit_ms
          ~queue_ms:(Array.fold_left (fun a t -> a +. Measure.ms_between t t_drain) 0. handed)
          ~before:stats_before ~after:(Server.stats server);
      let step =
        {
          lat_ms = Array.map (fun t -> Measure.ms_between t t1) handed;
          timed_ms = Measure.ms_between t0 t1;
          alloc_b;
        }
      in
      let check () =
        let responses = Array.of_list responses in
        if !rejected > 0 || Array.length responses <> n then (0, n)
        else begin
          let fresh_answer = ref None in
          let ok = ref 0 in
          Array.iteri
            (fun j (_, e, i) ->
              let certified a = Answers.check ~record:(w < serve_prefix) i a ~eps in
              let good =
                match (e, responses.(j).Protocol.outcome) with
                | Hot k, Protocol.Solved s ->
                  s.Protocol.assignment = first_hot.(k)
                  && certified s.Protocol.assignment
                | Fresh, Protocol.Solved s ->
                  fresh_answer := Some s.Protocol.assignment;
                  certified s.Protocol.assignment
                | Follower, Protocol.Solved s ->
                  !fresh_answer = Some s.Protocol.assignment && certified s.Protocol.assignment
                | Update, Protocol.Updated u ->
                  u.Protocol.up_certified && certified u.Protocol.up_assignment
                | _ -> false
              in
              if good then incr ok)
            items;
          (!ok, n - !ok)
        end
      in
      (step, check)
    in
    ignore (run_window ~traced:false ~w:(-1) (window 0));
    let op ~traced w = run_window ~traced ~w !pending in
    let close () = ignore (Server.shutdown server) in
    { hygiene; op; close }
  in
  { name = "serve_mixed"; prefix = serve_prefix; setup }

let workloads = [ vcycle_fm_1e4; serve_mixed ]

(* ---- main ---- *)

(* Set-up runs at least [min_setups] times and until [setup_budget_s]
   seconds have passed, so a cheap set-up is sampled over more than one of
   the host's slow and fast phases; [setup_s] is the median. *)
let min_setups = 5
let max_setups = 40
let setup_budget_s = 4.

let run (wl : workload) ~seed ~seconds ~trace =
  let probe_before = Measure.probe () in
  let setup_s = ref [] in
  let runner = ref None in
  let t_setups = Measure.now_ns () in
  while
    List.length !setup_s < min_setups
    || (List.length !setup_s < max_setups && Measure.ms_since t_setups < setup_budget_s *. 1000.)
  do
    Option.iter (fun d -> d.close ()) !runner;
    runner := None;
    Pipeline.clear_caches ();
    Gc.full_major ();
    let t0 = Measure.now_ns () in
    runner := Some (wl.setup ~seed);
    setup_s := (Measure.ms_since t0 /. 1000.) :: !setup_s
  done;
  let setup_s = Array.of_list (List.rev !setup_s) in
  let d = Option.get !runner in
  Pipeline.reset_timings ();
  let untraced = ref [] and traced_lat = ref [] in
  let requests = ref 0 and alloc_b = ref 0. in
  let attempted = ref 0 and failed = ref 0 in
  let t_start = Measure.now_ns () in
  let i = ref 0 in
  let min_ops = max wl.prefix (if trace then 2 else 1) in
  while !i < min_ops || Measure.ms_since t_start < seconds *. 1000. do
    d.hygiene !i;
    let traced = trace && !i mod 2 = 1 in
    if traced then begin
      Layers.before_op ();
      Obs.enable ()
    end;
    let step, check = d.op ~traced !i in
    if traced then begin
      Obs.disable ();
      Layers.after_op ~op_ms:step.timed_ms ~requests:(Array.length step.lat_ms)
    end;
    let ok, bad = check () in
    attempted := !attempted + ok + bad;
    failed := !failed + bad;
    if traced then traced_lat := step.lat_ms :: !traced_lat
    else begin
      untraced := step.lat_ms :: !untraced;
      requests := !requests + Array.length step.lat_ms;
      alloc_b := !alloc_b +. step.alloc_b
    end;
    incr i
  done;
  let run_s = Measure.ms_since t_start /. 1000. in
  d.close ();
  let probe_after = Measure.probe () in
  let lat = Array.concat !untraced in
  let p50 = Stats.median lat in
  Printf.printf "workload %s seed %d: %d ops, %d requests (%d untimed-check failures)\n"
    wl.name seed !i !attempted !failed;
  Printf.printf "calibration probe: %.2f ms before (min %.2f), %.2f ms after (min %.2f)\n"
    (fst probe_before) (snd probe_before) (fst probe_after) (snd probe_after);
  Printf.printf "latency: p50 %.3f ms over %d untraced requests (min %.3f, q1 %.3f, q3 %.3f, max %.3f)\n"
    p50 (Array.length lat) (Stats.quantile lat 0.) (Stats.quantile lat 0.25)
    (Stats.quantile lat 0.75) (Stats.quantile lat 1.);
  let p90 = Stats.quantile lat 0.9 in
  Printf.printf "latency: p90 %.3f ms over %d untraced requests\n" p90 (Array.length lat);
  Printf.printf "throughput: %.4f requests/s over %.3f s of run wall time\n"
    (float_of_int !attempted /. run_s) run_s;
  Printf.printf "setup_s samples: %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") setup_s)));
  Printf.printf "answer digest: %s (%d answers, mean cost %.6f, violation_max %.6f)\n"
    (Hgp_util.Fingerprint.to_hex !Answers.fp) !Answers.answers (Answers.mean_cost ())
    !Answers.violation_max;
  let ok_rate = Measure.ratio (float_of_int (!attempted - !failed)) (float_of_int !attempted) in
  let metrics =
    if trace then
      Layers.metrics ~untraced_p50:p50 ~traced_p50:(Stats.median (Array.concat !traced_lat))
    else
      let m = Measure.metric in
      [
        m "latency_ms.p90" "ms" p90;
        m "setup_s" "s" (Stats.median setup_s);
        m "alloc_mb" "MB/op" (!alloc_b /. 1e6 /. float_of_int !requests);
        m "heap_peak_mb" "MB" (Measure.heap_peak_mb ());
        m "cost" "eq1" (Answers.mean_cost ());
        m "violation_max" "ratio" !Answers.violation_max;
        m "ok_rate" "ratio" ok_rate;
      ]
  in
  Measure.print_result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hgpbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline
      ("unknown workload; one of: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
    exit 2
  | Some wl -> run wl ~seed:!seed ~seconds:!seconds ~trace:(!trace <> 0)
