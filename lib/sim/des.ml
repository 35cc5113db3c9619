module H = Hgp_hierarchy.Hierarchy
module Prng = Hgp_util.Prng
module Pqueue = Hgp_util.Pqueue

type workload = {
  n_tasks : int;
  sources : (int * float) list;
  edges : (int * int * float) list;
  rates : float array;
  demands : float array;
  sinks : int list;
}

type config = {
  duration : float;
  warmup : float;
  load : float;
  comm_overhead : float;
  latency_per_cm : float;
  link_occupancy : float;
  max_queue : int;
  seed : int;
}

let default_config =
  {
    duration = 50.0;
    warmup = 5.0;
    load = 1.0;
    comm_overhead = 1e-4;
    latency_per_cm = 1e-4;
    link_occupancy = 0.;
    max_queue = 256;
    seed = 1;
  }

type metrics = {
  completed : int;
  dropped : int;
  avg_latency : float;
  p99_latency : float;
  max_core_utilization : float;
  throughput : float;
}

(* Events: the float key of the heap is the firing time. *)
type event =
  | Emit of int (* source task emits a tuple *)
  | Arrive of int * float (* tuple arrives at task; payload = birth time *)
  | Core_done of int (* core finishes its current tuple *)

type core_state = {
  mutable busy : bool;
  queue : (int * float) Queue.t; (* (task, birth) *)
  mutable busy_time : float;
  mutable busy_since : float;
}

let run w hy ~assignment cfg =
  if Array.length assignment <> w.n_tasks then invalid_arg "Des.run: assignment length";
  Array.iter
    (fun l ->
      if l < 0 || l >= H.num_leaves hy then invalid_arg "Des.run: assignment out of range")
    assignment;
  if not (cfg.duration > 0. && cfg.warmup >= 0. && cfg.load > 0.) then
    invalid_arg "Des.run: bad config";
  let rng = Prng.create cfg.seed in
  let n_cores = H.num_leaves hy in
  let cores =
    Array.init n_cores (fun _ ->
        { busy = false; queue = Queue.create (); busy_time = 0.; busy_since = 0. })
  in
  (* Input rate of each task: emission rate for sources, sum of incoming
     edge rates otherwise.  Forwarding probability edge_rate / in_rate(src)
     reproduces the average flow rates (selectivity included); service time
     demand / in_rate makes a task at nominal rate load its core by exactly
     its HGP demand. *)
  let in_rate = Array.make w.n_tasks 0. in
  List.iter (fun (_, dst, rate) -> in_rate.(dst) <- in_rate.(dst) +. rate) w.edges;
  List.iter (fun (s, rate) -> in_rate.(s) <- rate) w.sources;
  let out_edges = Array.make w.n_tasks [] in
  List.iter
    (fun (src, dst, rate) ->
      let p = if in_rate.(src) > 0. then Float.min 1.0 (rate /. in_rate.(src)) else 0. in
      out_edges.(src) <- (dst, p) :: out_edges.(src))
    w.edges;
  let service = Array.make w.n_tasks 0. in
  for v = 0 to w.n_tasks - 1 do
    service.(v) <- (if in_rate.(v) > 0. then w.demands.(v) /. in_rate.(v) else 0.)
  done;
  let is_sink = Array.make w.n_tasks false in
  List.iter (fun v -> is_sink.(v) <- true) w.sinks;
  let cm0 = Float.max (H.cm hy 0) 1e-12 in
  let comm_cpu lvl = cfg.comm_overhead *. (H.cm hy lvl /. cm0) in
  let net_latency lvl = cfg.latency_per_cm *. H.cm hy lvl in
  (* Shared links: one per internal hierarchy node; a message whose endpoints
     meet at Level-(lvl) occupies that ancestor's link exclusively for
     link_occupancy * cm(lvl)/cm(0) seconds. *)
  let h_height = H.height hy in
  let link_free =
    Array.init h_height (fun j -> Array.make (H.nodes_at_level hy j) 0.)
  in
  let cross_link now src_leaf lvl =
    if cfg.link_occupancy <= 0. || lvl >= h_height then (now, 0.)
    else begin
      let idx = H.ancestor hy ~level:lvl src_leaf in
      let occupancy = cfg.link_occupancy *. (H.cm hy lvl /. cm0) in
      let start = Float.max now link_free.(lvl).(idx) in
      link_free.(lvl).(idx) <- start +. occupancy;
      (start, occupancy)
    end
  in
  let events : event Pqueue.t = Pqueue.create () in
  let horizon = cfg.warmup +. cfg.duration in
  let completed = ref 0 and dropped = ref 0 in
  let latencies = ref [] in
  (* Seed the source emissions. *)
  List.iter
    (fun (s, rate) ->
      let rate = rate *. cfg.load in
      if rate > 0. then
        Pqueue.push events ~prio:(Prng.exponential rng ~rate) (Emit s))
    w.sources;
  let start_if_idle now core_id =
    let core = cores.(core_id) in
    if (not core.busy) && not (Queue.is_empty core.queue) then begin
      core.busy <- true;
      core.busy_since <- now;
      let task, _birth = Queue.peek core.queue in
      (* Service time includes the send overhead of the edges we will fire;
         to keep the engine single-pass we charge the base service here and
         the communication overhead at completion via the Core_done event
         time.  Sample the forwarding choices now by deferring: the actual
         forwarding happens in Core_done handling, so precompute the extra
         CPU as expected overhead — instead we simply fire Core_done after
         base service and charge comm CPU by extending busy time there. *)
      Pqueue.push events ~prio:(now +. service.(task)) (Core_done core_id)
    end
  in
  let enqueue now task birth =
    let core_id = assignment.(task) in
    let core = cores.(core_id) in
    if Queue.length core.queue >= cfg.max_queue then incr dropped
    else begin
      Queue.add (task, birth) core.queue;
      start_if_idle now core_id
    end
  in
  let rec loop () =
    if not (Pqueue.is_empty events) then begin
      let now, ev = Pqueue.pop_min events in
      if now <= horizon then begin
        (match ev with
        | Emit s ->
          enqueue now s now;
          let rate = (List.assoc s w.sources) *. cfg.load in
          Pqueue.push events ~prio:(now +. Prng.exponential rng ~rate) (Emit s)
        | Arrive (task, birth) -> enqueue now task birth
        | Core_done core_id ->
          let core = cores.(core_id) in
          let task, birth = Queue.pop core.queue in
          (* Forward downstream, paying send CPU on this core. *)
          let send_cpu = ref 0. in
          if is_sink.(task) then begin
            if now >= cfg.warmup then begin
              incr completed;
              latencies := (now -. birth) :: !latencies
            end
          end
          else
            List.iter
              (fun (dst, p) ->
                if Prng.float rng 1.0 < p then begin
                  let lvl = H.lca_level hy assignment.(task) assignment.(dst) in
                  send_cpu := !send_cpu +. comm_cpu lvl;
                  let ready = now +. !send_cpu in
                  let start, occupancy = cross_link ready assignment.(task) lvl in
                  Pqueue.push events
                    ~prio:(start +. occupancy +. net_latency lvl)
                    (Arrive (dst, birth))
                end)
              out_edges.(task);
          let free_at = now +. !send_cpu in
          core.busy_time <- core.busy_time +. (free_at -. core.busy_since);
          core.busy <- false;
          (* The send overhead occupies the core; model it by restarting the
             core only after it. *)
          if not (Queue.is_empty core.queue) then begin
            core.busy <- true;
            core.busy_since <- free_at;
            let next_task, _ = Queue.peek core.queue in
            Pqueue.push events ~prio:(free_at +. service.(next_task)) (Core_done core_id)
          end);
        loop ()
      end
    end
  in
  loop ();
  let lat = Array.of_list !latencies in
  let avg_latency = if Array.length lat = 0 then nan else Hgp_util.Stats.mean lat in
  let p99_latency = if Array.length lat = 0 then nan else Hgp_util.Stats.quantile lat 0.99 in
  let max_core_utilization =
    Array.fold_left (fun acc c -> Float.max acc (c.busy_time /. horizon)) 0. cores
  in
  {
    completed = !completed;
    dropped = !dropped;
    avg_latency;
    p99_latency;
    max_core_utilization;
    throughput = float_of_int !completed /. cfg.duration;
  }

(* ---- drifting workload: delta streams against a live placement ---- *)

module Obs = Hgp_obs.Obs
module Graph = Hgp_graph.Graph
module Instance = Hgp_core.Instance
module Delta = Hgp_core.Delta
module Pipeline = Hgp_core.Pipeline
module Vcycle = Hgp_multilevel.Vcycle
module Artifact_cache = Hgp_resilience.Artifact_cache

type drift_params = {
  steps : int;
  edits_per_step : int;
  magnitude : float;
  structural_every : int;
  cold_every : int;
}

let default_drift_params =
  { steps = 20; edits_per_step = 2; magnitude = 0.5; structural_every = 0; cold_every = 5 }

type drift_step = {
  d_step : int;
  d_edits : int;
  d_structural : bool;
  d_incr_ms : float;
  d_cold_ms : float;
  d_identical : bool;
  d_churn : float;
  d_certified : bool;
  d_resolved : int;
  d_reused : int;
}

type drift_report = {
  d_steps : drift_step list;
  d_final_n : int;
  d_mean_incr_ms : float;
  d_mean_cold_ms : float;
  d_amortized : float;
  d_all_certified : bool;
  d_all_identical : bool;
}

(* Edit stream against the CURRENT instance: reweights of distinct existing
   edges (rates drifting by up to [magnitude] relative), plus — on
   structural steps — one topology edit appended last, so a removal can
   only retire an edge the earlier reweights have already touched (the
   delta stays valid under sequential application). *)
let drift_delta rng inst ~edits ~magnitude ~structural =
  let g = inst.Instance.graph in
  let es = Graph.edges g in
  let m = Array.length es in
  let n = Graph.n g in
  let reweight idx =
    let u, v, w = es.(idx) in
    let f = 1. +. (magnitude *. ((2. *. Prng.float rng 1.) -. 1.)) in
    Delta.Reweight_edge (u, v, Float.max 1e-9 (w *. f))
  in
  let k = min edits m in
  let picks = Prng.sample_without_replacement rng ~n:m ~k in
  let reweights = Array.to_list (Array.map reweight picks) in
  if not structural then reweights
  else
    let edit =
      if Prng.bool rng && n >= 2 then begin
        (* add a chord between a probed non-adjacent pair *)
        let rec probe tries =
          if tries = 0 then reweight (Prng.int rng m)
          else
            let u = Prng.int rng n and v = Prng.int rng n in
            if u <> v && not (Graph.has_edge g u v) then
              Delta.Add_edge (min u v, max u v, 0.5 +. Prng.float rng 2.)
            else probe (tries - 1)
        in
        probe 16
      end
      else if m > 1 then begin
        (* remove an edge that is not a bridge: the exact decomposition
           requires a connected graph, so a removal that severs it would
           poison the whole stream.  One DSU pass over the other edges
           tells whether the candidate's endpoints stay connected. *)
        let keeps_connected skip =
          let parent = Array.init n Fun.id in
          let rec find x =
            if parent.(x) = x then x
            else begin
              parent.(x) <- find parent.(x);
              parent.(x)
            end
          in
          Array.iteri
            (fun i (u, v, _) ->
              if i <> skip then begin
                let a = find u and b = find v in
                if a <> b then parent.(a) <- b
              end)
            es;
          let u, v, _ = es.(skip) in
          find u = find v
        in
        let rec probe tries =
          if tries = 0 then reweight (Prng.int rng m)
          else
            let i = Prng.int rng m in
            if keeps_connected i then
              let u, v, _ = es.(i) in
              Delta.Remove_edge (u, v)
            else probe (tries - 1)
        in
        probe 8
      end
      else reweight 0
    in
    reweights @ [ edit ]

let run_drift ?(params = default_drift_params) rng inst options =
  let ms t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6 in
  let sess, _ = Vcycle.start_session ~options inst in
  (* Cache-independent cold oracle: switching caching off bypasses every
     artifact cache, the coarsening-chain cache included, while leaving
     the session's subtree snapshots in place. *)
  let cold_solve inst' =
    Artifact_cache.set_enabled false;
    Fun.protect
      ~finally:(fun () -> Artifact_cache.set_enabled true)
      (fun () -> (Vcycle.solve ~options inst').Vcycle.solution.Pipeline.assignment)
  in
  let steps = ref [] in
  for step = 1 to params.steps do
    let structural =
      params.structural_every > 0 && step mod params.structural_every = 0
    in
    let delta =
      drift_delta rng (Vcycle.session_instance sess) ~edits:params.edits_per_step
        ~magnitude:params.magnitude ~structural
    in
    let t0 = Obs.now_ns () in
    let r = Vcycle.resolve_delta sess delta in
    let incr_ms = ms t0 (Obs.now_ns ()) in
    let cold_ms, identical =
      if params.cold_every > 0 && step mod params.cold_every = 0 then begin
        let c0 = Obs.now_ns () in
        let cold = cold_solve (Vcycle.session_instance sess) in
        (ms c0 (Obs.now_ns ()), cold = Vcycle.session_assignment sess)
      end
      else (nan, true)
    in
    steps :=
      {
        d_step = step;
        d_edits = List.length delta;
        d_structural = structural;
        d_incr_ms = incr_ms;
        d_cold_ms = cold_ms;
        d_identical = identical;
        d_churn = r.Vcycle.u_churn;
        d_certified = r.Vcycle.u_certified;
        d_resolved = r.Vcycle.u_resolved_subtrees;
        d_reused = r.Vcycle.u_reused_subtrees;
      }
      :: !steps
  done;
  let steps = List.rev !steps in
  let mean f xs = match xs with [] -> nan | _ -> List.fold_left (fun a x -> a +. f x) 0. xs /. float_of_int (List.length xs) in
  let sampled = List.filter (fun s -> Float.is_finite s.d_cold_ms) steps in
  let d_mean_incr_ms = mean (fun s -> s.d_incr_ms) steps in
  let d_mean_cold_ms = mean (fun s -> s.d_cold_ms) sampled in
  {
    d_steps = steps;
    d_final_n = Instance.n (Vcycle.session_instance sess);
    d_mean_incr_ms;
    d_mean_cold_ms;
    d_amortized = d_mean_incr_ms /. d_mean_cold_ms;
    d_all_certified = List.for_all (fun s -> s.d_certified) steps;
    d_all_identical = List.for_all (fun s -> s.d_identical) steps;
  }
