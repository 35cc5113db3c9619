(* One lane per worker domain, plus lane 0 for whoever submits.  A lane's
   mailbox is guarded by the pool mutex; its domain is spawned on the first
   batch that has work for it. *)
type lane = {
  jobs : (unit -> unit) Queue.t;
  wake : Condition.t;
  mutable domain : unit Domain.t option;
}

type t = {
  id : int;
  mutex : Mutex.t;
  batch_done : Condition.t;
  lanes : lane array;  (* lanes.(j - 1) is lane j *)
  mutable stopping : bool;
}

let next_id = Atomic.make 0

(* The id of the pool whose worker this domain is, or -1.  A batch that a
   worker submits to its own pool runs inline: queuing it behind the very
   workers that are blocked on its completion would deadlock. *)
let worker_of : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let create ~size =
  if size < 0 then invalid_arg "Domain_pool.create: negative size";
  {
    id = Atomic.fetch_and_add next_id 1;
    mutex = Mutex.create ();
    batch_done = Condition.create ();
    lanes =
      Array.init size (fun _ ->
          { jobs = Queue.create (); wake = Condition.create (); domain = None });
    stopping = false;
  }

let size t = Array.length t.lanes

let spawned t =
  Mutex.lock t.mutex;
  let n = Array.fold_left (fun n l -> if l.domain = None then n else n + 1) 0 t.lanes in
  Mutex.unlock t.mutex;
  n

let worker_loop t lane () =
  Domain.DLS.set worker_of t.id;
  let rec next () =
    Mutex.lock t.mutex;
    while Queue.is_empty lane.jobs && not t.stopping do
      Condition.wait lane.wake t.mutex
    done;
    match Queue.take_opt lane.jobs with
    | None ->
      (* stopping and drained *)
      Mutex.unlock t.mutex
    | Some job ->
      Mutex.unlock t.mutex;
      job ();
      next ()
  in
  next ()

(* Called with [t.mutex] held.  Spawn failure (domain limit reached) is not
   fatal: the lane's tasks run on the submitter instead. *)
let ensure_domain t lane =
  match lane.domain with
  | Some _ -> true
  | None -> (
    match Domain.spawn (worker_loop t lane) with
    | d ->
      lane.domain <- Some d;
      true
    | exception _ -> false)

let run_inline tasks =
  Array.map (fun task -> try Ok (task ()) with exn -> Error exn) tasks

let run_batch t tasks =
  let n = Array.length tasks in
  let n_lanes = size t + 1 in
  if n <= 1 || n_lanes = 1 || Domain.DLS.get worker_of = t.id then run_inline tasks
  else begin
    let results = Array.make n (Error Exit) in
    (* Task [i] belongs to lane [i mod n_lanes], in index order within it. *)
    let run_lane l =
      let i = ref l in
      while !i < n do
        results.(!i) <- (try Ok (tasks.(!i) ()) with exn -> Error exn);
        i := !i + n_lanes
      done
    in
    let pending = ref 0 in
    let orphans = ref [] in
    Mutex.lock t.mutex;
    for l = min (n_lanes - 1) (n - 1) downto 1 do
      let lane = t.lanes.(l - 1) in
      if (not t.stopping) && ensure_domain t lane then begin
        incr pending;
        Queue.add
          (fun () ->
            run_lane l;
            Mutex.lock t.mutex;
            decr pending;
            if !pending = 0 then Condition.broadcast t.batch_done;
            Mutex.unlock t.mutex)
          lane.jobs;
        Condition.signal lane.wake
      end
      else orphans := l :: !orphans
    done;
    Mutex.unlock t.mutex;
    run_lane 0;
    List.iter run_lane !orphans;
    Mutex.lock t.mutex;
    while !pending > 0 do
      Condition.wait t.batch_done t.mutex
    done;
    Mutex.unlock t.mutex;
    results
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  let domains =
    Array.to_list t.lanes
    |> List.filter_map (fun lane ->
           Condition.signal lane.wake;
           let d = lane.domain in
           lane.domain <- None;
           d)
  in
  Mutex.unlock t.mutex;
  List.iter Domain.join domains

let shared_pool = ref None
let shared_mutex = Mutex.create ()

let shared () =
  Mutex.lock shared_mutex;
  let t =
    match !shared_pool with
    | Some t -> t
    | None ->
      let t = create ~size:(Domain.recommended_domain_count () - 1) in
      shared_pool := Some t;
      at_exit (fun () -> shutdown t);
      t
  in
  Mutex.unlock shared_mutex;
  t
