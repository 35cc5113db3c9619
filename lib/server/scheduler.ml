module Fingerprint = Hgp_util.Fingerprint
module Domain_pool = Hgp_util.Domain_pool
module Obs = Hgp_obs.Obs

type stats = { steals : int; per_shard : int array }

let shard_of_fingerprint (fp : Fingerprint.t) ~shards =
  if shards < 1 then invalid_arg "Scheduler.shard_of_fingerprint: shards < 1";
  Int64.to_int (Int64.rem (Int64.logand fp Int64.max_int) (Int64.of_int shards))

(* A shard's home queue: indices into the item array, sorted by priority at
   dispatch (the batch is fully known up front, so no heap is needed).  The
   owner takes from the front, thieves from the back. *)
type deque = {
  lock : Mutex.t;
  items : int array;
  mutable front : int;
  mutable back : int;  (* exclusive *)
}

let take_front d =
  Mutex.lock d.lock;
  let r =
    if d.front < d.back then begin
      let i = d.items.(d.front) in
      d.front <- d.front + 1;
      Some i
    end
    else None
  in
  Mutex.unlock d.lock;
  r

let take_back d =
  Mutex.lock d.lock;
  let r =
    if d.front < d.back then begin
      d.back <- d.back - 1;
      Some d.items.(d.back)
    end
    else None
  in
  Mutex.unlock d.lock;
  r

let run ~pool ~shards ~shard_of ~priority_of ~f items =
  let n = Array.length items in
  if n = 0 then ([||], { steals = 0; per_shard = [||] })
  else begin
    let shards = max 1 (min shards n) in
    (* Partition into home shards, preserving submission order per shard. *)
    let buckets = Array.make shards [] in
    for i = n - 1 downto 0 do
      let s = shard_of_fingerprint (shard_of items.(i)) ~shards in
      buckets.(s) <- i :: buckets.(s)
    done;
    let per_shard = Array.map List.length buckets in
    let deques =
      Array.map
        (fun idxs ->
          (* Higher priority first; [stable_sort] keeps submission order
             inside a priority class. *)
          let sorted =
            List.stable_sort
              (fun a b -> compare (priority_of items.(b)) (priority_of items.(a)))
              idxs
          in
          let arr = Array.of_list sorted in
          { lock = Mutex.create (); items = arr; front = 0; back = Array.length arr })
        buckets
    in
    let results = Array.make n None in
    let steals = Atomic.make 0 in
    let exec i =
      let r = try Ok (f items.(i)) with exn -> Error exn in
      results.(i) <- Some r
    in
    let runner s () =
      let rec own () =
        match take_front deques.(s) with
        | Some i ->
          exec i;
          own ()
        | None -> steal 1
      and steal d =
        if d < shards then begin
          match take_back deques.((s + d) mod shards) with
          | Some i ->
            Atomic.incr steals;
            exec i;
            (* Sweep again from the top: re-checking the (empty) home queue
               is one mutex op, and the next theft should again prefer the
               nearest sibling. *)
            own ()
          | None -> steal (d + 1)
        end
      in
      own ()
    in
    let slots = Domain_pool.run_batch pool (Obs.propagate (Array.init shards runner)) in
    (* A runner slot only errors if the runner itself died outside the
       per-item fence — surface that instead of silently losing items. *)
    Array.iter (function Ok () -> () | Error exn -> raise exn) slots;
    let stolen = Atomic.get steals in
    if stolen > 0 then Obs.count "server.steals" stolen;
    let results =
      Array.map
        (function
          | Some r -> r
          | None -> Error (Failure "Scheduler.run: item never executed"))
        results
    in
    (results, { steals = stolen; per_shard })
  end
