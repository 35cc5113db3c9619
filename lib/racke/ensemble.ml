module Obs = Hgp_obs.Obs
module Deadline = Hgp_resilience.Deadline
module Hgp_error = Hgp_resilience.Hgp_error

type t = { trees : Decomposition.t array }

type strategy = Pure of Decomposition.strategy | Mixed

let strategy_name = function
  | Pure s -> Decomposition.strategy_name s
  | Mixed -> "mixed"

let mixed_cycle =
  [| Decomposition.Low_diameter; Decomposition.Bfs_bisection; Decomposition.Gomory_hu |]

let sample ?(strategy = Pure Decomposition.Low_diameter) ?(deadline = Deadline.none)
    ?(on_lost = fun _ exn -> raise exn) rng g ~size =
  if size < 1 then invalid_arg "Ensemble.sample: size must be >= 1";
  let trees = ref [] in
  for i = 0 to size - 1 do
    (* Split before trying: slot [i] consumes its RNG stream whether or not
       the build survives, keeping later trees deterministic. *)
    let rng' = Hgp_util.Prng.split rng in
    let shape =
      match strategy with
      | Pure s -> s
      | Mixed -> mixed_cycle.(i mod Array.length mixed_cycle)
    in
    match
      Deadline.check deadline ~stage:"ensemble";
      (* One span per shape so a mixed ensemble reports how its sampling
         time splits across strategies. *)
      Obs.span ("ensemble.build." ^ Decomposition.strategy_name shape) (fun () ->
          Decomposition.build ~strategy:shape rng' g)
    with
    | d -> trees := d :: !trees
    | exception (Hgp_error.Error (Hgp_error.Deadline_exceeded _) as exn) -> on_lost i exn
    | exception exn ->
      on_lost i exn;
      Obs.count "ensemble.build_failures" 1
  done;
  let trees = Array.of_list (List.rev !trees) in
  Obs.count "ensemble.trees_sampled" (Array.length trees);
  { trees }

let size e = Array.length e.trees
let get e i = e.trees.(i)
let to_list e = Array.to_list e.trees

let best_of e f =
  let best = ref None in
  Array.iteri
    (fun i d ->
      let result, score = f d in
      match !best with
      | Some (_, _, s) when s <= score -> ()
      | _ -> best := Some (i, result, score))
    e.trees;
  match !best with
  | Some x -> x
  | None -> invalid_arg "Ensemble.best_of: empty ensemble"

let average_distortion e rng ~trials =
  let means =
    Array.map
      (fun d ->
        let ratios = Decomposition.distortion_sample d rng ~trials in
        if Array.length ratios = 0 then 1.0 else Hgp_util.Stats.mean ratios)
      e.trees
  in
  Hgp_util.Stats.mean means
