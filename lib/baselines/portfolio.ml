module Hierarchy = Hgp_hierarchy.Hierarchy
module Instance = Hgp_core.Instance
module Cost = Hgp_core.Cost
module Solver = Hgp_core.Solver
module Obs = Hgp_obs.Obs

type entry = {
  name : string;
  assignment : int array;
  cost : float;
  violation : float;
}

type result = {
  best : entry;
  entries : entry list;
}

let solve ?(solver_options = Solver.default_options) ?(include_hgp = true) rng
    (inst : Instance.t) ~slack ~refine_passes =
  let k = Hierarchy.num_leaves inst.hierarchy in
  let capacity = slack *. Hierarchy.leaf_capacity inst.hierarchy in
  let candidates =
    [
      ("greedy", fun () -> Placement.greedy inst ~slack ());
      ( "kbgp+map",
        fun () ->
          let parts =
            (Multilevel.partition rng inst.graph ~demands:inst.demands ~k ~capacity).parts
          in
          Mapping.optimize inst ~parts ~k );
      ("dual-recursive", fun () -> Recursive_bisection.assign rng inst ~slack);
    ]
    @
    if include_hgp then
      [ ("hgp", fun () -> (Solver.solve ~options:solver_options inst).assignment) ]
    else []
  in
  let entries =
    List.map
      (fun (name, f) ->
        Obs.span ("portfolio.candidate." ^ name) @@ fun () ->
        let raw = f () in
        let repaired, _ = Local_search.repair inst raw ~slack in
        let refined, _ =
          Local_search.refine inst repaired ~slack ~max_passes:refine_passes
        in
        {
          name;
          assignment = refined;
          cost = Cost.assignment_cost inst refined;
          violation = Cost.max_violation inst refined;
        })
      candidates
  in
  let entries = List.sort (fun a b -> compare a.cost b.cost) entries in
  let within = List.filter (fun e -> e.violation <= slack +. 1e-9) entries in
  let best =
    match within with
    | e :: _ -> e
    | [] ->
      List.fold_left
        (fun acc e -> if e.violation < acc.violation then e else acc)
        (List.hd entries) entries
  in
  { best; entries }

let ladder ~slack ~seed =
  [
    ( "portfolio",
      fun inst ->
        (solve ~include_hgp:false (Hgp_util.Prng.create seed) inst ~slack ~refine_passes:2)
          .best
          .assignment );
    ( "recursive-bisection",
      fun inst -> Recursive_bisection.assign (Hgp_util.Prng.create seed) inst ~slack );
  ]
