module Tree = Hgp_tree.Tree
module Levels = Hgp_core.Levels

type t = {
  family : Laminar.family;
  h : int;
}

let laminar_family t ~kappa ~h =
  Array.init (h + 1) (fun j ->
      let comp, n_comps = Levels.components t ~kappa ~level:j in
      let buckets = Array.make n_comps [] in
      Array.iter (fun l -> buckets.(comp.(l)) <- l :: buckets.(comp.(l))) (Tree.leaves t);
      Array.of_list
        (List.filter_map
           (fun members ->
             if members = [] then None else Some (Array.of_list (List.rev members)))
           (Array.to_list buckets)))

let component_tree t ~kappa ~h =
  let per_level = Array.init (h + 1) (fun j -> Levels.components t ~kappa ~level:j) in
  Array.init h (fun j ->
      let comp_j, _ = per_level.(j) in
      let comp_j1, n_j1 = per_level.(j + 1) in
      let parent = Array.make n_j1 (-1) in
      Array.iteri (fun v cj1 -> parent.(cj1) <- comp_j.(v)) comp_j1;
      parent)

let of_kappa tree ~kappa ~h = { family = laminar_family tree ~kappa ~h; h }

let is_valid_relaxed c tree =
  let universe = Array.copy (Tree.leaves tree) in
  Array.sort compare universe;
  Array.length c.family = c.h + 1 && Laminar.is_laminar c.family ~universe

let demand_ok c ~demand_units ~cp_units =
  let ok = ref true in
  for j = 0 to c.h do
    Array.iter
      (fun set ->
        let d = Array.fold_left (fun acc l -> acc + demand_units.(l)) 0 set in
        if d > cp_units.(j) then ok := false)
      c.family.(j)
  done;
  !ok

let refinement_widths c =
  let counts = Laminar.refinement_counts c.family in
  Array.map
    (fun per_set -> List.fold_left max 0 per_set)
    counts

let definition3_cost c tree ~cm =
  let total = ref 0. in
  for j = 1 to c.h do
    let diff = (cm.(j - 1) -. cm.(j)) /. 2. in
    if diff <> 0. then
      Array.iter
        (fun set ->
          let members = Hashtbl.create (Array.length set) in
          Array.iter (fun l -> Hashtbl.replace members l ()) set;
          let w =
            Hgp_tree.Treecut.min_cut_weight tree ~in_set:(fun l -> Hashtbl.mem members l)
          in
          total := !total +. (w *. diff))
        c.family.(j)
  done;
  !total
