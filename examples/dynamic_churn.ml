(* Online placement under churn: operators of a streaming system arrive and
   depart, and an exact session (a V-cycle whose threshold is [max_int], so
   it never coarsens) absorbs each event as a one-edit delta (Add_vertex or
   Remove_vertex) through [resolve_delta], the incremental path the CLI and
   the server serve.  Every update is bit-identical to a
   cold solve of the new instance and is re-certified, so one event may
   move many tasks: the churn column is the fraction that moved.  A
   departure may disconnect the task graph; the session solves it as
   given.

   Run with:  dune exec examples/dynamic_churn.exe *)

module H = Hgp_hierarchy.Hierarchy
module Graph = Hgp_graph.Graph
module Instance = Hgp_core.Instance
module Delta = Hgp_core.Delta
module Solver = Hgp_core.Solver
module Vcycle = Hgp_multilevel.Vcycle
module Prng = Hgp_util.Prng

let () =
  let hy = H.Presets.dual_socket in
  let rng = Prng.create 77 in
  let options =
    {
      Vcycle.default_options with
      threshold = max_int;
      solver = { Solver.default_options with ensemble_size = 2 };
    }
  in
  (* Start from a short pipeline of four operators. *)
  let g = Graph.of_edges 4 [ (0, 1, 5.); (1, 2, 5.); (2, 3, 5.) ] in
  let session, _ =
    Vcycle.start_session ~options (Instance.create g ~demands:(Array.make 4 0.2) hy)
  in
  let updates = ref 0 and certified = ref 0 and moved = ref 0. in
  Format.printf "churning 120 events on %a@.@." H.pp hy;
  Format.printf "%6s  %6s  %10s  %9s  %6s@." "event" "tasks" "cost" "violation" "churn";
  for step = 1 to 120 do
    (* Vertex ids follow arrival order, so the newest operators hold the
       highest ids. *)
    let n = Instance.n (Vcycle.session_instance session) in
    let delta =
      if n > 2 && Prng.float rng 1.0 < 0.35 then [ Delta.Remove_vertex (Prng.int rng n) ]
      else
        (* New operators talk to a few recent ones (pipeline locality). *)
        let peers = List.init (min n 3) (fun i -> (n - 1 - i, 2. +. Prng.float rng 8.)) in
        [ Delta.Add_vertex (0.1 +. Prng.float rng 0.3, peers) ]
    in
    let r = Vcycle.resolve_delta session delta in
    incr updates;
    if r.u_certified then incr certified;
    moved := !moved +. r.u_churn;
    if step mod 20 = 0 then
      Format.printf "%6d  %6d  %10.1f  %9.2f  %6.2f@." step
        (Instance.n (Vcycle.session_instance session))
        r.u_result.solution.cost r.u_result.solution.max_violation r.u_churn
  done;
  Format.printf "@.%d updates, %d certified, mean churn %.2f@." !updates !certified
    (!moved /. float_of_int !updates)
