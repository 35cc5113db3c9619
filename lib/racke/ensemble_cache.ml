module Fingerprint = Hgp_util.Fingerprint
module Faults = Hgp_resilience.Faults
module Artifact_cache = Hgp_resilience.Artifact_cache

(* Ensembles are the largest artifacts we retain (O(size * n) tree nodes
   plus leaf maps); a small capacity bounds residency while still covering a
   portfolio run + retry + bench sweep over a handful of graphs. *)
let cache : (Fingerprint.t, Ensemble.t) Artifact_cache.t =
  Artifact_cache.create ~name:"ensemble" ~capacity:16

let key g ~strategy ~seed ~size =
  Hgp_graph.Graph.fingerprint g
  |> Fun.flip Fingerprint.add_string (Ensemble.strategy_name strategy)
  |> Fun.flip Fingerprint.add_int seed
  |> Fun.flip Fingerprint.add_int size

(* The lookup is itself a fault site, fired before the bypass decision so a
   plan can exercise "cache layer broken" even though armed plans otherwise
   skip the cache entirely. *)
let lookup k =
  Faults.fire "ensemble_cache.lookup";
  Artifact_cache.find cache k

let sample ~strategy ?deadline ?on_lost ~seed g ~size =
  let k = key g ~strategy ~seed ~size in
  match lookup k with
  | Some e -> e
  | None ->
    let e =
      Ensemble.sample ~strategy ?deadline ?on_lost (Hgp_util.Prng.create seed) g ~size
    in
    (* Only complete ensembles are cacheable: one that lost a tree (a failed
       build or an expired deadline) is correct for this solve but not
       bit-identical to what a healthy solve would produce. *)
    if Ensemble.size e = size then Artifact_cache.add cache k e;
    e
