module Obs = Hgp_obs.Obs

type action = Crash | Delay_ms of float | Corrupt

type site_plan = { site : string; action : action; nth : int option }
type t = { seed : int; sites : site_plan list }

let known_sites =
  [
    "instance_io.parse";
    "instance_io.load";
    "demand.quantize";
    "decomposition.build";
    "ensemble_cache.lookup";
    "tree_dp.solve";
    "feasible.pack";
  ]

(* Armed plan plus one hit counter per site, allocated at arm time so the
   post-arm hot path never mutates the table (domain-safe). *)
type armed_state = { plan : t; hits : (string * int Atomic.t) list }

let state : armed_state option Atomic.t = Atomic.make None

let parse s =
  let ( let* ) = Result.bind in
  let parse_item acc item =
    let* acc = acc in
    match String.index_opt item '=' with
    | None -> Error (Printf.sprintf "fault plan: %S is not KEY=VALUE" item)
    | Some eq -> (
      let key = String.trim (String.sub item 0 eq) in
      let value = String.trim (String.sub item (eq + 1) (String.length item - eq - 1)) in
      if key = "seed" then
        match int_of_string_opt value with
        | Some seed -> Ok { acc with seed }
        | None -> Error (Printf.sprintf "fault plan: bad seed %S" value)
      else if not (List.mem key known_sites) then
        Error
          (Printf.sprintf "fault plan: unknown site %S (known: %s)" key
             (String.concat ", " known_sites))
      else
        let value, nth =
          match String.index_opt value '@' with
          | None -> (value, Ok None)
          | Some at ->
            let n = String.sub value (at + 1) (String.length value - at - 1) in
            ( String.sub value 0 at,
              match int_of_string_opt n with
              | Some n when n >= 1 -> Ok (Some n)
              | _ -> Error (Printf.sprintf "fault plan: bad hit selector @%s" n) )
        in
        let* nth = nth in
        let* action =
          if value = "crash" then Ok Crash
          else if value = "corrupt" then Ok Corrupt
          else if String.length value > 6 && String.sub value 0 6 = "delay:" then
            match float_of_string_opt (String.sub value 6 (String.length value - 6)) with
            | Some ms when ms >= 0. -> Ok (Delay_ms ms)
            | _ -> Error (Printf.sprintf "fault plan: bad delay %S" value)
          else Error (Printf.sprintf "fault plan: unknown action %S" value)
        in
        Ok { acc with sites = { site = key; action; nth } :: acc.sites })
  in
  let items =
    String.split_on_char ';' s |> List.map String.trim |> List.filter (fun x -> x <> "")
  in
  let* plan = List.fold_left parse_item (Ok { seed = 1; sites = [] }) items in
  if plan.sites = [] then Error "fault plan: no sites armed"
  else Ok { plan with sites = List.rev plan.sites }

let arm plan =
  let hits = List.map (fun sp -> (sp.site, Atomic.make 0)) plan.sites in
  Atomic.set state (Some { plan; hits })

let disarm () = Atomic.set state None
let armed () = Option.map (fun a -> a.plan) (Atomic.get state)

let hit_count site =
  match Atomic.get state with
  | Some { hits; _ } -> (
    match List.assoc_opt site hits with Some c -> Atomic.get c | None -> 0)
  | None -> 0

let env_var = "HGP_FAULT_PLAN"

let from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> Ok false
  | Some s -> (
    match parse s with
    | Ok plan ->
      arm plan;
      Ok true
    | Error e -> Error e)

let with_plan plan f =
  let prev = Atomic.get state in
  arm plan;
  Fun.protect ~finally:(fun () -> Atomic.set state prev) f

(* Busy-wait: millisecond-scale delays for deadline tests; no Unix dep. *)
let spin_ms ms =
  let target = Int64.add (Obs.now_ns ()) (Int64.of_float (ms *. 1e6)) in
  while Obs.now_ns () < target do
    Domain.cpu_relax ()
  done

(* splitmix64-style mixer for seeded, per-hit corruption choices. *)
let mix seed site hit =
  let z = ref (Int64.of_int (seed + (31 * hit) + Hashtbl.hash site)) in
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30)) 0xbf58476d1ce4e5b9L;
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27)) 0x94d049bb133111ebL;
  Int64.to_int (Int64.logand (Int64.logxor !z (Int64.shift_right_logical !z 31)) 0x3fffffffL)

(* A block of hit numbers claimed at once, so that tasks running in any
   order on any domain each see the number a sequential loop would have
   drawn.  [None] when the site is not armed. *)
type reservation = (string * int) option

let reserve site n =
  match Atomic.get state with
  | Some { hits; _ } when n > 0 -> (
    match List.assoc_opt site hits with
    | Some counter -> Some (site, 1 + Atomic.fetch_and_add counter n)
    | None -> None)
  | _ -> None

(* The hit number that hits of a site take on this domain while a reserved
   task runs. *)
let reserved_hit : (string * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_hit r i f =
  match r with
  | None -> f ()
  | Some (site, first) ->
    let saved = Domain.DLS.get reserved_hit in
    Domain.DLS.set reserved_hit (Some (site, first + i));
    Fun.protect ~finally:(fun () -> Domain.DLS.set reserved_hit saved) f

(* Returns the 1-based hit number when [site] is armed and this hit is
   selected, restricted to entries whose action satisfies [select]. *)
let hit_selected site ~select =
  match Atomic.get state with
  | None -> None
  | Some { plan; hits } -> (
    match List.find_opt (fun sp -> sp.site = site && select sp.action) plan.sites with
    | None -> None
    | Some sp -> (
      let hit =
        match Domain.DLS.get reserved_hit with
        | Some (s, hit) when s = site -> hit
        | _ -> 1 + Atomic.fetch_and_add (List.assoc site hits) 1
      in
      match sp.nth with
      | Some n when n <> hit -> None
      | _ -> Some (sp.action, hit)))

let fire site =
  if Atomic.get state <> None then
    match hit_selected site ~select:(function Corrupt -> false | _ -> true) with
    | None -> ()
    | Some (Crash, hit) ->
      Obs.count ("faults.fired." ^ site) 1;
      Hgp_error.error
        (Hgp_error.Fault_injected
           { site; msg = Printf.sprintf "crash armed at hit %d" hit })
    | Some (Delay_ms ms, _) ->
      Obs.count ("faults.fired." ^ site) 1;
      spin_ms ms
    | Some (Corrupt, _) -> ()

let corrupt_index site ~len =
  if len <= 0 || Atomic.get state = None then None
  else
    match hit_selected site ~select:(function Corrupt -> true | _ -> false) with
    | None -> None
    | Some (_, hit) ->
      Obs.count ("faults.fired." ^ site) 1;
      let seed = match armed () with Some p -> p.seed | None -> 1 in
      Some (mix seed site hit mod len)
