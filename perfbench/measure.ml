(* Clocks, sample statistics, allocation accounting, the host calibration
   probe and the result line. *)

let now_ns = Hgp_obs.Obs.now_ns
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let ms_since t0 = ms_between t0 (now_ns ())

let ratio num den = if den = 0. then 0. else num /. den
let bytes_per_word = float_of_int (Sys.word_size / 8)

(* Bytes allocated by every domain so far.  Minor collections are
   stop-the-world in OCaml 5, so [Gc.minor] flushes every domain's counters
   into [quick_stat] and the figure includes the server's worker domain. *)
let allocated_bytes () =
  Gc.minor ();
  let q = Gc.quick_stat () in
  (q.Gc.minor_words +. q.Gc.major_words -. q.Gc.promoted_words) *. bytes_per_word

let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. bytes_per_word /. 1e6

(* A fixed integer spin loop, timed five times.  It does no allocation and
   touches no program code, so a shift in its time between two runs is the
   host, not the program. *)
let probe () =
  let once () =
    let t0 = now_ns () in
    let x = ref 1 in
    for _ = 1 to 20_000_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff
    done;
    ignore (Sys.opaque_identity !x);
    ms_since t0
  in
  let xs = Array.init 5 (fun _ -> once ()) in
  (Hgp_util.Stats.median xs, Array.fold_left Float.min infinity xs)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* The last line of standard output: the contract the benchmark runner
   parses.  Values keep all their digits. *)
let print_result ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i m ->
      if not (Float.is_finite m.value) then
        failwith (Printf.sprintf "metric %s is not finite" m.name);
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        m.name m.value m.unit)
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)
