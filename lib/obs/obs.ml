type attrs = (string * string) list

(* ---- registry ---- *)

type span_agg = {
  mutable sa_parent : string option;
  mutable sa_count : int;
  mutable sa_total : int64;
  mutable sa_self : int64;
  mutable sa_max : int64;
  mutable sa_attrs : attrs;
}

let enabled_flag = Atomic.make false
let lock = Mutex.create ()
let span_tbl : (string, span_agg) Hashtbl.t = Hashtbl.create 64
let counter_tbl : (string, int ref) Hashtbl.t = Hashtbl.create 64
let gauge_tbl : (string, float ref) Hashtbl.t = Hashtbl.create 64

let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset () =
  with_lock (fun () ->
      Hashtbl.reset span_tbl;
      Hashtbl.reset counter_tbl;
      Hashtbl.reset gauge_tbl)

let now_ns () = Monotonic_clock.now ()

(* ---- spans ---- *)

(* Per-domain stack of open spans; a spawned domain starts empty, so its
   spans are roots unless a submitter carries its open span in
   ({!propagate}). *)
type frame = { fr_name : string; mutable fr_child_ns : int64 }

let stack_key : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let record_span name ~parent ~dur ~self ~attrs =
  with_lock (fun () ->
      match Hashtbl.find_opt span_tbl name with
      | Some a ->
        a.sa_count <- a.sa_count + 1;
        a.sa_total <- Int64.add a.sa_total dur;
        a.sa_self <- Int64.add a.sa_self self;
        if dur > a.sa_max then a.sa_max <- dur;
        if attrs <> [] then a.sa_attrs <- attrs
      | None ->
        Hashtbl.replace span_tbl name
          {
            sa_parent = parent;
            sa_count = 1;
            sa_total = dur;
            sa_self = self;
            sa_max = dur;
            sa_attrs = attrs;
          })

let span name ?(attrs = []) f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let parent = match !stack with [] -> None | fr :: _ -> Some fr.fr_name in
    let frame = { fr_name = name; fr_child_ns = 0L } in
    stack := frame :: !stack;
    let t0 = now_ns () in
    let finish () =
      let dur = Int64.sub (now_ns ()) t0 in
      (match !stack with
      | fr :: rest when fr == frame ->
        stack := rest;
        (match rest with
        | up :: _ -> up.fr_child_ns <- Int64.add up.fr_child_ns dur
        | [] -> ())
      | _ ->
        (* Unbalanced (an inner span escaped via an exception path that
           bypassed us): drop frames down to ours to stay consistent. *)
        let rec pop () =
          match !stack with
          | [] -> ()
          | fr :: rest ->
            stack := rest;
            if fr != frame then pop ()
        in
        pop ());
      let self = Int64.sub dur frame.fr_child_ns in
      let self = if self < 0L then 0L else self in
      record_span name ~parent ~dur ~self ~attrs
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* A task carries its submitter's innermost open frame.  On the submitter's
   own domain that frame is still on top of the stack, so the task's spans
   nest under it as usual.  Elsewhere a stand-in frame of the same name is
   pushed for the task's duration: spans name it as their parent, and the
   time charged to it is dropped, since another domain's work is not the
   submitter's child time. *)
let within parent f =
  let stack = Domain.DLS.get stack_key in
  match !stack with
  | top :: _ when top == parent -> f ()
  | saved -> (
    stack := { fr_name = parent.fr_name; fr_child_ns = 0L } :: saved;
    match f () with
    | v ->
      stack := saved;
      v
    | exception e ->
      stack := saved;
      raise e)

let propagate tasks =
  if not (Atomic.get enabled_flag) then tasks
  else
    match !(Domain.DLS.get stack_key) with
    | [] -> tasks
    | parent :: _ -> Array.map (fun task () -> within parent task) tasks

(* ---- counters / gauges ---- *)

let count name n =
  if Atomic.get enabled_flag then
    with_lock (fun () ->
        match Hashtbl.find_opt counter_tbl name with
        | Some r -> r := !r + n
        | None -> Hashtbl.replace counter_tbl name (ref n))

let counter_value name =
  with_lock (fun () ->
      match Hashtbl.find_opt counter_tbl name with Some r -> !r | None -> 0)

let gauge name v =
  if Atomic.get enabled_flag then
    with_lock (fun () ->
        match Hashtbl.find_opt gauge_tbl name with
        | Some r -> r := v
        | None -> Hashtbl.replace gauge_tbl name (ref v))

let gauge_max name v =
  if Atomic.get enabled_flag then
    with_lock (fun () ->
        match Hashtbl.find_opt gauge_tbl name with
        | Some r -> if v > !r then r := v
        | None -> Hashtbl.replace gauge_tbl name (ref v))

(* ---- snapshots ---- *)

type span_stat = {
  name : string;
  parent : string option;
  count : int;
  total_ns : int64;
  self_ns : int64;
  max_ns : int64;
  attrs : attrs;
}

type snapshot = {
  spans : span_stat list;
  counters : (string * int) list;
  gauges : (string * float) list;
}

let snapshot () =
  with_lock (fun () ->
      let spans =
        Hashtbl.fold
          (fun name a acc ->
            {
              name;
              parent = a.sa_parent;
              count = a.sa_count;
              total_ns = a.sa_total;
              self_ns = a.sa_self;
              max_ns = a.sa_max;
              attrs = a.sa_attrs;
            }
            :: acc)
          span_tbl []
        |> List.sort (fun a b -> compare a.name b.name)
      in
      let counters =
        Hashtbl.fold (fun name r acc -> (name, !r) :: acc) counter_tbl []
        |> List.sort compare
      in
      let gauges =
        Hashtbl.fold (fun name r acc -> (name, !r) :: acc) gauge_tbl []
        |> List.sort compare
      in
      { spans; counters; gauges })

let ms_of_ns ns = Int64.to_float ns /. 1e6

(* ---- sinks ---- *)

type sink = Noop | Table | Jsonl

let sink_of_string = function
  | "json" | "jsonl" -> Ok Jsonl
  | "table" -> Ok Table
  | "noop" | "none" -> Ok Noop
  | s -> Error (Printf.sprintf "unknown metrics sink %S (expected json or table)" s)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* %.6f keeps JSON floats plain (no OCaml "1e+07" exponent spelling that
   some line-oriented consumers choke on) at nanosecond-ish resolution. *)
let json_ms ns = Printf.sprintf "%.6f" (ms_of_ns ns)

let jsonl_of_snapshot snap =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"type\":\"meta\",\"schema\":\"hgp-obs-v1\"}\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"type\":\"span\",\"name\":\"%s\",\"parent\":%s,\"count\":%d,\"total_ms\":%s,\"self_ms\":%s,\"max_ms\":%s"
           (json_escape s.name)
           (match s.parent with
           | None -> "null"
           | Some p -> Printf.sprintf "\"%s\"" (json_escape p))
           s.count (json_ms s.total_ns) (json_ms s.self_ns) (json_ms s.max_ns));
      if s.attrs <> [] then begin
        Buffer.add_string b ",\"attrs\":{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b
              (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
          s.attrs;
        Buffer.add_char b '}'
      end;
      Buffer.add_string b "}\n")
    snap.spans;
  List.iter
    (fun (name, v) ->
      Buffer.add_string b
        (Printf.sprintf "{\"type\":\"counter\",\"name\":\"%s\",\"value\":%d}\n"
           (json_escape name) v))
    snap.counters;
  List.iter
    (fun (name, v) ->
      let value = if Float.is_finite v then Printf.sprintf "%.6g" v else "null" in
      Buffer.add_string b
        (Printf.sprintf "{\"type\":\"gauge\",\"name\":\"%s\",\"value\":%s}\n"
           (json_escape name) value))
    snap.gauges;
  Buffer.contents b

let table_of_snapshot snap =
  let b = Buffer.create 1024 in
  if snap.spans <> [] then begin
    let rows =
      List.map
        (fun s ->
          [
            s.name;
            (match s.parent with None -> "-" | Some p -> p);
            string_of_int s.count;
            Printf.sprintf "%.3f" (ms_of_ns s.total_ns);
            Printf.sprintf "%.3f" (ms_of_ns s.self_ns);
            Printf.sprintf "%.3f" (ms_of_ns s.max_ns);
          ])
        snap.spans
    in
    Buffer.add_string b "== spans ==\n";
    Buffer.add_string b
      (Hgp_util.Tablefmt.render
         ~header:[ "span"; "parent"; "count"; "total ms"; "self ms"; "max ms" ]
         rows);
    Buffer.add_char b '\n'
  end;
  if snap.counters <> [] then begin
    Buffer.add_string b "== counters ==\n";
    Buffer.add_string b
      (Hgp_util.Tablefmt.render ~header:[ "counter"; "value" ]
         (List.map (fun (n, v) -> [ n; string_of_int v ]) snap.counters));
    Buffer.add_char b '\n'
  end;
  if snap.gauges <> [] then begin
    Buffer.add_string b "== gauges ==\n";
    Buffer.add_string b
      (Hgp_util.Tablefmt.render ~header:[ "gauge"; "value" ]
         (List.map (fun (n, v) -> [ n; Hgp_util.Tablefmt.fmt_float v ]) snap.gauges));
    Buffer.add_char b '\n'
  end;
  Buffer.contents b

let render sink snap =
  match sink with
  | Noop -> ""
  | Table -> table_of_snapshot snap
  | Jsonl -> jsonl_of_snapshot snap

let emit sink oc =
  match sink with
  | Noop -> ()
  | _ ->
    output_string oc (render sink (snapshot ()));
    flush oc
