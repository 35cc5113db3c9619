module Hierarchy = Hgp_hierarchy.Hierarchy
module Topology = Hgp_hierarchy.Topology
module Io = Hgp_graph.Io
module Hgp_error = Hgp_resilience.Hgp_error
module Faults = Hgp_resilience.Faults

let to_string (inst : Instance.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "%hgp-instance 1\n";
  (* Ragged specs embed their per-leaf capacities; the separate "capacity"
     field is the regular format's uniform leaf capacity (the regular spec
     grammar itself carries none). *)
  (if Hierarchy.is_regular inst.hierarchy then
     Buffer.add_string buf
       (Printf.sprintf "hierarchy %s capacity %.17g\n"
          (Topology.to_spec inst.hierarchy)
          (Hierarchy.leaf_capacity inst.hierarchy))
   else
     Buffer.add_string buf
       (Printf.sprintf "hierarchy %s\n" (Topology.to_spec inst.hierarchy)));
  Buffer.add_string buf "demands";
  Array.iter (fun d -> Buffer.add_string buf (Printf.sprintf " %.17g" d)) inst.demands;
  Buffer.add_string buf "\ngraph\n";
  Buffer.add_string buf (Io.to_string inst.graph);
  Buffer.contents buf

let parse_error ?line ~context fmt =
  Printf.ksprintf
    (fun msg -> Hgp_error.error (Hgp_error.Parse { line; context; msg }))
    fmt

(* Wrap a section parser so that stringly failures from the underlying
   parsers (Topology.parse, float_of_string) surface as [Parse] errors
   anchored at [line]. *)
let in_context ~line ~context f =
  try f () with
  | Hgp_error.Error _ as e -> raise e
  | Failure msg | Invalid_argument msg -> parse_error ~line ~context "%s" msg

let of_string s =
  Faults.fire "instance_io.parse";
  let lines =
    (* Accept CRLF input (files written on Windows, or piped through tools
       that rewrite line endings): a carriage return before the newline is
       never meaningful in this format. *)
    String.split_on_char '\n' s
    |> List.map (fun l ->
           let len = String.length l in
           if len > 0 && l.[len - 1] = '\r' then String.sub l 0 (len - 1) else l)
  in
  (* [parse] walks the header section; returns the graph section's starting
     line number along with its lines. *)
  let rec parse lines lineno hierarchy demands =
    match lines with
    | [] -> parse_error ~context:"instance" "missing graph section"
    | line :: rest -> (
      let line_t = String.trim line in
      if line_t = "" || line_t.[0] = '#' || line_t = "%hgp-instance 1" then
        parse rest (lineno + 1) hierarchy demands
      else
        match String.index_opt line_t ' ' with
        | _ when line_t = "graph" -> (hierarchy, demands, rest, lineno + 1)
        | Some _ when String.length line_t > 10 && String.sub line_t 0 10 = "hierarchy " -> (
          if Option.is_some hierarchy then
            parse_error ~line:lineno ~context:"hierarchy" "duplicate hierarchy line";
          let spec = String.sub line_t 10 (String.length line_t - 10) in
          match String.split_on_char ' ' spec with
          | [ topo; "capacity"; cap ] ->
            let h =
              in_context ~line:lineno ~context:"hierarchy" (fun () ->
                  let base = Topology.parse topo in
                  let cap =
                    match float_of_string_opt cap with
                    | Some c -> c
                    | None ->
                      parse_error ~line:lineno ~context:"hierarchy"
                        "leaf capacity %S is not a number" cap
                  in
                  if not (Hierarchy.is_regular base) then
                    parse_error ~line:lineno ~context:"hierarchy"
                      "a ragged hierarchy spec embeds per-leaf capacities; \
                       'capacity' only applies to regular specs";
                  Hierarchy.create ~degs:(Hierarchy.degs base)
                    ~cm:(Array.init (Hierarchy.height base + 1) (Hierarchy.cm base))
                    ~leaf_capacity:cap)
            in
            parse rest (lineno + 1) (Some h) demands
          | [ topo ] ->
            let h =
              in_context ~line:lineno ~context:"hierarchy" (fun () -> Topology.parse topo)
            in
            parse rest (lineno + 1) (Some h) demands
          | _ ->
            parse_error ~line:lineno ~context:"hierarchy"
              "expected 'hierarchy SPEC [capacity C]', got %S" line_t)
        | Some _ when String.length line_t > 8 && String.sub line_t 0 8 = "demands " ->
          if Option.is_some demands then
            parse_error ~line:lineno ~context:"demands" "duplicate demands line";
          let ds =
            String.sub line_t 8 (String.length line_t - 8)
            |> String.split_on_char ' '
            |> List.filter (fun x -> x <> "")
            |> List.mapi (fun field x ->
                   match float_of_string_opt x with
                   | Some d -> d
                   | None ->
                     parse_error ~line:lineno ~context:"demands"
                       "field %d: %S is not a number" (field + 1) x)
            |> Array.of_list
          in
          parse rest (lineno + 1) hierarchy (Some ds)
        | _ ->
          parse_error ~line:lineno ~context:"instance" "unexpected line %S" line_t)
  in
  let hierarchy, demands, graph_lines, graph_line = parse lines 1 None None in
  let graph =
    in_context ~line:graph_line ~context:"graph" (fun () ->
        try Io.of_string ~first_line:graph_line (String.concat "\n" graph_lines)
        with Hgp_error.Error (Hgp_error.Invalid_input { msg; _ }) ->
          parse_error ~line:graph_line ~context:"graph" "%s" msg)
  in
  match (hierarchy, demands) with
  | Some h, Some d ->
    (* Corrupt action: one demand becomes NaN, as a bit flip would; instance
       validation must refuse it with a structured error. *)
    (match Faults.corrupt_index "instance_io.parse" ~len:(Array.length d) with
    | Some i -> d.(i) <- Float.nan
    | None -> ());
    in_context ~line:graph_line ~context:"instance" (fun () ->
        Instance.create graph ~demands:d h)
  | None, _ -> parse_error ~context:"hierarchy" "missing hierarchy line"
  | _, None -> parse_error ~context:"demands" "missing demands line"

let save inst path =
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_string inst))
  with Sys_error msg -> Hgp_error.error (Hgp_error.Io_error { path; msg })

let load path =
  Faults.fire "instance_io.load";
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        of_string (really_input_string ic len))
  with
  | Sys_error msg | Failure msg -> Hgp_error.error (Hgp_error.Io_error { path; msg })
  | End_of_file -> Hgp_error.error (Hgp_error.Io_error { path; msg = "short read" })
