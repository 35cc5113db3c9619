module Hierarchy = Hgp_hierarchy.Hierarchy
module Topology = Hgp_hierarchy.Topology
module Io = Hgp_graph.Io
module Hgp_error = Hgp_resilience.Hgp_error
module Faults = Hgp_resilience.Faults
module Reader = Hgp_resilience.Reader

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

let of_string s =
  Faults.fire "instance_io.parse";
  (* Errors name the section of the line being read. *)
  let section = ref "instance" in
  let r =
    Reader.of_string
      (Reader.format ~comment:'#' ~magic:"%hgp-instance" (fun ~line msg ->
           Hgp_error.Parse { line = Some line; context = !section; msg }))
      s
  in
  (* Stringly failures of the parsers a line is handed to are that line's. *)
  let guard f = try f () with Failure msg | Invalid_argument msg -> Reader.fail r "%s" msg in
  (* [header] walks the lines before the graph section; returns the graph
     section's first line number along with the parsed fields. *)
  let rec header hierarchy demands =
    if not (Reader.next_line r) then parse_error ~context:"instance" "missing graph section";
    let k = Reader.tokens r in
    section := "instance";
    match Reader.token r with
    | "graph" when k = 1 -> (hierarchy, demands, Reader.line r + 1)
    | "hierarchy" when k > 1 ->
      section := "hierarchy";
      if Option.is_some hierarchy then Reader.fail r "duplicate hierarchy line";
      let topo = Reader.token r in
      let h =
        match (k, Reader.token r) with
        | 2, _ -> guard (fun () -> Topology.parse topo)
        | 4, "capacity" ->
          let base = guard (fun () -> Topology.parse topo) in
          let cap = Reader.float r (Printf.sprintf "leaf capacity %S is not a number") in
          if not (Hierarchy.is_regular base) then
            Reader.fail r
              "a ragged hierarchy spec embeds per-leaf capacities; 'capacity' only applies \
               to regular specs";
          guard (fun () ->
              Hierarchy.create ~degs:(Hierarchy.degs base)
                ~cm:(Array.init (Hierarchy.height base + 1) (Hierarchy.cm base))
                ~leaf_capacity:cap)
        | _ ->
          Reader.fail r "expected 'hierarchy SPEC [capacity C]', got %S"
            (String.trim (Reader.text r))
      in
      header (Some h) demands
    | "demands" when k > 1 ->
      section := "demands";
      if Option.is_some demands then Reader.fail r "duplicate demands line";
      let field i =
        Reader.float r (fun tok -> Printf.sprintf "field %d: %S is not a number" (i + 1) tok)
      in
      header hierarchy (Some (Array.init (k - 1) field))
    | _ -> Reader.fail r "unexpected line %S" (String.trim (Reader.text r))
  in
  let hierarchy, demands, graph_line = header None None in
  let graph =
    try Io.read r with
    | Hgp_error.Error (Hgp_error.Invalid_input { msg; _ }) | Failure msg | Invalid_argument msg ->
      parse_error ~line:graph_line ~context:"graph" "%s" msg
  in
  match (hierarchy, demands) with
  | Some h, Some d -> (
    (* Corrupt action: one demand becomes NaN, as a bit flip would; instance
       validation must refuse it with a structured error. *)
    (match Faults.corrupt_index "instance_io.parse" ~len:(Array.length d) with
    | Some i -> d.(i) <- Float.nan
    | None -> ());
    try Instance.create graph ~demands:d h
    with Failure msg | Invalid_argument msg ->
      parse_error ~line:graph_line ~context:"instance" "%s" msg)
  | None, _ -> parse_error ~context:"hierarchy" "missing hierarchy line"
  | _, None -> parse_error ~context:"demands" "missing demands line"

let load path =
  Faults.fire "instance_io.load";
  of_string (Reader.load path)

let load_any path =
  let text = Reader.load path in
  if String.starts_with ~prefix:"%hgp-instance" text then begin
    Faults.fire "instance_io.load";
    `Instance (of_string text)
  end
  else `Graph (Io.of_string text)
