type t =
  | Parse of { line : int option; context : string; msg : string }
  | Io_error of { path : string; msg : string }
  | Invalid_input of { context : string; msg : string }
  | Infeasible of { resolution : int; retried : bool; msg : string }
  | Deadline_exceeded of { budget_ms : float; elapsed_ms : float; stage : string }
  | Tree_failure of { tree_index : int; stage : string; msg : string }
  | Fault_injected of { site : string; msg : string }
  | Overloaded of { queued : int; limit : int }
  | Internal of { stage : string; msg : string }

exception Error of t

let error e = raise (Error e)

let label = function
  | Parse _ -> "parse"
  | Io_error _ -> "io"
  | Invalid_input _ -> "invalid-input"
  | Infeasible _ -> "infeasible"
  | Deadline_exceeded _ -> "deadline"
  | Tree_failure _ -> "tree-failure"
  | Fault_injected _ -> "fault"
  | Overloaded _ -> "overloaded"
  | Internal _ -> "internal"

let exit_code = function
  | Parse _ -> 65
  | Invalid_input _ -> 65
  | Io_error _ -> 66
  | Infeasible _ -> 69
  | Tree_failure _ | Fault_injected _ | Internal _ -> 70
  | Deadline_exceeded _ | Overloaded _ -> 75

let to_string = function
  | Parse { line; context; msg } ->
    let where = match line with None -> "" | Some l -> Printf.sprintf " at line %d" l in
    Printf.sprintf "parse error%s (%s): %s" where context msg
  | Io_error { path; msg } -> Printf.sprintf "io error on %s: %s" path msg
  | Invalid_input { context; msg } -> Printf.sprintf "invalid input (%s): %s" context msg
  | Infeasible { resolution; retried; msg } ->
    Printf.sprintf "infeasible at resolution %d%s: %s" resolution
      (if retried then " (after higher-resolution retry)" else "")
      msg
  | Deadline_exceeded { budget_ms; elapsed_ms; stage } ->
    Printf.sprintf "deadline of %.1f ms exceeded in %s after %.1f ms" budget_ms stage
      elapsed_ms
  | Tree_failure { tree_index; stage; msg } ->
    Printf.sprintf "ensemble tree %d failed in %s: %s" tree_index stage msg
  | Fault_injected { site; msg } -> Printf.sprintf "injected fault at %s: %s" site msg
  | Overloaded { queued; limit } ->
    Printf.sprintf "server overloaded: %d requests queued (admission limit %d)" queued
      limit
  | Internal { stage; msg } -> Printf.sprintf "internal error in %s: %s" stage msg

let pp ppf e = Format.pp_print_string ppf (to_string e)

let message_of_exn = function
  | Error e -> to_string e
  | Failure m -> m
  | Invalid_argument m -> Printf.sprintf "invalid argument: %s" m
  | exn -> Printexc.to_string exn

(* Make [Error _] print its payload in uncaught-exception traces. *)
let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Hgp_error.Error (%s)" (to_string e))
    | _ -> None)
