(** Structured error taxonomy for the solve pipeline.

    Every failure a caller can meaningfully react to is a variant of {!t}
    instead of a stringly [Failure]: parse errors carry line numbers, deadline
    errors carry the budget and the stage that blew it, per-tree failures
    carry the ensemble index.  The taxonomy is the contract between the
    pipeline and the {e supervisor} ([Solver.solve_supervised]), which turns
    recoverable variants into degradation-ladder steps, and between the CLI
    and its callers, which see one documented exit code per class (see
    [docs/ROBUSTNESS.md]). *)

type t =
  | Parse of { line : int option; context : string; msg : string }
      (** malformed instance/graph text; [line] is 1-based when known,
          [context] names the section or field ("hierarchy", "demands",
          "graph", "instance") *)
  | Io_error of { path : string; msg : string }
      (** the OS said no: missing file, permission, short read *)
  | Invalid_input of { context : string; msg : string }
      (** structurally invalid in-memory data handed to a builder (dangling
          edge endpoint, negative weight, length mismatch); [context] names
          the constructor ("graph.of_arrays", "csr.contract", ...) *)
  | Infeasible of { resolution : int; retried : bool; msg : string }
      (** the quantized instance admits no packing; [retried] is set once the
          higher-resolution retry has also failed, so the instance is
          overloaded beyond rounding artifacts *)
  | Deadline_exceeded of { budget_ms : float; elapsed_ms : float; stage : string }
      (** a cooperative cancellation point fired; [stage] names the loop that
          noticed ("tree_dp", "ensemble", ...) *)
  | Tree_failure of { tree_index : int; stage : string; msg : string }
      (** one ensemble member failed (decomposition build or DP); the solve
          can proceed on the survivors *)
  | Fault_injected of { site : string; msg : string }
      (** a {!Faults} crash action fired at the named site (testing only) *)
  | Overloaded of { queued : int; limit : int }
      (** the batch server's bounded admission queue is full; the request was
          rejected without being scheduled — retry later (see
          [docs/SERVING.md]) *)
  | Internal of { stage : string; msg : string }
      (** an unexpected exception captured at a supervision boundary *)

exception Error of t

(** [error e] raises {!Error}[ e]. *)
val error : t -> 'a

(** [label e] is a stable kebab-case class name ("parse", "io",
    "invalid-input", "infeasible", "deadline", "tree-failure", "fault",
    "overloaded", "internal") used in telemetry
    counters, batch-response error fields and logs. *)
val label : t -> string

(** [exit_code e] is the documented CLI exit code for the class (sysexits
    flavored): parse 65, io 66, infeasible 69, internal-ish 70, deadline and
    overloaded 75 (both are EX_TEMPFAIL: retry later). *)
val exit_code : t -> int

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** [message_of_exn exn] renders any exception for embedding into a variant's
    [msg] field ({!Error} payloads render via {!to_string}). *)
val message_of_exn : exn -> string
