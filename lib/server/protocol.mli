(** JSON-lines request/response protocol for the batch solve service.

    One request per line, one response per line, UTF-8, no framing beyond the
    newline — the format a load generator, a shell pipe and a log ingester
    all speak.  Instances travel {e inline} (the [Instance_io] text format
    embedded as a JSON string, so the whole request is self-contained and
    replayable) or by [path] reference to an instance file on disk.

    Request schema (unknown fields are ignored for forward compatibility):
    {v
      {"id":"r1", "instance":"%hgp-instance 1\n...", "trees":4, "seed":42,
       "eps":0.25, "resolution":null, "deadline_ms":250.0, "priority":0}
    v}
    Only ["id"] and one of ["instance"] / ["path"] are required; the other
    fields default as shown.  Floats are serialized with ["%.17g"], so a
    request that round-trips through {!request_to_line} / {!parse_any}
    resolves to the {e same} {!Hgp_util.Fingerprint.t} — the scheduler's
    shard affinity and the artifact caches depend on this (property-tested).

    Response schema:
    {v
      {"id":"r1","status":"ok","cost":C,"violation":V,"rung":"ensemble",
       "degraded":false,"tree_failures":0,"cache_hit":true,"dp_states":N,
       "cached_dp_states":M,"queue_ms":Q,"solve_ms":S,"assignment":[l0,...]}
      {"id":"r2","status":"error","error":"deadline","message":"...",
       "queue_ms":Q,"solve_ms":0.000}
    v}
    ["error"] is {!Hgp_resilience.Hgp_error.label} — the same stable class
    names the CLI exit codes use.  Errors are per-request, never fatal to the
    service (see [docs/SERVING.md]). *)

module Fingerprint = Hgp_util.Fingerprint
module Hgp_error = Hgp_resilience.Hgp_error

(** {1 Minimal JSON}

    The toolkit deliberately carries no JSON dependency; this is the same
    subset the [Obs] JSON-lines sink emits, plus a parser for it. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(** [parse_json s] parses one complete JSON value ([Error] carries an offset
    diagnostic).  Handles the standard escapes incl. [\uXXXX] (encoded to
    UTF-8; surrogate pairs are not supported — the writer never emits them). *)
val parse_json : string -> (json, string) result

(** {1 Requests} *)

type source =
  | Inline of string  (** [Instance_io] text embedded in the request *)
  | Path of string  (** instance file on the server's disk *)

type request = {
  id : string;
  source : source;
  trees : int;  (** ensemble size; default 4 *)
  seed : int;  (** default 42 *)
  eps : float;  (** default 0.25 *)
  resolution : int option;  (** default: derived from eps *)
  deadline_ms : float option;  (** per-request budget incl. queue wait *)
  priority : int;  (** higher first within a shard; default 0 *)
  session : string option;
      (** when set, a successful solve opens (or replaces) a named
          incremental session on the server which later [update] requests
          target (docs/INCREMENTAL.md); default [None] *)
}

(** [request ~id source] with the documented defaults. *)
val request :
  id:string ->
  ?trees:int ->
  ?seed:int ->
  ?eps:float ->
  ?resolution:int ->
  ?deadline_ms:float ->
  ?priority:int ->
  ?session:string ->
  source ->
  request

(** [inline_request ~id inst] embeds [Instance_io.to_string inst]. *)
val inline_request :
  id:string ->
  ?trees:int ->
  ?seed:int ->
  ?eps:float ->
  ?resolution:int ->
  ?deadline_ms:float ->
  ?priority:int ->
  ?session:string ->
  Hgp_core.Instance.t ->
  request

(** One line, no trailing newline. *)
val request_to_line : request -> string

(** {1 Update requests}

    A delta against a named session opened by an earlier solve request:
    {v
      {"id":"u1","session":"s1","delta":"%hgp-delta 1\n...","deadline_ms":50.0}
    v}
    The delta travels inline in the [Hgp_core.Delta] text format.  A line is
    classified as an update iff it carries a ["delta"] field ({!parse_any}). *)

type update_request = {
  u_id : string;
  u_session : string;  (** must match a solve request's [session] *)
  u_delta : string;  (** [Hgp_core.Delta] text, parsed at admission *)
  u_deadline_ms : float option;
}

val update_request :
  id:string -> session:string -> ?deadline_ms:float -> string -> update_request

type any_request = Solve of request | Update of update_request

(** [parse_any line] parses one request line, solve or update: the JSON
    once, the fields both kinds share ([id], [deadline_ms]) once, then the
    kind's own fields — an update iff the line carries a ["delta"] field. *)
val parse_any : string -> (any_request, string) result

(** One line, no trailing newline; round-trips through {!parse_any}. *)
val update_to_line : update_request -> string

(** {1 Resolution}

    Parsing the embedded instance and deriving the affinity key happens once
    at admission, not per scheduler touch. *)

type resolved = {
  request : request;
  inst : Hgp_core.Instance.t;
  key : Fingerprint.t;
      (** digests instance content (graph ⊕ demands ⊕ hierarchy) ⊕ trees ⊕
          seed ⊕ eps ⊕ resolution — exactly the solve-artifact determinants,
          so equal keys mean interchangeable solves.  [deadline_ms] and
          [priority] are deliberately excluded. *)
  options : Hgp_core.Solver.options;
      (** derived solver options: the request's fields over
          {!Hgp_core.Solver.default_options} *)
}

(** [resolve r] parses/loads the instance and computes the affinity key.
    Errors are the structured [Parse] / [Io_error] taxonomy. *)
val resolve : request -> (resolved, Hgp_error.t) result

(** {1 Responses} *)

type solved = {
  cost : float;
  violation : float;
  rung : string;
  degraded : bool;
  tree_failures : int;
  cache_hit : bool;
      (** served from the packed-solution cache or coalesced onto an
          identical in-flight request *)
  dp_states : int;
  cached_dp_states : int;
  assignment : int array;
}

(** Result of an update request: status ["updated"], with incremental-work
    and churn accounting.  [up_incremental] is false when the delta was
    structural and the server fell back to a full re-solve inside the
    session. *)
type updated = {
  up_cost : float;
  up_violation : float;
  up_churn : float;  (** fraction of vertices whose leaf changed *)
  up_resolved_subtrees : int;
  up_reused_subtrees : int;
  up_incremental : bool;
  up_certified : bool;
  up_assignment : int array;
}

type outcome = Solved of solved | Updated of updated | Failed of Hgp_error.t

type response = {
  id : string;
  outcome : outcome;
  queue_ms : float;  (** admission → dispatch (or rejection) *)
  solve_ms : float;  (** 0 for rejections and coalesced followers *)
}

(** [failed id e] answers request [id] with error [e] and zero timings —
    the response of a request that never ran (rejected, or unparsable). *)
val failed : string -> Hgp_error.t -> response

(** One line, no trailing newline.  Field order is fixed (golden-tested). *)
val response_to_line : response -> string
