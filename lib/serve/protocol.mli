(** The recovery-service wire protocol: newline-delimited JSON both
    ways. Requests are one object per line ([op] member selects the
    verb); responses are frames tagged by their [type] member. A
    submitted job's frames always arrive ack -> telemetry* -> result,
    and a tenant's results arrive in submission order.

    Job payloads mirror the CLI's vocabulary — a run job with default
    knobs yields the same report bytes as [conair_cli report], because
    both run {!Conair.run} with the {!Conair.report} lens. See
    [docs/SERVER.md]. *)

module Json = Conair_obs.Json

(** What a job executes: a bugbench registry benchmark, or inline Mir
    source text (size-guarded by [max_program_bytes]). *)
type target =
  | Bench of { app : string; variant : string; oracle : bool }
  | Source of string

(** Execution knobs, defaulting exactly as the CLI's flags do: fast
    engine, fuel 8M, round-robin (or [Random seed]), retry budget 1M. *)
type exec = {
  engine : string;
  fuel : int;
  seed : int option;
  max_retries : int;
}

val default_exec : exec

type spec =
  | Run of { target : target; mode : string; exec : exec }
  | Harden of { target : target; mode : string }
  | Detect of { target : target; original : bool; exec : exec }
  | Minimize of { log : string list; max_tests : int; detect : bool }
  | Fuzz of { target : target; runs : int; base_seed : int; exec : exec }
  | Fix of {
      target : target;
      max_candidates : int;
      sweep_seeds : int;
      search_seeds : int;
      exec : exec;
    }

val kind_name : spec -> string

type request =
  | Submit of { tenant : string; id : string; job : spec }
  | Status
  | Metrics
  | Spans of { tenant : string; id : string }
  | Bundle of { tenant : string; id : string }
  | Ping
  | Shutdown

(** {2 Response frames} *)

val ack : tenant:string -> id:string -> queue_depth:int -> Json.t
val telemetry : tenant:string -> id:string -> Json.t -> Json.t

val result :
  tenant:string ->
  id:string ->
  status:string ->
  exit:int ->
  elapsed_ms:float ->
  Json.t ->
  Json.t

val error : ?tenant:string -> ?id:string -> string -> Json.t
val metrics_frame : string -> Json.t
val spans_frame : tenant:string -> id:string -> Json.t -> Json.t

val bundle_frame : tenant:string -> id:string -> Json.t -> Json.t
(** The flight-recorder diagnostic bundle of a failed run job, as
    retained by the daemon's telemetry under the per-tenant cap. *)

val pong : Json.t
val bye : draining:int -> Json.t

(** {2 Codecs} *)

val spec_of_json : max_program_bytes:int -> Json.t -> (spec, string) result

val request_of_json :
  max_program_bytes:int -> Json.t -> (request, Json.t) result

val request_of_line :
  max_program_bytes:int -> string -> (request, Json.t) result
(** Parse one request line. [Error] on malformed JSON, unknown ops or
    kinds, bad members (an engine name [Engine.of_string] rejects
    included), or an inline payload over [max_program_bytes]; it carries
    the {!error} frame that answers the line, tagged with the tenant and
    id of a submit that names both, so the submitting client sees it. *)

val request_json : request -> Json.t
val request_to_line : request -> string
