(** Recovery spans: the observation stream folded into one interval per
    recovery episode — from the first rollback for a failure until the
    thread passed the site (or fail-stopped, or the run ended). Spans are
    the unit of the Chrome trace-event export (viewable in Perfetto or
    [chrome://tracing], one track per thread).

    A {!collector} folds a run's live stream: it keeps the run's
    recovery events (failure detections, rollbacks, compensations,
    recoveries, fail-stops) and the step of its last trace event, which
    is all that spans, the Chrome export and the recovery summary read.

    For every completed episode in {!Conair_runtime.Stats.t} the
    collector yields exactly one [Recovered] span whose
    [start_step]/[end_step] equal the episode's [ep_start]/[ep_end] —
    asserted by the test suite. *)

open Conair_runtime

type outcome =
  | Recovered  (** the thread made it past the failure site *)
  | Fail_stopped  (** retries exhausted or no applicable checkpoint *)
  | Unresolved  (** the run ended with the episode still open *)

type t = {
  sp_tid : int;
  sp_site_id : int;
  sp_kind : Conair_ir.Instr.failure_kind option;
      (** from the detection event that opened the episode *)
  sp_start : int;  (** step of the first rollback *)
  sp_end : int;
  sp_rollbacks : int;
  sp_outcome : outcome;
}

val duration : t -> int
val outcome_name : outcome -> string
val to_json : t -> Json.t

type collector

val collector : unit -> collector

val observer : collector -> Event.observer
(** Attach the collector to a run. Consumes sync and per-step events. *)

val spans : collector -> t list
(** The recovery spans of the events collected so far, in order of span
    start. An episode still open is an [Unresolved] span ending at the
    last trace event's step. A fail-stop with no preceding rollback
    (nothing to recover from) is a zero-length [Fail_stopped] span. *)

val pp_recovery_summary : Format.formatter -> collector -> unit
(** The recovery story, one line per event: detections, rollbacks,
    compensations, recoveries and fail-stops — or
    ["no recovery activity"]. *)

(** {2 Chrome trace-event export}

    The produced document is the JSON object format of the Chrome
    trace-event specification: [{"traceEvents": [...]}], with one
    complete ("ph":"X") event per span, thread-name metadata so every
    thread gets its own track, and one instant ("ph":"i") event per
    rollback and per failure detection. Virtual scheduler steps are
    mapped 1:1 to microseconds. *)

val to_chrome : ?counters:Json.t list -> collector -> Json.t
(** [counters] are extra trace events appended verbatim — e.g. the
    ["ph":"C"] cost track from {!Prof.counter_events}. *)
