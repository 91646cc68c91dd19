(** Package a recorded run into a {!Schedule_log} (the recording itself
    rides a {!Capture.run}), replay a log on any engine with divergence
    detection, and verify a replay against the recorded trailer. Any
    engine records and any engine replays, in any combination: schedule
    logs are engine-interchangeable. *)

open Conair_ir
open Conair_runtime

(** What a replay reports about its finished execution (a captured run
    is a {!Capture.run}). *)
type result_bundle = {
  rb_outcome : Outcome.t;
  rb_outputs : string list;
  rb_stats : Stats.t;
  rb_steps : int;
}

(** A structured divergence: exactly where the replayed execution
    disagreed with the recording. *)
type divergence = {
  dv_decision : int;  (** ordinal of the disagreeing decision *)
  dv_step : int;  (** machine virtual time when it was detected *)
  dv_expected : int option;  (** recorded tid; [None] = log exhausted *)
  dv_actual : int list;  (** the eligible set the replay offered *)
  dv_reason : string;
}

type error =
  | Program_mismatch of { expected_md5 : string; got_md5 : string }
      (** the supplied program is not the recorded one *)
  | No_program of string  (** no embedded program, or it fails to parse *)
  | Diverged of divergence

val error_to_string : error -> string

val log_of_run :
  config:Machine.config ->
  ?meta:Machine.meta ->
  ident:Schedule_log.ident ->
  program:Program.t ->
  Flight_ring.t ->
  Engine.machine ->
  Outcome.t ->
  Schedule_log.t
(** Package a finished run from the ring that observed it: the header
    (embedded program text included, the machine's engine), the ring's
    window of the decision stream with its absolute preemption ordinals
    — the whole stream for an unbounded ring such as a {!Recorder} —
    and the trailer, read off the finished machine and its outcome.
    The program is remembered for the log ({!Schedule_log.remember_program}),
    so replaying the log in this process runs it rather than a parse of
    its text. *)

val replay :
  ?engine:Engine.t ->
  ?program:Program.t ->
  ?meta:Machine.meta ->
  Schedule_log.t ->
  (result_bundle, error) result
(** Re-execute a recorded schedule. The program defaults to the log's
    embedded one ({!Schedule_log.program}); a supplied program is
    verified against the recorded MD5 first. The replaying engine is independent of the recording one —
    cross-engine replay is part of the differential guarantee. *)

val replay_directed :
  ?engine:Engine.t ->
  ?meta:Machine.meta ->
  program:Program.t ->
  Schedule_log.t ->
  result_bundle
(** Re-execute a log's schedule against a *different* program — the fix
    synthesizer's replay gate. The recording is recast as context-switch
    directives ({!Feed.directives_of}) and driven through the
    divergence-safe directed feed: the recorded failure's preemptions are
    forced at the same per-thread decision counts, and wherever the
    patched program can no longer follow (a thread now blocks on an
    inserted lock or wait), control falls to the next eligible thread in
    round-robin order. No MD5 check, never raises [Feed.Diverged]. *)

val check : Schedule_log.t -> result_bundle -> (unit, string) result
(** Compare a replay's results against the log's recorded trailer
    (outcome, outputs, steps, instruction and rollback counts). *)

val check_run :
  Schedule_log.t -> Engine.machine -> Outcome.t -> (unit, string) result
(** {!check} for a finished machine and its outcome, such as a captured
    run that should have reproduced the log. *)

(** {1 Shared resolution helpers} (used by the inspector and minimizer) *)

val resolve_program :
  ?program:Program.t -> Schedule_log.t -> (Program.t, error) result
(** The supplied program verified against the recorded MD5, or the log's
    embedded text parsed. *)

val resolve_meta : ?meta:Machine.meta -> Schedule_log.t -> Machine.meta option
