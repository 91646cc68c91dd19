(** The glue between the runtime's measurements ({!Conair_runtime.Stats},
    {!Conair_runtime.Outcome}, the observation stream) and the exposition
    formats: the standard ConAir metric set, JSON views of stats and
    outcomes, and the full structured run report the facade and the CLI
    emit. *)

open Conair_runtime

val outcome_json : Outcome.t -> Json.t

val outcome_of_json : Json.t -> (Outcome.t, string) result
(** The inverse of {!outcome_json} — used when loading a recorded
    schedule log's outcome back for replay verification. *)

val episode_json : Stats.episode -> Json.t

val stats_json : Stats.t -> Json.t
(** Counters plus the episode list (chronological) and the
    per-checkpoint hit table (sorted by checkpoint id). *)

val standard_metrics : ?into:Metrics.t -> Stats.t -> Metrics.t
(** The standard ConAir metric set from a finished run's statistics:

    - [conair_steps_total], [conair_instrs_total], [conair_idle_total]
    - [conair_checkpoints_total], [conair_rollbacks_total]
    - [conair_compensated_locks_total], [conair_compensated_blocks_total]
    - [conair_outputs_total], [conair_tracecheck_violations_total]
    - [conair_recovery_episodes_total]
    - [conair_episode_duration_steps] (histogram)
    - [conair_episode_retries] (histogram)
    - [conair_checkpoint_executions_total{ckpt="N"}] per checkpoint id
    - [conair_instrs_between_checkpoints] (gauge: mean distance)

    Pass [~into] to add them to an existing registry. *)

val live_metrics : Metrics.t -> Event.observer
(** An observer that maintains the [conair_live_*] counter set, one
    counter per trace-event kind (schedules, blocks, wakes, spawns,
    thread exits, outputs, checkpoints, failures detected, rollbacks,
    compensations, recoveries, fail-stops) as the machine runs —
    telemetry that exists even if the process never reaches the
    post-run report. *)

val run_json :
  ?meta:(string * Json.t) list ->
  ?config:Machine.config ->
  ?spans:Span.t list ->
  outcome:Outcome.t ->
  outputs:string list ->
  Stats.t ->
  Json.t
(** The full structured run report: the run's identification
    ({!Jsonl.meta_fields}, when supplied), config, outcome, outputs,
    stats, spans (when supplied) and the standard metric set. *)
