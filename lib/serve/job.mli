(** Job execution — one function per protocol job kind, each sharing
    its code path with the corresponding CLI subcommand so that served
    reports are byte-identical to CLI output for the same inputs (run
    jobs go through {!Conair.run} with the {!Conair.report} lens, and a
    failed run's flight bundle rides the same execution; detection goes through
    {!Conair.run} with the {!Conair.detect} lens, minimization through
    {!Conair.minimize}). Exit codes mirror the CLI: 0 ok, 2 failed run,
    3 detector findings. *)

module Json = Conair_obs.Json

type outcome = {
  jr_status : string;  (** "ok" | "error" *)
  jr_exit : int;  (** the CLI-equivalent exit code *)
  jr_report : Json.t;  (** the job's structured result document *)
  jr_record : Json.t option;
      (** fuzz-style run record, for cross-job aggregation *)
  jr_spans : Json.t option;  (** Chrome trace document (run jobs) *)
  jr_bundle : Json.t option;
      (** flight-recorder diagnostic bundle — present when a run job's
          observed execution failed; a deterministic capture re-run under
          the job's exact config and engine, byte-identical to the CLI's
          [--flight] dump for the same inputs *)
}

val run_record : case:string -> seed:int -> Conair.run -> Json.t
(** The fuzzer's per-run record shape — {!Conair_obs.Aggregate}'s input
    vocabulary. *)

val execute : ?telemetry:(Json.t -> unit) -> Protocol.spec -> outcome
(** Execute one job, streaming per-job telemetry records (trace-event
    lines for run jobs, per-seed run records for fuzz jobs) through
    [telemetry] as they are produced. Never raises: failures come back
    as an ["error"] outcome. *)
