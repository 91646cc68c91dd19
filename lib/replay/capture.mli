(** One capture path: every artifact derived from a run — the run report
    and its JSONL log, the cost profile, the race report, the schedule
    log, the flight bundle — is a fold over that run's one event stream,
    riding the run it describes.

    A {e lens} is an observer plus the finisher that turns the finished
    run into its artifact. {!run} executes a target once with a lens
    attached; {!pair} combines two lenses, so any set of artifacts comes
    out of a single execution. The flight lens lives next to its
    packaging, in {!Bundle.flight}. *)

open Conair_ir
open Conair_runtime

(** What runs: the code and its recovery metadata ([None] for an
    original, unhardened program). *)
type target = { program : Program.t; meta : Machine.meta option }

(** One finished execution. *)
type run = {
  outcome : Outcome.t;
  outputs : string list;
  stats : Stats.t;
  machine : Engine.machine;
}

(** The run a lens is attached to, known before it starts. *)
type context = { engine : Engine.t; config : Machine.config; target : target }

type 'a t = context -> Event.observer list * (run -> 'a)
(** A lens: for the run about to start, the observers to attach (fresh
    state for every run) and the finisher that turns the finished run
    into the artifact. *)

val run :
  ?config:Machine.config -> ?engine:Engine.t -> 'a t -> target -> run * 'a
(** Execute [target] once with the lens attached. [config] defaults to
    {!Machine.default_config}, [engine] to {!Engine.default}. A lens that
    observes nothing creates the machine without an observer, so a bare
    run stays on the block engine's compiled phases. *)

val none : unit t
(** Observes nothing. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
(** Both lenses on the same run. *)

val maybe : bool -> 'a t -> 'a option t
(** The lens when the flag is set; otherwise observes nothing and
    yields [None]. *)

val only_if : (run -> bool) -> 'a t -> 'a option t
(** The lens observes the run, but its finisher runs only when the
    finished run satisfies the predicate, such as a failed run's bundle;
    otherwise [None]. *)

val observer : Event.observer -> unit t
(** A raw observer beside the others, such as an {!Conair_obs.Coverage}
    collector or the lock-order witness. *)

(** The observed run's telemetry. *)
type run_report = {
  run : run;
  spans : Conair_obs.Span.collector;
      (** the run's recovery spans and the recovery events behind them *)
  metrics : Conair_obs.Metrics.t;
      (** the standard ConAir metric set plus the live event counters *)
  report : Conair_obs.Json.t;  (** the structured run report *)
}

val report :
  ?meta_info:Conair_obs.Jsonl.run_meta ->
  ?trace_writer:Conair_obs.Jsonl.writer ->
  unit ->
  run_report t
(** Live metrics, the recovery-span collector and, with [trace_writer],
    one JSONL record per event (a meta record first when [meta_info] is
    given); then the standard metric set and the structured report. The
    meta record and the report name the engine and say whether the
    target carries recovery metadata ([hardened]). *)

val profile : Conair_obs.Prof.t t
(** The cost profiler, finalized. *)

val detect :
  ?options:Conair_race.Detect.options -> unit -> Conair_race.Report.t t
(** The race/deadlock detector's report. *)

val record : ident:Schedule_log.ident -> Schedule_log.t t
(** A full recording ({!Recorder}) packaged as a self-contained schedule
    log under [ident], which is written as given. *)
