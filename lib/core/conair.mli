(** ConAir: featherweight concurrency-bug recovery via single-threaded
    idempotent execution (Zhang, de Kruijf, Li, Lu, Sankaralingam —
    ASPLOS 2013), reimplemented for the Mir IR.

    The typical flow:

    {[
      let hardened = Conair.harden_exn program Conair.Survival in
      let run = Conair.execute_hardened hardened in
      (* run.outcome = Success; run.stats.rollbacks counts recoveries *)
      let run, (rr, log) =
        Conair.run
          (Conair.pair (Conair.report ()) (Conair.record ~ident))
          (Conair.hardened_target hardened)
      in
      (* one more execution, observed: its report and its schedule log *)
    ]}

    The four layers are re-exported below: {!Ir} (the IR, builder and text
    syntax), {!Analysis} (failure sites, idempotent regions, slicing,
    inter-procedural recovery), {!Transform} (the hardening pass) and
    {!Runtime} (the interpreter with the recovery engine). *)

module Ir : sig
  module Ident = Conair_ir.Ident
  module Value = Conair_ir.Value
  module Instr = Conair_ir.Instr
  module Block = Conair_ir.Block
  module Func = Conair_ir.Func
  module Program = Conair_ir.Program
  module Builder = Conair_ir.Builder
  module Cfg = Conair_ir.Cfg
  module Validate = Conair_ir.Validate
  module Emit = Conair_ir.Emit
  module Parse = Conair_ir.Parse
end

module Analysis : sig
  module Site = Conair_analysis.Site
  module Find_sites = Conair_analysis.Find_sites
  module Region = Conair_analysis.Region
  module Slice = Conair_analysis.Slice
  module Optimize = Conair_analysis.Optimize
  module Callgraph = Conair_analysis.Callgraph
  module Interproc = Conair_analysis.Interproc
  module Plan = Conair_analysis.Plan
  module Prune = Conair_analysis.Prune
  module Viz = Conair_analysis.Viz
end

module Transform : sig
  module Rewrite = Conair_transform.Rewrite
  module Harden = Conair_transform.Harden
  module Report = Conair_transform.Report
  module Annotate = Conair_transform.Annotate
  module Lower = Conair_transform.Lower
end

module Runtime : sig
  module Outcome = Conair_runtime.Outcome
  module Heap = Conair_runtime.Heap
  module Locks = Conair_runtime.Locks
  module Link = Conair_runtime.Link
  module Thread = Conair_runtime.Thread
  module Sched = Conair_runtime.Sched
  module Stats = Conair_runtime.Stats
  module Machine = Conair_runtime.Machine
  module Ref_machine = Conair_runtime.Ref_machine
  module Compile = Conair_runtime.Compile
  module Block_machine = Conair_runtime.Block_machine
  module Engine = Conair_runtime.Engine
  module Event = Conair_runtime.Event
  module Flight_ring = Conair_runtime.Flight_ring
end

(** The dynamic race and deadlock detector: an online probe on either
    engine feeding three lenses — FastTrack-style happens-before race
    detection ([Hb]), Eraser-style lockset discipline checking
    ([Lockset]) and a lock-order graph with cycle detection
    ([Lockorder]). See [docs/DETECTION.md]. *)
module Race : sig
  module Vclock = Conair_race.Vclock
  module Report = Conair_race.Report
  module Hb = Conair_race.Hb
  module Lockset = Conair_race.Lockset
  module Lockorder = Conair_race.Lockorder
  module Detect = Conair_race.Detect
end

(** The observability layer: JSON encoding, streaming JSONL event logs,
    the metrics registry, recovery spans (with Chrome trace-event
    export), structured run reports, the deterministic cost profiler
    ([Prof]), the paper-style overhead harness ([Overhead]), and the
    cross-run aggregator ([Aggregate]). See [docs/OBSERVABILITY.md]. *)
module Obs : sig
  module Json = Conair_obs.Json
  module Jsonl = Conair_obs.Jsonl
  module Metrics = Conair_obs.Metrics
  module Span = Conair_obs.Span
  module Report = Conair_obs.Report
  module Prof = Conair_obs.Prof
  module Overhead = Conair_obs.Overhead
  module Aggregate = Conair_obs.Aggregate
  module Coverage = Conair_obs.Coverage
  module Campaign = Conair_obs.Campaign
end

(** The two usage modes of §3.1: survival mode hardens every potential
    failure site against hidden bugs; fix mode hardens the instruction ids
    a user observed failing — a safe temporary patch for a bug whose root
    cause is unknown. *)
type mode = Conair_analysis.Plan.mode = Survival | Fix of int list

type hardened = {
  original : Conair_ir.Program.t;
  hardened : Conair_transform.Harden.t;
  plan : Conair_analysis.Plan.t;
  report : Conair_transform.Report.t;
}

val harden :
  ?analysis:Conair_analysis.Plan.options ->
  ?transform:Conair_transform.Harden.options ->
  Conair_ir.Program.t ->
  mode ->
  (hardened, string) result
(** The full static pipeline: failure-site identification,
    reexecution-point identification, optimization, inter-procedural
    analysis, and the code transformation. *)

val harden_exn :
  ?analysis:Conair_analysis.Plan.options ->
  ?transform:Conair_transform.Harden.options ->
  Conair_ir.Program.t ->
  mode ->
  hardened
(** @raise Invalid_argument on bad fix-mode sites. *)

(** One program execution and everything measured about it. [machine] is
    packed per engine; use {!Runtime.Engine} accessors for
    engine-generic access, or match on the constructor for
    engine-specific state.

    Every function here that takes [?engine] runs on
    {!Runtime.Engine.default} — the block engine — when none is given.
    All engines produce identical runs; the choice only changes speed. *)
type run = Conair_replay.Capture.run = {
  outcome : Conair_runtime.Outcome.t;
  outputs : string list;
  stats : Conair_runtime.Stats.t;
  machine : Conair_runtime.Engine.machine;
}

(** {1 One capture path}

    Every artifact derived from a run is a fold over its one event
    stream. A {e lens} is an observer plus the finisher that turns the
    finished run into its artifact; {!run} executes a target once with
    a lens attached, and {!pair} combines lenses, so any set of
    artifacts comes out of a single execution:

    {[
      let r, (rr, log) =
        Conair.run
          (Conair.pair (Conair.report ()) (Conair.record ~ident))
          (Conair.target ~mode:Conair.Survival program)
      in
      (* rr.report, rr.spans, log: all of the one run r *)
    ]} *)

(** What runs: the code and its recovery metadata ([None] for an
    original program). *)
type target = Conair_replay.Capture.target = {
  program : Conair_ir.Program.t;
  meta : Conair_runtime.Machine.meta option;
}

val target : ?mode:mode -> Conair_ir.Program.t -> target
(** The program hardened per [mode] (once) when a mode is given, as
    written when not. *)

val hardened_target : hardened -> target
(** The hardened program with its recovery metadata. *)

type 'a lens = 'a Conair_replay.Capture.t

val run :
  ?config:Conair_runtime.Machine.config ->
  ?engine:Conair_runtime.Engine.t ->
  'a lens ->
  target ->
  run * 'a
(** Execute the target once with the lens attached ({!Replay.Capture.run}).
    A lens that observes nothing ({!none}) installs no observer, so the
    block engine keeps its compiled phases. *)

val none : unit lens
val pair : 'a lens -> 'b lens -> ('a * 'b) lens

val maybe : bool -> 'a lens -> 'a option lens
(** The lens when the flag is set, else nothing and [None]. *)

val only_if : (run -> bool) -> 'a lens -> 'a option lens
(** The lens observes the run; its artifact is made only when the
    finished run satisfies the predicate, else [None]. *)

val observer : Conair_runtime.Event.observer -> unit lens
(** A raw observer — a coverage collector, a step counter — on the run. *)

(** One observed execution: the run itself plus every telemetry artifact
    the observability layer derives from it. *)
type run_report = Conair_replay.Capture.run_report = {
  run : run;
  spans : Conair_obs.Span.collector;
      (** the run's recovery spans and the recovery events behind them:
          read with {!Conair_obs.Span.spans}, {!Conair_obs.Span.to_chrome}
          and {!Conair_obs.Span.pp_recovery_summary} *)
  metrics : Conair_obs.Metrics.t;
      (** the standard ConAir metric set plus the live event counters *)
  report : Conair_obs.Json.t;  (** the structured run report *)
}

val report :
  ?meta_info:Conair_obs.Jsonl.run_meta ->
  ?trace_writer:Conair_obs.Jsonl.writer ->
  unit ->
  run_report lens
(** The observability layer, all of it folding the event stream as the
    machine runs: live metrics, the recovery-span collector, and one
    JSONL record per event written to [trace_writer] (preceded by a meta
    record when [meta_info] is given). After the run come the standard
    metric set and a structured JSON report. The meta record and the
    report name the engine that ran and say [hardened] exactly when the
    target carries recovery metadata. The CLI's run/report subcommands
    and the serve daemon's run jobs both use this lens, which is what
    makes their reports byte-identical. *)

val profile : Conair_obs.Prof.t lens
(** The cost profiler, finalized: per-context useful/checkpoint/wasted
    attribution, per-site rollback waste, and the flamegraph / Chrome
    counter exports of {!Obs.Prof}. *)

val detect :
  ?options:Conair_race.Detect.options -> unit -> Conair_race.Report.t lens
(** The race/deadlock detector's finalized report. Reports are
    deterministic in (program, config, policy, seed) and identical
    across both engines. On a hardened target — the mode that
    matters for fail-stop bugs — recovery keeps the run alive long
    enough for the conflicting access to execute (§6: recovery masks the
    symptom; detection un-masks the root cause). *)

val record :
  ident:Conair_replay.Schedule_log.ident -> Conair_replay.Schedule_log.t lens
(** The schedule recorder: a self-contained schedule log (embedded
    program, config, decision stream, result trailer) that replays the
    run bit-for-bit on any engine. [ident] is written as given. *)

val flight :
  ?cap:int ->
  ?reason:string ->
  ident:Conair_replay.Schedule_log.ident ->
  unit ->
  Conair_replay.Bundle.t lens
(** The flight recorder: the diagnostic bundle its ring retained (the
    schedule log's window — decision tail, preemptions, header and
    trailer — plus per-thread locksets, sync/recovery events and episode
    spans; see {!Replay.Bundle}). [cap] sizes the decision ring (default
    {!Runtime.Flight_ring.default_capacity}); [reason] defaults to
    ["requested"]; [ident] is written as given. The ring keeps the block
    engine on its compiled phases, so this is cheap enough to leave
    always on (the [@perf] gate holds it within 5% of a bare run). *)

val mode_name : mode option -> string
(** A run's [mode] as a schedule-log ident writes it: ["none"] for an
    unhardened run, ["survival"] or ["fix"]. *)

(** {2 Single-lens shorthands}

    Each is one application of {!run}. *)

val execute :
  ?config:Conair_runtime.Machine.config ->
  ?engine:Conair_runtime.Engine.t ->
  Conair_ir.Program.t ->
  run
(** Run an (unhardened) program with {!none}. *)

val execute_hardened :
  ?config:Conair_runtime.Machine.config ->
  ?engine:Conair_runtime.Engine.t ->
  hardened ->
  run
(** Run a hardened program with the recovery metadata installed: the
    production run of the hardened program. *)

val run_observed :
  ?config:Conair_runtime.Machine.config ->
  ?engine:Conair_runtime.Engine.t ->
  ?meta_info:Conair_obs.Jsonl.run_meta ->
  ?trace_writer:Conair_obs.Jsonl.writer ->
  hardened ->
  run_report
(** {!execute_hardened} with the {!report} lens. *)

val run_profiled :
  ?config:Conair_runtime.Machine.config ->
  ?engine:Conair_runtime.Engine.t ->
  hardened ->
  run * Conair_obs.Prof.t
(** {!execute_hardened} with the {!profile} lens. *)

val detect_hardened :
  ?config:Conair_runtime.Machine.config ->
  ?engine:Conair_runtime.Engine.t ->
  ?options:Conair_race.Detect.options ->
  hardened ->
  run * Conair_race.Report.t
(** {!execute_hardened} with the {!detect} lens. *)

val record_run :
  ?config:Conair_runtime.Machine.config ->
  ?engine:Conair_runtime.Engine.t ->
  ?ident:Conair_replay.Schedule_log.ident ->
  ?race:Conair_runtime.Event.observer ->
  Conair_ir.Program.t ->
  run * Conair_replay.Schedule_log.t
(** {!execute} with the {!record} lens (default ident ["program"]);
    [race] rides the same run as an {!observer}. *)

val run_recorded :
  ?config:Conair_runtime.Machine.config ->
  ?engine:Conair_runtime.Engine.t ->
  ?ident:Conair_replay.Schedule_log.ident ->
  ?race:Conair_runtime.Event.observer ->
  hardened ->
  run * Conair_replay.Schedule_log.t
(** {!execute_hardened} with the {!record} lens. The default ident
    carries the plan's mode ("survival" or "fix"). *)

val run_flight :
  ?config:Conair_runtime.Machine.config ->
  ?engine:Conair_runtime.Engine.t ->
  ?meta:Conair_runtime.Machine.meta ->
  ?cap:int ->
  ?reason:string ->
  ident:Conair_replay.Schedule_log.ident ->
  Conair_ir.Program.t ->
  run * Conair_replay.Bundle.t
(** The program (with [meta], when hardened) under the {!flight} lens. *)

val flight_of_log :
  ?cap:int ->
  ?reason:string ->
  Conair_replay.Schedule_log.t ->
  (Conair_replay.Bundle.t, string) result
(** Regenerate a diagnostic bundle from a recorded schedule log by
    deterministic re-run under the log's embedded program, config and
    engine. [reason] defaults to ["finding"] — the fuzzer uses this to
    attach a post-mortem bundle to each unique finding in its corpus.
    Fails when the log carries no program (or one that does not hash to
    its MD5) or names an unknown engine. *)

(** ConSeq-style profile-based site pruning (§3.4): per-site execution
    counts over clean profiling runs of the original program. *)
type site_profile = {
  site : Conair_analysis.Site.t;
  executions : int;  (** across the profiled successful runs *)
}

val profile_sites :
  ?config:Conair_runtime.Machine.config ->
  ?runs:int ->
  Conair_ir.Program.t ->
  site_profile list

val well_tested : ?threshold:int -> site_profile list -> int list
(** Site iids executed at least [threshold] times — candidates for
    {!Conair_analysis.Plan.options.exclude_iids}. Beware the trade-off:
    a hidden bug at a well-tested site loses its recovery. *)

(** Schedule record-and-replay: the scheduler-decision recorder, the
    strict/directed replay feeds, the time-travel inspector, the
    failing-interleaving minimizer and the flight bundle (a schedule
    log's window plus post-mortem state). Runs are deterministic in (program,
    config, policy, seed), so the chosen-thread stream is a complete
    witness of an execution: recording it makes any run — in particular a
    one-in-a-thousand failing interleaving from the fuzzer —
    reproducible, inspectable at any step, and minimizable to the few
    context switches that actually cause the failure. See
    [docs/REPLAY.md]. *)
module Replay : sig
  module Log = Conair_replay.Schedule_log
  module Recorder = Conair_replay.Recorder
  module Feed = Conair_replay.Feed
  module Driver = Conair_replay.Driver
  module Inspect = Conair_replay.Inspect
  module Minimize = Conair_replay.Minimize
  module Bundle = Conair_replay.Bundle
  module Capture = Conair_replay.Capture
end

(** Automated fix synthesis — closing the detect → explain → repair
    loop: {!Fix.Patch} synthesizes candidate patches (lock ladder,
    order enforcement, lock fusion) from a {!Race.Report} over the Mir
    program, {!Fix.Gates} validates each against the recorded failing
    schedule, a multi-seed regression sweep and the deadlock-freedom
    lens, and {!Fix.Pipeline} runs the whole loop end to end and ranks
    survivors by measured cost. See [docs/FIXING.md]. *)
module Fix : sig
  module Patch = Conair_fix.Patch
  module Gates = Conair_fix.Gates
  module Pipeline = Conair_fix.Pipeline
end

val interleaving_signature : ?orders:(string * string) list ->
  Replay.Log.t -> string
(** The canonical interleaving signature of a recorded run
    ({!Obs.Coverage.signature} over the log's preemption-point sequence,
    contextualized by its ident and program MD5; [orders] adds a
    collector's per-address access orders). Byte-identical across
    engines and coordinator restarts — the campaign dedupe key. *)

val replay :
  ?engine:Conair_runtime.Engine.t ->
  ?program:Conair_ir.Program.t ->
  ?meta:Conair_runtime.Machine.meta ->
  Replay.Log.t ->
  (Replay.Driver.result_bundle, Replay.Driver.error) result
(** Re-execute a recorded schedule with divergence detection; see
    {!Replay.Driver.replay}. *)

val minimize :
  ?max_tests:int ->
  ?detect:bool ->
  ?program:Conair_ir.Program.t ->
  ?meta:Conair_runtime.Machine.meta ->
  Replay.Log.t ->
  (Replay.Minimize.t, string) result
(** Shrink a failing recorded schedule to a locally minimal set of
    preemptions that still reproduces the failure; see
    {!Replay.Minimize.minimize}. *)

(** A recovery trial in the style of §5: run the hardened program many
    times (varying the random seed) and count successful, accepted runs. *)
type trial = {
  runs : int;
  recovered : int;
  total_rollbacks : int;
  max_recovery_steps : int;
}

val recovery_trial :
  ?config:Conair_runtime.Machine.config ->
  ?runs:int ->
  ?accept:(string list -> bool) ->
  hardened ->
  trial
