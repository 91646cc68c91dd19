(** ConAir: featherweight concurrency-bug recovery via single-threaded
    idempotent execution (Zhang et al., ASPLOS 2013), reimplemented for the
    Mir IR.

    The typical flow is:

    {[
      let hardened = Conair.harden_exn program Conair.Survival in
      let run = Conair.execute_hardened hardened ~policy:Round_robin in
      (* run.outcome, run.stats.rollbacks, ... *)
    ]}

    Lower-level pieces are re-exported: [Conair.Ir] (the IR and builder),
    [Conair.Analysis] (failure sites, idempotent regions, slicing,
    inter-procedural recovery), [Conair.Transform] (the hardening pass) and
    [Conair.Runtime] (the interpreter with the recovery engine). *)

module Ir = struct
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

module Analysis = struct
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

module Transform = struct
  module Rewrite = Conair_transform.Rewrite
  module Harden = Conair_transform.Harden
  module Report = Conair_transform.Report
  module Annotate = Conair_transform.Annotate
  module Lower = Conair_transform.Lower
end

module Runtime = struct
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

module Race = struct
  module Vclock = Conair_race.Vclock
  module Report = Conair_race.Report
  module Hb = Conair_race.Hb
  module Lockset = Conair_race.Lockset
  module Lockorder = Conair_race.Lockorder
  module Detect = Conair_race.Detect
end

module Obs = struct
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

open Conair_ir
open Conair_analysis
open Conair_runtime

(** The two usage modes of §3.1: survival mode hardens every potential
    failure site; fix mode hardens the instruction ids the user observed
    failing. *)
type mode = Plan.mode = Survival | Fix of int list

type hardened = {
  original : Program.t;
  hardened : Conair_transform.Harden.t;
  plan : Plan.t;
  report : Conair_transform.Report.t;
}

(** Run the full ConAir pipeline: failure-site identification,
    reexecution-point identification, optimization, inter-procedural
    analysis, and the code transformation. *)
let harden ?(analysis = Plan.default_options)
    ?(transform = Conair_transform.Harden.default_options) (p : Program.t)
    (mode : mode) : (hardened, string) result =
  match Plan.analyze ~options:analysis p mode with
  | Error e -> Error e
  | Ok plan ->
      let h = Conair_transform.Harden.apply ~options:transform plan in
      Ok
        {
          original = p;
          hardened = h;
          plan;
          report = Conair_transform.Report.of_harden h;
        }

let harden_exn ?analysis ?transform p mode =
  match harden ?analysis ?transform p mode with
  | Ok h -> h
  | Error e -> invalid_arg ("Conair.harden: " ^ e)

(** One program execution and everything measured about it. [machine] is
    packed per engine; use [Engine.steps] / [Engine.sched] / ... for
    engine-generic access. *)
type run = {
  outcome : Outcome.t;
  outputs : string list;
  stats : Stats.t;
  machine : Engine.machine;
}

let make_run machine outcome =
  {
    outcome;
    outputs = Engine.outputs machine;
    stats = Engine.stats machine;
    machine;
  }

let execute ?(config = Machine.default_config) ?(engine = Engine.default)
    (p : Program.t) : run =
  let machine, outcome = Engine.run_program ~config engine p in
  make_run machine outcome

let execute_hardened ?(config = Machine.default_config)
    ?(engine = Engine.default) (h : hardened) : run =
  let meta = Machine.meta_of_harden h.hardened in
  let machine, outcome =
    Engine.run_program ~config ~meta engine h.hardened.program
  in
  make_run machine outcome

(** One observed execution: the run itself plus every telemetry artifact
    the observability layer derives from it. *)
type run_report = {
  run : run;
  spans : Conair_obs.Span.collector;
      (** the run's recovery spans and the recovery events behind them *)
  metrics : Conair_obs.Metrics.t;
      (** the standard ConAir metric set plus the live event counters *)
  report : Conair_obs.Json.t;  (** the structured run report *)
}

(** Run a program with the full observability layer installed, all of it
    folding the live event stream: live metrics, the span collector, and
    JSONL records streamed to [trace_writer] (meta record first when
    [meta_info] is given); then the structured JSON report. The meta
    record and the report name the engine that ran and whether [meta]
    (a hardening) was installed. *)
let observed_with ~config ~engine ?meta ?meta_info ?trace_writer program :
    run_report =
  let module Jsonl = Conair_obs.Jsonl in
  let hardened = meta <> None in
  let live = Conair_obs.Metrics.create () in
  let spans = Conair_obs.Span.collector () in
  let jsonl =
    let meta =
      Option.map (Jsonl.meta_json ~config ~engine ~hardened) meta_info
    in
    Option.map (Jsonl.observer ?meta) trace_writer
  in
  let m =
    Engine.create ~config ?meta
      ~observer:
        (Event.combine
           (Option.to_list jsonl
           @ [
               Conair_obs.Span.observer spans;
               Conair_obs.Report.live_metrics live;
             ]))
      engine program
  in
  let outcome = Engine.run m in
  let run = make_run m outcome in
  let metrics = Conair_obs.Report.standard_metrics ~into:live run.stats in
  let report =
    Conair_obs.Report.run_json
      ?meta:(Option.map (Jsonl.meta_fields ~engine ~hardened) meta_info)
      ~config
      ~spans:(Conair_obs.Span.spans spans) ~outcome ~outputs:run.outputs
      run.stats
  in
  { run; spans; metrics; report }

let run_observed ?(config = Machine.default_config) ?(engine = Engine.default)
    ?meta_info ?trace_writer (h : hardened) : run_report =
  let meta = Machine.meta_of_harden h.hardened in
  observed_with ~config ~engine ~meta ?meta_info ?trace_writer
    h.hardened.program

(** One fully-observed execution of [p] — hardened per [mode] first when
    one is given, as written when [mode] is [None] — with the same
    pipeline either way: live metrics fed from the event stream,
    optional JSONL streaming to [trace_writer], spans, and the
    structured report. This is the single code path behind both the
    CLI's run/report subcommands and the serve daemon's run jobs, which
    is what makes their reports byte-identical. *)
let run_report_of ?(config = Machine.default_config) ?(engine = Engine.default)
    ?meta_info ?trace_writer ~(mode : mode option) (p : Program.t) :
    run_report =
  match mode with
  | Some mode ->
      run_observed ~config ~engine ?meta_info ?trace_writer (harden_exn p mode)
  | None -> observed_with ~config ~engine ?meta_info ?trace_writer p

(** Run a hardened program with the cost profiler installed and return
    the finalized profile next to the run: per-context useful/checkpoint/
    wasted attribution, per-site rollback waste, flamegraph and Chrome
    counter exports (see [Obs.Prof]). *)
let run_profiled ?(config = Machine.default_config) ?(engine = Engine.default)
    (h : hardened) : run * Conair_obs.Prof.t =
  let meta = Machine.meta_of_harden h.hardened in
  let prof = Conair_obs.Prof.create () in
  let m =
    Engine.create ~config ~meta ~observer:(Conair_obs.Prof.probe prof) engine
      h.hardened.program
  in
  let outcome = Engine.run m in
  Conair_obs.Prof.finalize prof;
  (make_run m outcome, prof)

(** Run a program with the race/deadlock detector installed and return
    the finalized report next to the run. Pass [meta] (from
    [Machine.meta_of_harden]) to detect on a hardened program — the mode
    that matters for fail-stop bugs, where recovery keeps the run alive
    long enough for the conflicting access to execute. *)
let run_detected ?(config = Machine.default_config) ?(engine = Engine.default)
    ?options ?meta (p : Program.t) : run * Conair_race.Report.t =
  let d = Conair_race.Detect.create ?options () in
  let m =
    Engine.create ~config ?meta ~observer:(Conair_race.Detect.probe d) engine p
  in
  let outcome = Engine.run m in
  (make_run m outcome, Conair_race.Detect.report d)

(** [run_detected] on a hardened program with its recovery metadata. *)
let detect_hardened ?config ?engine ?options (h : hardened) =
  run_detected ?config ?engine ?options
    ~meta:(Machine.meta_of_harden h.hardened)
    h.hardened.program

(** Schedule record-and-replay: the scheduler-decision recorder, the
    strict/directed replay feeds, the time-travel inspector and the
    failing-interleaving minimizer (see [docs/REPLAY.md]). *)
module Replay = struct
  module Log = Conair_replay.Schedule_log
  module Recorder = Conair_replay.Recorder
  module Feed = Conair_replay.Feed
  module Driver = Conair_replay.Driver
  module Inspect = Conair_replay.Inspect
  module Minimize = Conair_replay.Minimize
  module Bundle = Conair_replay.Bundle
end

(** Automated fix synthesis: from a race report and a recorded failing
    schedule, candidate patches over Mir, validated through three gates
    (directed replay, regression sweep, deadlock-freedom) and ranked by
    measured cost (see [docs/FIXING.md]). *)
module Fix = struct
  module Patch = Conair_fix.Patch
  module Gates = Conair_fix.Gates
  module Pipeline = Conair_fix.Pipeline
end

(** The schedule-log header's [mode] member for a run in [mode]:
    ["none"] for an unhardened run, ["survival"] or ["fix"]. *)
let mode_name : mode option -> string = function
  | None -> "none"
  | Some Survival -> "survival"
  | Some (Fix _) -> "fix"

(* Record while keeping the machine, so the result is a full facade
   [run] next to the schedule log. [race] observes the same run next to
   the recorder — campaign workers observe schedule coverage (the
   [Obs.Coverage] collector) on the very run they record. *)
let record_into ?config ?engine ?meta ?race ~ident program :
    run * Replay.Log.t =
  let m, rb, log =
    Conair_replay.Driver.run_ring ?engine ?config ?meta ?race ~ident
      (Conair_replay.Recorder.create ()) program
  in
  (make_run m rb.Conair_replay.Driver.rb_outcome, log)

(** [execute] with the schedule recorder installed: the run plus a
    self-contained schedule log that replays it bit-for-bit. *)
let record_run ?config ?engine ?ident ?race (p : Program.t) :
    run * Replay.Log.t =
  let ident =
    match ident with
    | Some i -> i
    | None -> Conair_replay.Schedule_log.ident "program"
  in
  record_into ?config ?engine ?race ~ident p

(** [execute_hardened] with the schedule recorder installed. The default
    ident carries the plan's mode ("survival" or "fix"). *)
let run_recorded ?config ?engine ?ident ?race (h : hardened) :
    run * Replay.Log.t =
  let ident =
    match ident with
    | Some i -> i
    | None ->
        Conair_replay.Schedule_log.ident
          ~mode:(mode_name (Some h.plan.Plan.mode))
          "program"
  in
  record_into ?config ?engine ?race
    ~meta:(Machine.meta_of_harden h.hardened)
    ~ident h.hardened.program

(** Run with the flight recorder attached: the run plus the diagnostic
    bundle its ring retained — the always-on post-mortem artifact. The
    ring observes decisions and sync events only, which keeps the block
    engine on its compiled phases, so this is cheap enough to leave on
    everywhere. *)
let run_flight ?config ?engine ?meta ?cap ?reason ~ident program :
    run * Replay.Bundle.t =
  let m, outcome, bundle =
    Conair_replay.Bundle.capture ?engine ?config ?meta ?cap ?reason ~ident
      program
  in
  (make_run m outcome, bundle)

(* [p] as a run in [mode] executes it: hardened per mode with its
   recovery metadata, or as written. *)
let in_mode mode p =
  match mode with
  | None -> (p, None)
  | Some mode ->
      let h = harden_exn p mode in
      (h.hardened.program, Some (Machine.meta_of_harden h.hardened))

let with_mode mode (ident : Replay.Log.ident) =
  { ident with Conair_replay.Schedule_log.id_mode = mode_name mode }

(** The schedule log of [p] run in [mode]. *)
let record_in_mode ~config ~engine ~ident mode p : Replay.Log.t =
  let program, meta = in_mode mode p in
  snd (record_into ~config ~engine ?meta ~ident:(with_mode mode ident) program)

(** The flight bundle of [p] run in [mode]. *)
let flight_in_mode ~config ~engine ~reason ~ident mode p : Replay.Bundle.t =
  let program, meta = in_mode mode p in
  snd
    (run_flight ~config ~engine ?meta ~reason ~ident:(with_mode mode ident)
       program)

(** Regenerate a diagnostic bundle from a recorded schedule log by
    deterministic re-run — how the fuzzer attaches a post-mortem bundle
    to each unique finding it already holds as a log. *)
let flight_of_log ?cap ?(reason = "finding") (log : Replay.Log.t) :
    (Replay.Bundle.t, string) result =
  let ( let* ) = Result.bind in
  let* program = Conair_replay.Schedule_log.program log in
  let* engine = Engine.of_string log.Conair_replay.Schedule_log.engine in
  let _, _, bundle =
    Conair_replay.Bundle.capture ~engine
      ~config:log.Conair_replay.Schedule_log.config
      ?meta:(Conair_replay.Schedule_log.machine_meta log)
      ?cap ~reason ~ident:log.Conair_replay.Schedule_log.ident program
  in
  Ok bundle

(** The canonical interleaving signature of a recorded run: the
    [Obs.Coverage] digest over the log's preemption-point sequence,
    contextualized by the recorded ident and program MD5 (so identical
    shapes of different programs stay distinct). Pass the per-address
    access orders of an [Obs.Coverage] collector that watched the run to
    sharpen the signature with data-access ordering. Engine-independent:
    the log's decision stream and the collector's event stream are
    byte-identical across ref/fast/block. *)
let interleaving_signature ?orders (log : Replay.Log.t) : string =
  let ident = log.Conair_replay.Schedule_log.ident in
  Conair_obs.Coverage.signature
    ~context:
      (Printf.sprintf "%s/%s/%s" ident.Conair_replay.Schedule_log.id_app
         ident.Conair_replay.Schedule_log.id_variant
         log.Conair_replay.Schedule_log.program_md5)
    ?orders
    ~decisions:log.Conair_replay.Schedule_log.decisions
    ~preemptions:log.Conair_replay.Schedule_log.preemptions ()

(** Re-execute a recorded schedule on either engine, detecting any
    divergence from the recording as a structured error. *)
let replay ?engine ?program ?meta (log : Replay.Log.t) =
  Conair_replay.Driver.replay ?engine ?program ?meta log

(** Shrink a failing recorded schedule to a locally minimal set of
    preemptions that still reproduces the failure. *)
let minimize ?max_tests ?detect ?program ?meta (log : Replay.Log.t) =
  Conair_replay.Minimize.minimize ?max_tests ?detect ?program ?meta log

(** A recovery trial in the style of §5: run the hardened program [runs]
    times (varying the random-scheduler seed) and report how many runs
    finished successfully with acceptable outputs. *)
type trial = {
  runs : int;
  recovered : int;
  total_rollbacks : int;
  max_recovery_steps : int;
}

(** ConSeq-style profile-based site pruning (§3.4: "use dynamic technique
    like ConSeq to prune well tested potential failure sites").

    [profile_sites] runs the *original* program [runs] times (varying the
    random seed when the policy is random) with a per-step observer
    counting executions per instruction, and returns, for each
    survival-mode failure site, how often its instruction executed
    across runs where the program succeeded.

    [well_tested ~threshold] extracts the site iids executed at least
    [threshold] times — candidates for exclusion via
    [Plan.options.exclude_iids]. The trade-off is real and demonstrated in
    the tests and the A6 ablation: a hidden bug at a well-tested site
    loses its recovery. *)
type site_profile = {
  site : Analysis.Site.t;
  executions : int;  (** across the profiled successful runs *)
}

let profile_sites ?(config = Machine.default_config) ?(runs = 5)
    (p : Program.t) : site_profile list =
  let sites = Conair_analysis.Find_sites.survival p in
  let totals = Hashtbl.create 64 in
  for i = 1 to runs do
    let config =
      {
        config with
        policy =
          (match config.policy with
          | Sched.Random seed -> Sched.Random (seed + i)
          | Sched.Round_robin -> Sched.Round_robin);
      }
    in
    let hits = Hashtbl.create 64 in
    let count _ = function
      | Event.Step { iid; _ } when iid >= 0 ->
          Hashtbl.replace hits iid
            (1 + Option.value ~default:0 (Hashtbl.find_opt hits iid))
      | _ -> ()
    in
    let _, outcome =
      Engine.run_program ~config ~observer:(Event.observer ~steps:true count)
        Engine.default p
    in
    if Outcome.is_success outcome then
      List.iter
        (fun (s : Conair_analysis.Site.t) ->
          let n = Option.value ~default:0 (Hashtbl.find_opt hits s.iid) in
          Hashtbl.replace totals s.site_id
            (n + Option.value ~default:0 (Hashtbl.find_opt totals s.site_id)))
        sites
  done;
  List.map
    (fun (s : Conair_analysis.Site.t) ->
      {
        site = s;
        executions = Option.value ~default:0 (Hashtbl.find_opt totals s.site_id);
      })
    sites

let well_tested ?(threshold = 1) (profiles : site_profile list) : int list =
  List.filter_map
    (fun pr -> if pr.executions >= threshold then Some pr.site.iid else None)
    profiles

let recovery_trial ?(config = Machine.default_config) ?(runs = 50)
    ?(accept = fun (_ : string list) -> true) (h : hardened) : trial =
  let recovered = ref 0 and rollbacks = ref 0 and max_rec = ref 0 in
  for i = 1 to runs do
    let config =
      match config.policy with
      | Sched.Random seed -> { config with policy = Sched.Random (seed + i) }
      | Sched.Round_robin -> config
    in
    let r = execute_hardened ~config h in
    if Outcome.is_success r.outcome && accept r.outputs then incr recovered;
    rollbacks := !rollbacks + r.stats.rollbacks;
    max_rec := max !max_rec (Stats.max_recovery_time r.stats)
  done;
  {
    runs;
    recovered = !recovered;
    total_rollbacks = !rollbacks;
    max_recovery_steps = !max_rec;
  }
