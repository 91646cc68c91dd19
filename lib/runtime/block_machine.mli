(** The block-compiled engine: [Machine]'s state and runtime driven
    through [Compile]'s threaded code, each block compiled on first
    entry. It runs every execution but the reference's.

    The state is a plain [Machine.t]. When the run is not {!hooked} the
    driver scans eligibility once per phase — a stretch over which no
    thread can become eligible or ineligible — instead of once per
    step. With one eligible thread it retires maximal runs of compiled
    closures without consulting the scheduler; with several it makes
    the scheduler's decision on every step over the fixed eligible list and
    retires the chosen thread's step: a step its register-only code
    already ran ahead of the clock, as fused chains, is settled without
    running code, and anything else runs through its compiled
    single-step form; with none it takes the idle ticks in bulk. A phase
    ends at a schedulable operation, a thread death, a fault, a decided
    outcome, the fuel, or the earliest time-based wake of an ineligible
    thread. Everything observable (outcomes, outputs, step counts,
    stats, traces, profiles, race reports, JSONL telemetry, schedule
    logs) is bit-for-bit identical to [Ref_machine].
    Every observer rides the phases: they emit every sync event and
    every decision, a one-thread window's decisions as one counted
    {!Event.Decide}; the compiled memory links emit every access; and
    under an observer of per-step events a phase retires one
    instruction at a time through its single-step form, announcing
    each with its {!Event.Step}. A feed ({!Sched.feed}) rides them
    too: a contended phase asks it for every decision, and a window
    asks it once how many decisions it accepts and tells it once how
    many were taken. Under a feed, a tap or an observer of per-step
    events no code runs ahead of the clock. A tap ({!hooked})
    sends every step through {!step}, which is also the engine's
    single step. The differential suite in [test_fast_exec.ml] enforces
    the identity with [Ref_machine] over the bugbench catalog and
    generated programs. *)

open Conair_ir

type t

type config = Machine.config
type meta = Machine.meta

val create :
  ?config:config ->
  ?meta:meta ->
  ?observer:Event.observer ->
  ?tap:(chosen:int -> eligible:int list -> unit) ->
  ?feed:Sched.feed ->
  Program.t ->
  t
(** Link the program and take its image's code object (blocks compile
    as threads first enter them); the main thread is ready to run. The
    optional arguments are [Machine.create]'s. *)

val machine : t -> Machine.t
(** The underlying machine state (shared, not a copy). *)

val hooked : Machine.t -> bool
(** Is a scheduler tap attached? A tap hears every decision with its
    eligible list, so it sends every step of a run through {!step}.
    Observers and feeds never hook a run. *)

val outputs : t -> string list
(** In emission order. *)

val stats : t -> Stats.t
val thread_summaries : t -> (int * string * string list) list
val sched : t -> Sched.t
val outcome : t -> Outcome.t option

val steps : t -> int
(** Virtual time: scheduler steps taken so far (idle ticks included). *)

val step : t -> bool
(** One scheduler step: one idle tick (or the hang), or one decision
    whose thread settles a step it ran ahead or retires one instruction
    through its compiled single-step form. [false] once the program has
    finished. It never checks the fuel, which a stepping loop must test
    as {!run} does; [k] steps and then {!run} end as a plain {!run}. *)

val reseed : ?perturb:bool -> t -> Sched.policy -> t
(** [Machine.reseed] on the underlying state, keeping the compiled
    code. *)

val run : t -> Outcome.t
(** Run to completion or until the fuel runs out, phase by phase on the
    compiled code unless the run is {!hooked}. An exception a feed
    raises ([Conair_replay.Feed.Diverged]) propagates with the steps
    before its decision counted, as [Ref_machine.run] leaves them. *)
