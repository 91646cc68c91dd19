(** The block-compiled engine: [Machine]'s state and semantics driven
    through [Compile]'s threaded code.

    The state is a plain [Machine.t]; the driver retires maximal
    straight-line runs of compiled closures in a tight loop whenever the
    scheduler has no choice to make (exactly one eligible thread) and the
    run is not {!hooked}, consulting the scheduler and replay tap/feed
    only at schedulable operations — exactly where [Machine] makes
    visible decisions. Everything observable (outcomes, outputs, step
    counts, stats, traces, profiles, race reports, JSONL telemetry,
    schedule logs) is bit-for-bit identical to [Machine] and
    [Ref_machine]. An observer of decisions and sync events only — a flight ring, a
    full recording ([Conair_replay.Recorder]), the lock-order witness —
    rides the window path: the window emits every sync event, its
    decisions as one counted {!Event.Decide}. The three-way differential
    suite in [test_fast_exec.ml] enforces the identity over the bugbench
    catalog. *)

open Conair_ir

type t

type config = Machine.config
type meta = Machine.meta

val create :
  ?config:config ->
  ?meta:meta ->
  ?observer:Event.observer ->
  ?tap:(chosen:int -> eligible:int list -> unit) ->
  ?feed:(eligible:int list -> int) ->
  Program.t ->
  t
(** Link and block-compile the program; the main thread is ready to
    run. The optional arguments are [Machine.create]'s. *)

val machine : t -> Machine.t
(** The underlying machine state (shared, not a copy). *)

val hooked : Machine.t -> bool
(** Does the observer consume per-step or access events, or is a
    scheduler tap or feed attached? Then every step takes [Machine]'s
    generic path. *)

val outputs : t -> string list
(** In emission order. *)

val stats : t -> Stats.t
val thread_summaries : t -> (int * string * string list) list
val sched : t -> Sched.t
val outcome : t -> Outcome.t option

val steps : t -> int
(** Virtual time: scheduler steps taken so far (idle ticks included). *)

val step : t -> bool
(** One generic scheduler step ([Machine.step] on the shared state);
    [false] once the program has finished. Single-stepping never uses
    the compiled fast path — it exists for inspection loops where
    per-step control matters more than throughput. *)

val run : t -> Outcome.t
(** Run to completion or until the fuel runs out, using the compiled
    fast path wherever the scheduler's choice is forced and the run is
    not {!hooked}. *)
