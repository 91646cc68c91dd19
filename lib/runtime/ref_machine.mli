(** The reference Mir interpreter: the original map-based implementation,
    kept as the semantic oracle for the block-compiled engine
    ([Block_machine]).

    It interprets the source [Program.t] directly (persistent register
    maps, label lookups, a thread-table fold per step) and must agree
    bit-for-bit with [Block_machine] — same outcomes, outputs, step
    counts, traces and statistics on every program and every scheduling
    policy. The differential test enforces this across the bugbench
    catalog and generated programs; the bench's interp mode measures
    the block engine's speedup over it.

    Deliberately slow — do not optimize. *)

open Conair_ir

type config = Machine.config
type meta = Machine.meta
type t

val create :
  ?config:config ->
  ?meta:meta ->
  ?observer:Event.observer ->
  ?tap:(chosen:int -> eligible:int list -> unit) ->
  ?feed:Sched.feed ->
  Program.t ->
  t
(** Same as [Machine.create]. The observer sees the same event stream,
    with the same names, as the block engine's — traces, profiles and race
    reports are part of the bit-for-bit differential guarantee. *)

val outputs : t -> string list
(** In emission order. *)

val sched : t -> Sched.t
(** The machine's scheduler — the attach point for the record/replay
    hooks ({!Sched.set_tap}, {!Sched.set_feed}). *)

val stats : t -> Stats.t
val outcome : t -> Outcome.t option

val thread_summaries : t -> (int * string * string list) list
(** Same contract (and byte-identical output) as
    [Machine.thread_summaries]. *)

val steps : t -> int
(** Virtual time: scheduler steps taken so far (idle ticks included). *)

val step : t -> bool
(** Run one scheduler step; [false] once the program has finished. *)

val run : t -> Outcome.t
