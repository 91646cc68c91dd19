(** The time-travel inspector: reconstruct the machine state at any
    virtual-time step of a recorded run.

    One forward replay drops a waypoint (whole-machine snapshot +
    scheduler rng/cursor state) every [stride] decisions; {!state_at}
    restores the nearest waypoint at or before the requested step into a
    fresh machine and strict-replays forward. The state reported for
    step N is the state *before* the instruction at virtual time N
    executes. *)

open Conair_runtime
module Json = Conair_obs.Json

type t

val default_stride : int
(** 512 decisions between waypoints. *)

val create :
  ?stride:int ->
  ?program:Conair_ir.Program.t ->
  ?meta:Machine.meta ->
  Schedule_log.t ->
  (t, string) result
(** Run the forward waypoint pass. Fails if the log does not replay
    cleanly (wrong program, corrupted decisions). *)

val final_step : t -> int
(** Virtual time when the recorded run ended. *)

val outcome : t -> Outcome.t

val waypoints : t -> int list
(** The decision ordinals the forward pass dropped a waypoint at,
    ascending: every [stride]th decision from 0. *)

val state_at : t -> int -> (Json.t, string) result
(** The machine state before step N: per-thread status, stacks with
    named registers, held locks, checkpoints and recovery state, plus
    globals, lock owners and outputs so far. *)

val render : Json.t -> string
(** A terminal-friendly rendering of a {!state_at} document. *)
