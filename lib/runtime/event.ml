(* The runtime's observation stream. Each engine emits every observable
   occurrence once, as one [t], to the run's single observer; trace,
   profiler, race detector, lock-order witness, coverage collector,
   flight recorder and live metrics are all folds over it.

   An emit site pays one option check when nobody observes, and builds
   the event only when the observer consumes its class. The costly
   context — stacks, block labels, locksets — stays behind the machine's
   [view], so an observer that never asks never pays. *)

type addr =
  | A_global of string
  | A_slot of int * string
  | A_cell of int * int
  | A_block of int

type kind = Read | Write

type t =
  | Decide of { step : int; tid : int; count : int; preemptive : bool }
  | Acquire of { step : int; tid : int; iid : int; lock : string }
  | Request of { step : int; tid : int; iid : int; lock : string }
  | Release of { step : int; tid : int; lock : string; forced : bool }
  | Wait of { step : int; tid : int; event : string }
  | Wake of { step : int; waker : int; woken : int }
  | Spawn of { step : int; parent : int; child : int }
  | Join of { step : int; tid : int; joined : int }
  | Thread_done of { step : int; tid : int }
  | Failure_detected of {
      step : int;
      tid : int;
      site_id : int;
      kind : Conair_ir.Instr.failure_kind;
    }
  | Rollback of { step : int; tid : int; site_id : int; retry : int }
  | Compensate_block of { step : int; tid : int; block : int }
  | Recovered of { step : int; tid : int; site_id : int }
  | Failed of { step : int; tid : int; site_id : int; msg : string }
  | Step of { step : int; tid : int; iid : int; ckpt : bool; woke : bool }
  | Idle of { step : int }
  | Output of { step : int; tid : int; text : string }
  | Checkpoint of { step : int; tid : int; ckpt_id : int }
  | Access of { step : int; tid : int; iid : int; kind : kind; addr : addr }

type view = {
  stack : int -> string list;
  block : int -> string;
  locks : int -> string list;
}

type observer = {
  decisions : bool;
  sync : bool;
  steps : bool;
  accesses : bool;
  on : view -> t -> unit;
}

let observer ?(decisions = false) ?(sync = false) ?(steps = false)
    ?(accesses = false) on =
  { decisions; sync; steps; accesses; on }

(* Each event goes only to the observers of its class: the split is
   made once, when the observers are combined, and a class with one
   observer calls it directly. *)
let rec deliver_all v ev = function
  | [] -> ()
  | o :: os ->
      o.on v ev;
      deliver_all v ev os

let deliver = function [ o ] -> o.on | os -> fun v ev -> deliver_all v ev os

let combine = function
  | [ o ] -> o
  | os ->
      let taking f = List.filter f os in
      let decisions = taking (fun o -> o.decisions)
      and sync = taking (fun o -> o.sync)
      and steps = taking (fun o -> o.steps)
      and accesses = taking (fun o -> o.accesses) in
      let on_decisions = deliver decisions
      and on_sync = deliver sync
      and on_steps = deliver steps
      and on_accesses = deliver accesses in
      {
        decisions = decisions <> [];
        sync = sync <> [];
        steps = steps <> [];
        accesses = accesses <> [];
        on =
          (fun v ev ->
            match ev with
            | Decide _ -> on_decisions v ev
            | Step _ | Idle _ | Output _ | Checkpoint _ -> on_steps v ev
            | Access _ -> on_accesses v ev
            | Acquire _ | Request _ | Release _ | Wait _ | Wake _ | Spawn _
            | Join _ | Thread_done _ | Failure_detected _ | Rollback _
            | Compensate_block _ | Recovered _ | Failed _ ->
                on_sync v ev);
      }
