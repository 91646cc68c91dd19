(* A structured execution trace: what the scheduler ran and what the
   recovery engine did, as typed events. Off by default (tracing costs
   memory); the trace is a view of the machine's observation stream
   ([Event]) in the vocabulary of the JSONL event-log format —
   scheduling, blocking, failures, checkpoints, rollbacks and
   compensations — giving tests something to assert order on and users
   an audit trail of a recovery ("which thread rolled back, how often,
   what was released"). *)

type event =
  | Ev_schedule of { step : int; tid : int }
  | Ev_block of { step : int; tid : int; lock : string }
  | Ev_wake of { step : int; tid : int }
  | Ev_spawn of { step : int; parent : int; child : int }
  | Ev_thread_done of { step : int; tid : int }
  | Ev_output of { step : int; tid : int; text : string }
  | Ev_checkpoint of { step : int; tid : int; ckpt_id : int }
  | Ev_failure_detected of {
      step : int;
      tid : int;
      site_id : int;
      kind : Conair_ir.Instr.failure_kind;
    }
  | Ev_rollback of { step : int; tid : int; site_id : int; retry : int }
  | Ev_compensate_lock of { step : int; tid : int; lock : string }
  | Ev_compensate_block of { step : int; tid : int; block : int }
  | Ev_recovered of { step : int; tid : int; site_id : int }
  | Ev_fail_stop of { step : int; tid : int; site_id : int }

let pp_event ppf = function
  | Ev_schedule { step; tid } -> Format.fprintf ppf "[%d] run t%d" step tid
  | Ev_block { step; tid; lock } ->
      Format.fprintf ppf "[%d] t%d blocks on %s" step tid lock
  | Ev_wake { step; tid } -> Format.fprintf ppf "[%d] t%d wakes" step tid
  | Ev_spawn { step; parent; child } ->
      Format.fprintf ppf "[%d] t%d spawns t%d" step parent child
  | Ev_thread_done { step; tid } ->
      Format.fprintf ppf "[%d] t%d done" step tid
  | Ev_output { step; tid; text } ->
      Format.fprintf ppf "[%d] t%d outputs %S" step tid text
  | Ev_checkpoint { step; tid; ckpt_id } ->
      Format.fprintf ppf "[%d] t%d checkpoint #%d" step tid ckpt_id
  | Ev_failure_detected { step; tid; site_id; kind } ->
      Format.fprintf ppf "[%d] t%d detects %a at site %d" step tid
        Conair_ir.Instr.pp_failure_kind kind site_id
  | Ev_rollback { step; tid; site_id; retry } ->
      Format.fprintf ppf "[%d] t%d rolls back for site %d (retry %d)" step
        tid site_id retry
  | Ev_compensate_lock { step; tid; lock } ->
      Format.fprintf ppf "[%d] t%d compensates: releases %s" step tid lock
  | Ev_compensate_block { step; tid; block } ->
      Format.fprintf ppf "[%d] t%d compensates: frees block %d" step tid block
  | Ev_recovered { step; tid; site_id } ->
      Format.fprintf ppf "[%d] t%d recovered from site %d" step tid site_id
  | Ev_fail_stop { step; tid; site_id } ->
      Format.fprintf ppf "[%d] t%d fail-stops at site %d" step tid site_id

(** A trace sink; [record] receives the full event stream. A sink can
    retain events in memory ([store], the default), forward each event to
    a listener as it happens ([emit] — the streaming-telemetry hook), or
    both. Attaching no sink keeps tracing entirely free. *)
type sink = {
  mutable events : event list;  (** newest first; empty when not storing *)
  emit : (event -> unit) option;
  store : bool;
  mutable count : int;
}

let create ?emit ?(store = true) () = { events = []; emit; store; count = 0 }

let record sink ev =
  sink.count <- sink.count + 1;
  if sink.store then sink.events <- ev :: sink.events;
  match sink.emit with None -> () | Some f -> f ev

(* A stream event in trace vocabulary: a sleeper's wake rides its step,
   the compensation's forced release and a fail-stop's failure have
   their own names, and the stream's other events (decisions,
   acquisitions, plain releases, joins, idle ticks, accesses,
   unhardened failures) have no trace counterpart. *)
let observer sink =
  let f ev = record sink ev in
  Event.observer ~sync:true ~steps:true (fun _ ev ->
      match (ev : Event.t) with
      | Step { step; tid; woke; _ } ->
          if woke then f (Ev_wake { step; tid });
          f (Ev_schedule { step; tid })
      | Request { step; tid; lock; _ } -> f (Ev_block { step; tid; lock })
      | Wait { step; tid; event } ->
          f (Ev_block { step; tid; lock = "event:" ^ event })
      | Wake { step; woken; _ } -> f (Ev_wake { step; tid = woken })
      | Spawn { step; parent; child } -> f (Ev_spawn { step; parent; child })
      | Thread_done { step; tid } -> f (Ev_thread_done { step; tid })
      | Output { step; tid; text } -> f (Ev_output { step; tid; text })
      | Checkpoint { step; tid; ckpt_id } ->
          f (Ev_checkpoint { step; tid; ckpt_id })
      | Failure_detected { step; tid; site_id; kind } ->
          f (Ev_failure_detected { step; tid; site_id; kind })
      | Rollback { step; tid; site_id; retry } ->
          f (Ev_rollback { step; tid; site_id; retry })
      | Release { step; tid; lock; forced = true } ->
          f (Ev_compensate_lock { step; tid; lock })
      | Compensate_block { step; tid; block } ->
          f (Ev_compensate_block { step; tid; block })
      | Recovered { step; tid; site_id } ->
          f (Ev_recovered { step; tid; site_id })
      | Failed { step; tid; site_id; _ } when site_id >= 0 ->
          f (Ev_fail_stop { step; tid; site_id })
      | Decide _ | Acquire _ | Release _ | Join _ | Failed _ | Idle _
      | Access _ ->
          ())

let events sink = List.rev sink.events
let length sink = sink.count

let pp ppf sink =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list pp_event)
    (events sink)

(* Scheduling events dominate traces; the recovery summary keeps only the
   story a user cares about. *)
let recovery_events sink =
  List.filter
    (function
      | Ev_failure_detected _ | Ev_rollback _ | Ev_compensate_lock _
      | Ev_compensate_block _ | Ev_recovered _ | Ev_fail_stop _
      | Ev_checkpoint _ ->
          true
      | Ev_schedule _ | Ev_block _ | Ev_wake _ | Ev_spawn _
      | Ev_thread_done _ | Ev_output _ ->
          false)
    (events sink)

let pp_recovery_summary ppf sink =
  let evs =
    List.filter
      (function Ev_checkpoint _ -> false | _ -> true)
      (recovery_events sink)
  in
  if evs = [] then Format.fprintf ppf "no recovery activity"
  else
    Format.fprintf ppf "@[<v>%a@]" (Format.pp_print_list pp_event) evs
