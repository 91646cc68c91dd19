(* Tests for the observation stream as a trace: event presence,
   ordering, and the recovery summary of the span collector. *)

open Test_util
module Machine = Conair.Runtime.Machine
module Engine = Conair.Runtime.Engine
module Event = Conair.Runtime.Event
module Span = Conair.Obs.Span

(* The run's sync and per-step events, chronological, next to a span
   collector fed from the same stream. *)
type traced = { evs : Event.t list; spans : Span.collector }

let traced_machine ~config h =
  let meta = Machine.meta_of_harden h.Conair.hardened in
  let evs = ref [] in
  let spans = Span.collector () in
  let capture =
    Event.observer ~sync:true ~steps:true (fun _ ev -> evs := ev :: !evs)
  in
  let m, outcome =
    Engine.run_program ~config ~meta
      ~observer:(Event.combine [ capture; Span.observer spans ])
      Engine.Block h.Conair.hardened.program
  in
  (m, outcome, { evs = List.rev !evs; spans })

let traced_run ?(policy = Conair.Runtime.Sched.Round_robin) h =
  let config = { Machine.default_config with policy; fuel = 500_000 } in
  let _, outcome, t = traced_machine ~config h in
  (outcome, t)

let recovery_story_has_expected_shape () =
  let p = order_violation_program ~buggy:true () in
  let h = Conair.harden_exn p Conair.Survival in
  let outcome, t = traced_run h in
  Alcotest.(check bool) "run succeeded" true
    (Conair.Runtime.Outcome.is_success outcome);
  let evs = t.evs in
  let has pred = List.exists pred evs in
  Alcotest.(check bool) "spawn events" true
    (has (function Event.Spawn _ -> true | _ -> false));
  Alcotest.(check bool) "checkpoint events" true
    (has (function Event.Checkpoint _ -> true | _ -> false));
  Alcotest.(check bool) "failure detected" true
    (has (function Event.Failure_detected _ -> true | _ -> false));
  Alcotest.(check bool) "rollback events" true
    (has (function Event.Rollback _ -> true | _ -> false));
  Alcotest.(check bool) "recovered event" true
    (has (function Event.Recovered _ -> true | _ -> false));
  Alcotest.(check bool) "output event" true
    (has (function Event.Output _ -> true | _ -> false))

let event_order_detect_before_recover () =
  let p = order_violation_program ~buggy:true () in
  let h = Conair.harden_exn p Conair.Survival in
  let _, t = traced_run h in
  let evs = t.evs in
  let index pred =
    let rec go i = function
      | [] -> -1
      | e :: rest -> if pred e then i else go (i + 1) rest
    in
    go 0 evs
  in
  let first_ckpt = index (function Event.Checkpoint _ -> true | _ -> false) in
  let first_detect =
    index (function Event.Failure_detected _ -> true | _ -> false)
  in
  let first_rollback = index (function Event.Rollback _ -> true | _ -> false) in
  let recovered = index (function Event.Recovered _ -> true | _ -> false) in
  Alcotest.(check bool) "checkpoint before detection" true
    (0 <= first_ckpt && first_ckpt < first_detect);
  Alcotest.(check bool) "detection before rollback" true
    (first_detect < first_rollback);
  Alcotest.(check bool) "rollback before recovered" true
    (first_rollback < recovered)

let compensation_events_for_deadlock () =
  let p = deadlock_program ~buggy:true () in
  let h = Conair.harden_exn p Conair.Survival in
  let outcome, t = traced_run h in
  Alcotest.(check bool) "recovered" true
    (Conair.Runtime.Outcome.is_success outcome);
  Alcotest.(check bool) "a lock was released by compensation" true
    (List.exists
       (function Event.Release { forced = true; _ } -> true | _ -> false)
       t.evs);
  Alcotest.(check bool) "block events recorded" true
    (List.exists
       (function Event.Request _ | Event.Wait _ -> true | _ -> false)
       t.evs)

let rollback_count_matches_stats () =
  let p = interproc_segfault_program ~buggy:true () in
  let h = Conair.harden_exn p Conair.Survival in
  let m, _, t =
    traced_machine ~config:{ Machine.default_config with fuel = 500_000 } h
  in
  let rollback_events =
    List.length
      (List.filter
         (function Event.Rollback _ -> true | _ -> false)
         t.evs)
  in
  Alcotest.(check int) "trace agrees with stats"
    (Engine.stats m).rollbacks rollback_events

let recovery_summary_is_compact () =
  let p = order_violation_program ~buggy:true () in
  let h = Conair.harden_exn p Conair.Survival in
  let _, t = traced_run h in
  let text = Format.asprintf "%a" Span.pp_recovery_summary t.spans in
  let summary = String.split_on_char '\n' text in
  Alcotest.(check bool) "summary is much smaller than the full trace" true
    (List.length summary * 2 < List.length t.evs);
  (* and it renders *)
  Alcotest.(check bool) "summary text nonempty" true (String.length text > 0)

let no_trace_no_cost () =
  (* Without an observer the machine keeps no events (observers are the
     only storage, so this is really an API check). *)
  let p = order_violation_program ~buggy:true () in
  let h = Conair.harden_exn p Conair.Survival in
  let r = run_hardened h in
  expect_success r;
  Alcotest.(check bool) "machine has no observer" true
    (Option.is_none (machine_state r).Machine.obs)

let suites =
  [
    ( "trace",
      [
        case "recovery story has the expected events"
          recovery_story_has_expected_shape;
        case "events are causally ordered" event_order_detect_before_recover;
        case "deadlock compensation appears" compensation_events_for_deadlock;
        case "rollback events match stats" rollback_count_matches_stats;
        case "recovery summary is compact" recovery_summary_is_compact;
        case "tracing is opt-in" no_trace_no_cost;
      ] );
  ]
