(* Tests for the structured execution trace: event presence, ordering,
   and the recovery summary. *)

open Test_util
module Machine = Conair.Runtime.Machine
module Trace = Conair.Runtime.Trace

let traced_run ?(policy = Conair.Runtime.Sched.Round_robin) h =
  let meta = Machine.meta_of_harden h.Conair.hardened in
  let config = { Machine.default_config with policy; fuel = 500_000 } in
  let sink = Trace.create () in
  let m =
    Machine.create ~config ~meta
      ~observer:(Trace.observer sink) h.Conair.hardened.program
  in
  let outcome = Machine.run m in
  (outcome, sink)

let recovery_story_has_expected_shape () =
  let p = order_violation_program ~buggy:true () in
  let h = Conair.harden_exn p Conair.Survival in
  let outcome, sink = traced_run h in
  Alcotest.(check bool) "run succeeded" true
    (Conair.Runtime.Outcome.is_success outcome);
  let evs = Trace.events sink in
  let has pred = List.exists pred evs in
  Alcotest.(check bool) "spawn events" true
    (has (function Trace.Ev_spawn _ -> true | _ -> false));
  Alcotest.(check bool) "checkpoint events" true
    (has (function Trace.Ev_checkpoint _ -> true | _ -> false));
  Alcotest.(check bool) "failure detected" true
    (has (function Trace.Ev_failure_detected _ -> true | _ -> false));
  Alcotest.(check bool) "rollback events" true
    (has (function Trace.Ev_rollback _ -> true | _ -> false));
  Alcotest.(check bool) "recovered event" true
    (has (function Trace.Ev_recovered _ -> true | _ -> false));
  Alcotest.(check bool) "output event" true
    (has (function Trace.Ev_output _ -> true | _ -> false))

let event_order_detect_before_recover () =
  let p = order_violation_program ~buggy:true () in
  let h = Conair.harden_exn p Conair.Survival in
  let _, sink = traced_run h in
  let evs = Trace.events sink in
  let index pred =
    let rec go i = function
      | [] -> -1
      | e :: rest -> if pred e then i else go (i + 1) rest
    in
    go 0 evs
  in
  let first_ckpt = index (function Trace.Ev_checkpoint _ -> true | _ -> false) in
  let first_detect =
    index (function Trace.Ev_failure_detected _ -> true | _ -> false)
  in
  let first_rollback = index (function Trace.Ev_rollback _ -> true | _ -> false) in
  let recovered = index (function Trace.Ev_recovered _ -> true | _ -> false) in
  Alcotest.(check bool) "checkpoint before detection" true
    (0 <= first_ckpt && first_ckpt < first_detect);
  Alcotest.(check bool) "detection before rollback" true
    (first_detect < first_rollback);
  Alcotest.(check bool) "rollback before recovered" true
    (first_rollback < recovered)

let compensation_events_for_deadlock () =
  let p = deadlock_program ~buggy:true () in
  let h = Conair.harden_exn p Conair.Survival in
  let outcome, sink = traced_run h in
  Alcotest.(check bool) "recovered" true
    (Conair.Runtime.Outcome.is_success outcome);
  Alcotest.(check bool) "a lock was released by compensation" true
    (List.exists
       (function Trace.Ev_compensate_lock _ -> true | _ -> false)
       (Trace.events sink));
  Alcotest.(check bool) "block events recorded" true
    (List.exists
       (function Trace.Ev_block _ -> true | _ -> false)
       (Trace.events sink))

let rollback_count_matches_stats () =
  let p = interproc_segfault_program ~buggy:true () in
  let h = Conair.harden_exn p Conair.Survival in
  let meta = Machine.meta_of_harden h.Conair.hardened in
  let sink = Trace.create () in
  let m =
    Machine.create ~config:{ Machine.default_config with fuel = 500_000 }
      ~meta
      ~observer:(Trace.observer sink) h.Conair.hardened.program
  in
  ignore (Machine.run m);
  let rollback_events =
    List.length
      (List.filter
         (function Trace.Ev_rollback _ -> true | _ -> false)
         (Trace.events sink))
  in
  Alcotest.(check int) "trace agrees with stats"
    (Machine.stats m).rollbacks rollback_events

let recovery_summary_is_compact () =
  let p = order_violation_program ~buggy:true () in
  let h = Conair.harden_exn p Conair.Survival in
  let _, sink = traced_run h in
  let summary = Trace.recovery_events sink in
  Alcotest.(check bool) "summary is much smaller than the full trace" true
    (List.length summary * 2 < Trace.length sink);
  (* and it renders *)
  let text = Format.asprintf "%a" Trace.pp_recovery_summary sink in
  Alcotest.(check bool) "summary text nonempty" true (String.length text > 0)

let no_trace_no_cost () =
  (* Without a sink the machine keeps no events (the sink list is the only
     storage, so this is really an API check). *)
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
