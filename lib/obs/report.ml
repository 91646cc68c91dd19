(* Standard exposition of a run: the ConAir metric set, JSON views of
   stats/outcomes, and the structured run report. Everything user-facing
   reads episodes through [Stats.episodes_chronological]. *)

open Conair_runtime
module Instr = Conair_ir.Instr

let outcome_json : Outcome.t -> Json.t = function
  | Outcome.Success -> Json.Obj [ ("result", Json.String "success") ]
  | Outcome.Failed f ->
      Json.Obj
        ([
           ("result", Json.String "failed");
           ("kind", Json.String (Jsonl.failure_kind_name f.kind));
         ]
        @ (match f.site_id with
          | None -> []
          | Some s -> [ ("site_id", Json.Int s) ])
        @ (match f.iid with None -> [] | Some i -> [ ("iid", Json.Int i) ])
        @ [
            ("tid", Json.Int f.tid);
            ("step", Json.Int f.step);
            ("msg", Json.String f.msg);
          ])
  | Outcome.Hang { step; blocked } ->
      Json.Obj
        [
          ("result", Json.String "hang");
          ("step", Json.Int step);
          ("blocked", Json.List (List.map (fun t -> Json.Int t) blocked));
        ]
  | Outcome.Fuel_exhausted step ->
      Json.Obj
        [ ("result", Json.String "fuel-exhausted"); ("step", Json.Int step) ]

let failure_kind_of_name = function
  | "assert" -> Some Instr.Assert_fail
  | "wrong-output" -> Some Instr.Wrong_output
  | "segfault" -> Some Instr.Seg_fault
  | "deadlock" -> Some Instr.Deadlock
  | _ -> None

(* Decode an [outcome_json] object — the inverse used when loading a
   schedule log's recorded outcome back for replay verification. *)
let outcome_of_json (j : Json.t) : (Outcome.t, string) result =
  let int name =
    match Json.member name j with Some (Json.Int n) -> Some n | _ -> None
  in
  let str name =
    match Json.member name j with Some (Json.String s) -> Some s | _ -> None
  in
  match Json.member "result" j with
  | Some (Json.String "success") -> Ok Outcome.Success
  | Some (Json.String "failed") -> (
      let kind = Option.bind (str "kind") failure_kind_of_name in
      match (kind, int "tid", int "step", str "msg") with
      | Some kind, Some tid, Some step, Some msg ->
          Ok
            (Outcome.Failed
               {
                 kind;
                 site_id = int "site_id";
                 iid = int "iid";
                 tid;
                 step;
                 msg;
               })
      | _ -> Error "outcome: malformed failed record")
  | Some (Json.String "hang") -> (
      match (int "step", Json.member "blocked" j) with
      | Some step, Some (Json.List l) ->
          let blocked =
            List.filter_map (function Json.Int t -> Some t | _ -> None) l
          in
          if List.length blocked = List.length l then
            Ok (Outcome.Hang { step; blocked })
          else Error "outcome: malformed blocked list"
      | _ -> Error "outcome: malformed hang record")
  | Some (Json.String "fuel-exhausted") -> (
      match int "step" with
      | Some step -> Ok (Outcome.Fuel_exhausted step)
      | None -> Error "outcome: malformed fuel-exhausted record")
  | _ -> Error "outcome: missing or unknown result field"

let episode_json (e : Stats.episode) : Json.t =
  Json.Obj
    [
      ("site_id", Json.Int e.ep_site_id);
      ("tid", Json.Int e.ep_tid);
      ("start_step", Json.Int e.ep_start);
      ("end_step", Json.Int e.ep_end);
      ("duration", Json.Int (Stats.episode_duration e));
      ("retries", Json.Int e.ep_retries);
    ]

let stats_json (s : Stats.t) : Json.t =
  Json.Obj
    [
      ("steps", Json.Int s.steps);
      ("instrs", Json.Int s.instrs);
      ("idle", Json.Int s.idle);
      ("checkpoints", Json.Int s.checkpoints);
      ("rollbacks", Json.Int s.rollbacks);
      ("compensated_locks", Json.Int s.compensated_locks);
      ("compensated_blocks", Json.Int s.compensated_blocks);
      ("tracecheck_violations", Json.Int s.tracecheck_violations);
      ("outputs", Json.Int s.outputs);
      ("total_retries", Json.Int (Stats.total_retries s));
      ("max_recovery_time", Json.Int (Stats.max_recovery_time s));
      ( "episodes",
        Json.List (List.map episode_json (Stats.episodes_chronological s)) );
      ( "checkpoint_hits",
        Json.Obj
          (List.map
             (fun (id, n) -> (string_of_int id, Json.Int n))
             (Stats.ckpt_hits s)) );
    ]

(* --- the standard metric set --------------------------------------- *)

(* Fixed buckets keep the histograms mergeable across runs and apps; the
   ranges cover everything the bugbench catalog produces (episodes from a
   couple of steps up to the MozillaXP thousands). *)
let duration_buckets =
  [ 1.; 2.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000.; 2500.; 5000.; 10000. ]

let retry_buckets = [ 1.; 2.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000. ]

let standard_metrics ?into (s : Stats.t) : Metrics.t =
  let r = match into with Some r -> r | None -> Metrics.create () in
  let c name help v =
    Metrics.inc ~by:v (Metrics.counter ~help r name)
  in
  c "conair_steps_total" "Scheduler steps, including idle ticks" s.steps;
  c "conair_instrs_total" "Instructions actually executed" s.instrs;
  c "conair_idle_total" "Idle scheduler ticks (all threads waiting)" s.idle;
  c "conair_checkpoints_total" "Dynamic reexecution-point executions"
    s.checkpoints;
  c "conair_rollbacks_total" "Single-threaded rollbacks performed" s.rollbacks;
  c "conair_compensated_locks_total" "Locks force-released during rollback"
    s.compensated_locks;
  c "conair_compensated_blocks_total" "Heap blocks freed during rollback"
    s.compensated_blocks;
  c "conair_outputs_total" "Program outputs emitted" s.outputs;
  c "conair_tracecheck_violations_total"
    "Rollback-safety invariant violations (should be 0)"
    s.tracecheck_violations;
  let episodes = Stats.episodes_chronological s in
  c "conair_recovery_episodes_total" "Completed recovery episodes"
    (List.length episodes);
  let dur_h =
    Metrics.histogram
      ~help:"Recovery episode duration in virtual scheduler steps"
      ~buckets:duration_buckets r "conair_episode_duration_steps"
  in
  let retry_h =
    Metrics.histogram ~help:"Rollback retries per recovery episode"
      ~buckets:retry_buckets r "conair_episode_retries"
  in
  List.iter
    (fun (e : Stats.episode) ->
      Metrics.observe dur_h (float (Stats.episode_duration e));
      Metrics.observe retry_h (float e.ep_retries))
    episodes;
  List.iter
    (fun (id, n) ->
      Metrics.inc ~by:n
        (Metrics.counter
           ~help:"Executions per static reexecution point"
           ~labels:[ ("ckpt", string_of_int id) ]
           r "conair_checkpoint_executions_total"))
    (Stats.ckpt_hits s);
  let between =
    Metrics.gauge
      ~help:"Mean instructions executed between checkpoint executions"
      r "conair_instrs_between_checkpoints"
  in
  Metrics.set between
    (if s.checkpoints = 0 then Float.of_int s.instrs
     else float s.instrs /. float s.checkpoints);
  r

(* --- live metrics from the event stream ---------------------------- *)

(* A counter per trace-event kind: a sleeper's wake counts before the
   step it rides, exactly as the trace lists the two. *)
let live_metrics (r : Metrics.t) =
  let bump name = Metrics.inc (Metrics.counter r name) in
  Event.observer ~sync:true ~steps:true (fun _ ev ->
      match (ev : Event.t) with
      | Step { woke; _ } ->
          if woke then bump "conair_live_wakes_total";
          bump "conair_live_schedules_total"
      | Request _ | Wait _ -> bump "conair_live_blocks_total"
      | Wake _ -> bump "conair_live_wakes_total"
      | Spawn _ -> bump "conair_live_spawns_total"
      | Thread_done _ -> bump "conair_live_thread_exits_total"
      | Output _ -> bump "conair_live_outputs_total"
      | Checkpoint _ -> bump "conair_live_checkpoints_total"
      | Failure_detected { kind; _ } ->
          Metrics.inc
            (Metrics.counter
               ~labels:[ ("kind", Jsonl.failure_kind_name kind) ]
               r "conair_live_failures_detected_total")
      | Rollback _ -> bump "conair_live_rollbacks_total"
      | Release { forced = true; _ } | Compensate_block _ ->
          bump "conair_live_compensations_total"
      | Recovered _ -> bump "conair_live_recoveries_total"
      | Failed { site_id; _ } when site_id >= 0 ->
          bump "conair_live_fail_stops_total"
      | _ -> ())

(* --- the structured run report ------------------------------------- *)

let run_json ?meta ?config ?spans ~outcome ~outputs (s : Stats.t) : Json.t =
  let metrics = standard_metrics s in
  Json.Obj
    (Option.value ~default:[] meta
    @ (match config with
      | None -> []
      | Some c -> [ ("config", Jsonl.config_json c) ])
    @ [
        ("outcome", outcome_json outcome);
        ("outputs", Json.List (List.map (fun o -> Json.String o) outputs));
        ("stats", stats_json s);
      ]
    @ (match spans with
      | None -> []
      | Some sp -> [ ("spans", Json.List (List.map Span.to_json sp)) ])
    @ [ ("metrics", Metrics.to_json metrics) ])
