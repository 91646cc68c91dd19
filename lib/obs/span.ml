(* Folding the observation stream into recovery spans.

   The machine's episode protocol guarantees a clean nesting per thread:
   an episode opens at the first Rollback while none is open, absorbs
   further rollbacks for the same site, and closes with exactly one
   Recovered (also emitted when an episode is closed early by a
   destroying instruction or thread exit) or the fail-stop of its site.
   The fold mirrors that protocol, defensively treating protocol
   violations as Unresolved instead of raising. *)

open Conair_runtime
module Instr = Conair_ir.Instr

type outcome = Recovered | Fail_stopped | Unresolved

type t = {
  sp_tid : int;
  sp_site_id : int;
  sp_kind : Instr.failure_kind option;
  sp_start : int;
  sp_end : int;
  sp_rollbacks : int;
  sp_outcome : outcome;
}

let duration s = s.sp_end - s.sp_start

let outcome_name = function
  | Recovered -> "recovered"
  | Fail_stopped -> "fail-stop"
  | Unresolved -> "unresolved"

(* A run's recovery events, newest first, and the step of its last
   trace event — the step an open episode's span ends at. *)
type collector = { mutable recovery : Event.t list; mutable last : int }

let collector () = { recovery = []; last = 0 }

let observer c =
  let seen step = if step > c.last then c.last <- step in
  Event.observer ~sync:true ~steps:true (fun _ ev ->
      match (ev : Event.t) with
      | Failure_detected { step; _ }
      | Rollback { step; _ }
      | Release { step; forced = true; _ }
      | Compensate_block { step; _ }
      | Recovered { step; _ } ->
          c.recovery <- ev :: c.recovery;
          seen step
      | Failed { step; site_id; _ } when site_id >= 0 ->
          c.recovery <- ev :: c.recovery;
          seen step
      | Step { step; _ }
      | Request { step; _ }
      | Wait { step; _ }
      | Wake { step; _ }
      | Spawn { step; _ }
      | Thread_done { step; _ }
      | Output { step; _ }
      | Checkpoint { step; _ } ->
          seen step
      | Decide _ | Acquire _ | Release _ | Join _ | Failed _ | Idle _
      | Access _ ->
          ())

type open_span = {
  o_site : int;
  o_kind : Instr.failure_kind option;
  o_start : int;
  mutable o_rollbacks : int;
}

let spans c : t list =
  let open_spans : (int, open_span) Hashtbl.t = Hashtbl.create 8 in
  let pending_kind : (int, int * Instr.failure_kind) Hashtbl.t =
    Hashtbl.create 8
  in
  let finished = ref [] in
  let close tid (o : open_span) ~step ~outcome =
    Hashtbl.remove open_spans tid;
    finished :=
      {
        sp_tid = tid;
        sp_site_id = o.o_site;
        sp_kind = o.o_kind;
        sp_start = o.o_start;
        sp_end = step;
        sp_rollbacks = o.o_rollbacks;
        sp_outcome = outcome;
      }
      :: !finished
  in
  let kind_for tid site =
    match Hashtbl.find_opt pending_kind tid with
    | Some (s, k) when s = site -> Some k
    | _ -> None
  in
  let open_at tid site_id step =
    Hashtbl.replace open_spans tid
      {
        o_site = site_id;
        o_kind = kind_for tid site_id;
        o_start = step;
        o_rollbacks = 1;
      }
  in
  List.iter
    (fun (ev : Event.t) ->
      match ev with
      | Failure_detected { tid; site_id; kind; _ } ->
          Hashtbl.replace pending_kind tid (site_id, kind)
      | Rollback { step; tid; site_id; _ } -> (
          match Hashtbl.find_opt open_spans tid with
          | Some o when o.o_site = site_id -> o.o_rollbacks <- o.o_rollbacks + 1
          | Some o ->
              (* protocol violation: a new site rolled back with the old
                 episode still open — close it rather than miscount *)
              close tid o ~step ~outcome:Unresolved;
              open_at tid site_id step
          | None -> open_at tid site_id step)
      | Recovered { step; tid; _ } -> (
          match Hashtbl.find_opt open_spans tid with
          | Some o -> close tid o ~step ~outcome:Recovered
          | None -> ())
      | Failed { step; tid; site_id; _ } -> (
          match Hashtbl.find_opt open_spans tid with
          | Some o -> close tid o ~step ~outcome:Fail_stopped
          | None ->
              (* a fail-stop with nothing to roll back to: a point span *)
              finished :=
                {
                  sp_tid = tid;
                  sp_site_id = site_id;
                  sp_kind = kind_for tid site_id;
                  sp_start = step;
                  sp_end = step;
                  sp_rollbacks = 0;
                  sp_outcome = Fail_stopped;
                }
                :: !finished)
      | _ -> ())
    (List.rev c.recovery);
  Hashtbl.iter
    (fun tid o -> close tid o ~step:c.last ~outcome:Unresolved)
    (Hashtbl.copy open_spans);
  List.stable_sort
    (fun a b -> compare (a.sp_start, a.sp_tid) (b.sp_start, b.sp_tid))
    (List.rev !finished)

let pp_recovery ppf (ev : Event.t) =
  match ev with
  | Failure_detected { step; tid; site_id; kind } ->
      Format.fprintf ppf "[%d] t%d detects %a at site %d" step tid
        Instr.pp_failure_kind kind site_id
  | Rollback { step; tid; site_id; retry } ->
      Format.fprintf ppf "[%d] t%d rolls back for site %d (retry %d)" step tid
        site_id retry
  | Release { step; tid; lock; _ } ->
      Format.fprintf ppf "[%d] t%d compensates: releases %s" step tid lock
  | Compensate_block { step; tid; block } ->
      Format.fprintf ppf "[%d] t%d compensates: frees block %d" step tid block
  | Recovered { step; tid; site_id } ->
      Format.fprintf ppf "[%d] t%d recovered from site %d" step tid site_id
  | Failed { step; tid; site_id; _ } ->
      Format.fprintf ppf "[%d] t%d fail-stops at site %d" step tid site_id
  | _ -> ()

let pp_recovery_summary ppf c =
  match List.rev c.recovery with
  | [] -> Format.fprintf ppf "no recovery activity"
  | evs -> Format.fprintf ppf "@[<v>%a@]" (Format.pp_print_list pp_recovery) evs

let to_json s =
  Json.Obj
    ([
       ("tid", Json.Int s.sp_tid);
       ("site_id", Json.Int s.sp_site_id);
     ]
    @ (match s.sp_kind with
      | None -> []
      | Some k -> [ ("kind", Json.String (Jsonl.failure_kind_name k)) ])
    @ [
        ("start_step", Json.Int s.sp_start);
        ("end_step", Json.Int s.sp_end);
        ("duration", Json.Int (duration s));
        ("rollbacks", Json.Int s.sp_rollbacks);
        ("outcome", Json.String (outcome_name s.sp_outcome));
      ])

(* --- Chrome trace-event export ------------------------------------- *)

(* Virtual scheduler steps map 1:1 to microseconds: Perfetto renders a
   1000-step recovery as a 1 ms slice, and relative proportions — the
   thing the visualization is for — are exact. *)

let span_name s =
  let kind =
    match s.sp_kind with
    | None -> ""
    | Some k -> " (" ^ Jsonl.failure_kind_name k ^ ")"
  in
  Printf.sprintf "recover site %d%s" s.sp_site_id kind

let complete_event s : Json.t =
  Json.Obj
    [
      ("name", Json.String (span_name s));
      ("cat", Json.String "recovery");
      ("ph", Json.String "X");
      ("pid", Json.Int 0);
      ("tid", Json.Int s.sp_tid);
      ("ts", Json.Int s.sp_start);
      ("dur", Json.Int (duration s));
      ( "args",
        Json.Obj
          [
            ("site_id", Json.Int s.sp_site_id);
            ("rollbacks", Json.Int s.sp_rollbacks);
            ("outcome", Json.String (outcome_name s.sp_outcome));
          ] );
    ]

let instant_event ~name ~step ~tid args : Json.t =
  Json.Obj
    [
      ("name", Json.String name);
      ("cat", Json.String "recovery");
      ("ph", Json.String "i");
      ("s", Json.String "t");
      ("pid", Json.Int 0);
      ("tid", Json.Int tid);
      ("ts", Json.Int step);
      ("args", Json.Obj args);
    ]

let to_chrome ?(counters = []) c : Json.t =
  let spans = spans c and events = List.rev c.recovery in
  let tids = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace tids s.sp_tid ()) spans;
  List.iter
    (function
      | Event.Rollback { tid; _ } -> Hashtbl.replace tids tid () | _ -> ())
    events;
  let thread_meta =
    Hashtbl.fold (fun tid () acc -> tid :: acc) tids []
    |> List.sort compare
    |> List.map (fun tid ->
           Json.Obj
             [
               ("name", Json.String "thread_name");
               ("ph", Json.String "M");
               ("pid", Json.Int 0);
               ("tid", Json.Int tid);
               ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "thread %d" tid)) ]);
             ])
  in
  let process_meta =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.String "conair") ]);
      ]
  in
  let instants =
    List.filter_map
      (function
        | Event.Rollback { step; tid; site_id; retry } ->
            Some
              (instant_event ~name:"rollback" ~step ~tid
                 [ ("site_id", Json.Int site_id); ("retry", Json.Int retry) ])
        | Event.Failure_detected { step; tid; site_id; kind } ->
            Some
              (instant_event ~name:"failure detected" ~step ~tid
                 [
                   ("site_id", Json.Int site_id);
                   ("kind", Json.String (Jsonl.failure_kind_name kind));
                 ])
        | _ -> None)
      events
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          ((process_meta :: thread_meta)
          @ List.map complete_event spans
          @ instants @ counters) );
      ("displayTimeUnit", Json.String "ms");
    ]
