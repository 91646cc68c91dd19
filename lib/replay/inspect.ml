(* The time-travel inspector: reconstruct the machine state at any step
   of a recorded run.

   One forward pass replays the log under a strict feed and drops a
   waypoint — a whole-machine snapshot plus the scheduler's rng/cursor
   state — every [stride] decisions. Seeking to step N then restores the
   nearest waypoint at or before N into a *fresh* machine (fresh because
   [Machine.restore] never moves virtual time backward on a live one)
   and strict-replays forward until the machine's clock reaches N. The
   state shown for step N is the state *before* the instruction at
   virtual time N executes.

   Waypoints must capture the scheduler state *before* the decision they
   are keyed to: the feed consumes the policy's rng draw for every
   decision, so snapshotting after it would double-consume the draw on
   resume and silently skew deadlock backoff and perturbed timing. The
   capture therefore lives in the feed wrapper, ahead of the strict
   feed's [decide]; the forward pass single-steps the block engine so
   that it sees every decision ([Block_machine.run] would answer a
   window's in one count). *)

open Conair_ir
open Conair_runtime
module Json = Conair_obs.Json
module Log = Schedule_log

type waypoint = {
  wp_decision : int;
  wp_step : int;
  wp_snap : Machine.snapshot;
  wp_sched : Sched.saved;
}

type t = {
  program : Program.t;
  meta : Machine.meta option;
  log : Log.t;
  waypoints : waypoint array;  (** ascending by decision (and step) *)
  final : Driver.result_bundle;
  instr_texts : (int, string) Hashtbl.t;  (** iid -> source instruction *)
}

let instr_texts p =
  let tbl = Hashtbl.create 256 in
  Program.iter_funcs p (fun f ->
      Func.iter_instrs f (fun _blk i ->
          Hashtbl.replace tbl i.Instr.iid (Format.asprintf "%a" Instr.pp i)));
  tbl

let default_stride = 512

(* [Block_machine.run]'s fuel check around single steps. *)
let rec forward bm =
  let m = Block_machine.machine bm in
  if m.Machine.step >= m.Machine.config.Machine.fuel then begin
    m.Machine.outcome <- Some (Outcome.Fuel_exhausted m.Machine.step);
    Outcome.Fuel_exhausted m.Machine.step
  end
  else if Block_machine.step bm then forward bm
  else Option.value ~default:Outcome.Success m.Machine.outcome

let create ?(stride = default_stride) ?program ?meta (log : Log.t) =
  if stride <= 0 then invalid_arg "Inspect.create: stride must be positive";
  match Driver.resolve_program ?program log with
  | Error e -> Error (Driver.error_to_string e)
  | Ok program -> (
      let meta = Driver.resolve_meta ?meta log in
      let config = log.Log.config in
      let bm = Block_machine.create ~config ?meta program in
      let m = Block_machine.machine bm in
      let sched = m.Machine.sched in
      let h = Feed.strict log.Log.decisions in
      let strict = Feed.strict_feed h in
      let ways = ref [] in
      (* the feed snapshots the machine it steers, so it can only be
         built after [create]: set it on the machine's own scheduler *)
      Sched.set_feed sched
        (Some
           {
             strict with
             Sched.decide =
               (fun ~tid_of env n ->
                 let pos = Feed.position h in
                 if pos mod stride = 0 then
                   ways :=
                     {
                       wp_decision = pos;
                       wp_step = m.Machine.step;
                       wp_snap = Machine.snapshot m;
                       wp_sched = Sched.save sched;
                     }
                     :: !ways;
                 strict.Sched.decide ~tid_of env n);
           });
      match forward bm with
      | outcome ->
          Ok
            {
              program;
              meta;
              log;
              waypoints = Array.of_list (List.rev !ways);
              final =
                {
                  Driver.rb_outcome = outcome;
                  rb_outputs = Machine.outputs m;
                  rb_stats = Machine.stats m;
                  rb_steps = m.Machine.step;
                };
              instr_texts = instr_texts program;
            }
      | exception Feed.Diverged d ->
          Error
            (Printf.sprintf
               "inspect: the log does not replay against this program \
                (diverged at decision %d)"
               d.Feed.at))

let final_step t = t.final.Driver.rb_steps
let outcome t = t.final.Driver.rb_outcome

let waypoints t =
  Array.to_list (Array.map (fun wp -> wp.wp_decision) t.waypoints)

(* ------------------------------------------------------------------ *)
(* State rendering                                                     *)
(* ------------------------------------------------------------------ *)

let value_json v = Json.String (Value.to_string v)

let frame_json texts (fr : Thread.frame) =
  let blk = fr.Thread.block in
  let at, iid =
    if fr.Thread.idx < Array.length blk.Link.lb_instrs then
      let li = blk.Link.lb_instrs.(fr.Thread.idx) in
      ( Option.value ~default:"?"
          (Hashtbl.find_opt texts li.Link.li_iid),
        li.Link.li_iid )
    else ("<terminator>", -1)
  in
  let names = fr.Thread.func.Link.lf_reg_names in
  let regs = ref [] in
  for i = Array.length fr.Thread.regs - 1 downto 0 do
    let v = fr.Thread.regs.(i) in
    if v != Thread.undef && i < Array.length names then
      regs := (Ident.Reg.name names.(i), value_json v) :: !regs
  done;
  let stack_vars =
    (match fr.Thread.stack_vars with
    | None -> []
    | Some h -> Hashtbl.fold (fun k v acc -> (k, value_json v) :: acc) h [])
    |> List.sort compare
  in
  Json.Obj
    ([
       ("func", Json.String fr.Thread.func.Link.lf_qname);
       ("block", Json.String blk.Link.lb_label_name);
       ("idx", Json.Int fr.Thread.idx);
     ]
    @ (if iid >= 0 then [ ("iid", Json.Int iid) ] else [])
    @ [ ("next", Json.String at); ("regs", Json.Obj !regs) ]
    @ if stack_vars = [] then [] else [ ("stack_vars", Json.Obj stack_vars) ])

let status_json (s : Thread.status) =
  match s with
  | Thread.Runnable -> Json.String "runnable"
  | Thread.Sleeping until ->
      Json.Obj [ ("sleeping_until", Json.Int until) ]
  | Thread.Blocked_lock { name; since; timeout } ->
      Json.Obj
        ([ ("blocked_lock", Json.String name); ("since", Json.Int since) ]
        @
        match timeout with
        | None -> []
        | Some d -> [ ("timeout", Json.Int d) ])
  | Thread.Blocked_event { name; since; timeout } ->
      Json.Obj
        ([ ("blocked_event", Json.String name); ("since", Json.Int since) ]
        @
        match timeout with
        | None -> []
        | Some d -> [ ("timeout", Json.Int d) ])
  | Thread.Blocked_join tid -> Json.Obj [ ("blocked_join", Json.Int tid) ]
  | Thread.Done -> Json.String "done"
  | Thread.Failed -> Json.String "failed"

let thread_json texts (m : Machine.t) (th : Thread.t) =
  let retries =
    Hashtbl.fold (fun site n acc -> (site, n) :: acc) th.Thread.retries []
    |> List.sort compare
  in
  Json.Obj
    ([
       ("tid", Json.Int th.Thread.tid);
       ("status", status_json th.Thread.status);
       ("stack_depth", Json.Int th.Thread.stack_depth);
       ("stack", Json.List (List.map (frame_json texts) th.Thread.stack));
       ( "locks_held",
         Json.List
           (List.map
              (fun l -> Json.String l)
              (Locks.held_by m.Machine.locks ~tid:th.Thread.tid)) );
     ]
    @ (match th.Thread.checkpoint with
      | None -> []
      | Some ck ->
          [
            ( "checkpoint",
              Json.Obj
                [
                  ("block", Json.String (Ident.Label.name ck.Thread.ck_block));
                  ("idx", Json.Int ck.Thread.ck_idx);
                  ("depth", Json.Int ck.Thread.ck_depth);
                  ("taken_at_step", Json.Int ck.Thread.ck_step);
                ] );
          ])
    @ (match th.Thread.recovering with
      | None -> []
      | Some r ->
          [
            ( "recovering",
              Json.Obj
                [
                  ("site", Json.Int r.Thread.rec_site);
                  ("since_step", Json.Int r.Thread.rec_start);
                  ("retries_before", Json.Int r.Thread.rec_retries_before);
                ] );
          ])
    @
    if retries = [] then []
    else
      [
        ( "retries",
          Json.Obj
            (List.map (fun (site, n) -> (string_of_int site, Json.Int n)) retries)
        );
      ])

let state_json t (m : Machine.t) =
  let threads =
    Hashtbl.fold (fun _ th acc -> th :: acc) m.Machine.threads []
    |> List.sort (fun a b -> compare a.Thread.tid b.Thread.tid)
  in
  let globals =
    Hashtbl.fold (fun k v acc -> (k, value_json v) :: acc) m.Machine.globals []
    |> List.sort compare
  in
  let locks =
    Hashtbl.fold
      (fun name (st : Locks.state) acc ->
        ( name,
          match st.Locks.owner with
          | None -> Json.String "free"
          | Some tid -> Json.Obj [ ("owner", Json.Int tid) ] )
        :: acc)
      m.Machine.locks []
    |> List.sort compare
  in
  Json.Obj
    [
      ("type", Json.String "machine_state");
      ("app", Json.String t.log.Log.ident.Log.id_app);
      ("step", Json.Int m.Machine.step);
      ("threads", Json.List (List.map (thread_json t.instr_texts m) threads));
      ("globals", Json.Obj globals);
      ("locks", Json.Obj locks);
      ("outputs", Json.List (List.map (fun s -> Json.String s) (Machine.outputs m)));
    ]

(* ------------------------------------------------------------------ *)
(* Seeking                                                             *)
(* ------------------------------------------------------------------ *)

let waypoint_for t target =
  let best = ref None in
  Array.iter
    (fun wp -> if wp.wp_step <= target then best := Some wp)
    t.waypoints;
  !best

let state_at t target =
  if target < 0 then Error "step must be >= 0"
  else if target > final_step t then
    Error
      (Printf.sprintf "step %d is beyond the end of the recorded run (%d)"
         target (final_step t))
  else begin
    let config = t.log.Log.config in
    let bm = Block_machine.create ~config ?meta:t.meta t.program in
    let m = Block_machine.machine bm in
    let sched = m.Machine.sched in
    let start =
      match waypoint_for t target with
      | Some wp ->
          Machine.restore m wp.wp_snap;
          Sched.restore sched wp.wp_sched;
          wp.wp_decision
      | None -> 0
    in
    Sched.set_feed sched
      (Some (Feed.strict_feed (Feed.strict ~start t.log.Log.decisions)));
    match
      while m.Machine.step < target && Block_machine.step bm do
        ()
      done
    with
    | () -> Ok (state_json t m)
    | exception Feed.Diverged d ->
        Error
          (Printf.sprintf "inspect: schedule diverged while seeking (decision %d)"
             d.Feed.at)
  end

(* ------------------------------------------------------------------ *)
(* Pretty rendering                                                    *)
(* ------------------------------------------------------------------ *)

let jstr = function Json.String s -> s | j -> Json.to_string j
let jint = function Json.Int n -> n | _ -> 0
let mem name j = Option.value ~default:Json.Null (Json.member name j)

let render_frame buf fr =
  Buffer.add_string buf
    (Printf.sprintf "      %s:%s[%d]  %s\n"
       (jstr (mem "func" fr))
       (jstr (mem "block" fr))
       (jint (mem "idx" fr))
       (jstr (mem "next" fr)));
  match mem "regs" fr with
  | Json.Obj [] | Json.Null -> ()
  | Json.Obj regs ->
      Buffer.add_string buf "        ";
      Buffer.add_string buf
        (String.concat ", "
           (List.map (fun (name, v) -> name ^ "=" ^ jstr v) regs));
      Buffer.add_char buf '\n'
  | _ -> ()

let render_thread buf th =
  let status =
    match mem "status" th with
    | Json.String s -> s
    | j -> Json.to_string j
  in
  let locks =
    match mem "locks_held" th with
    | Json.List (_ :: _ as l) ->
        "  holds " ^ String.concat ", " (List.map jstr l)
    | _ -> ""
  in
  let recovering =
    match mem "recovering" th with
    | Json.Null -> ""
    | r ->
        Printf.sprintf "  RECOVERING site %d (since step %d)"
          (jint (mem "site" r))
          (jint (mem "since_step" r))
  in
  Buffer.add_string buf
    (Printf.sprintf "  thread %d: %s%s%s\n" (jint (mem "tid" th)) status locks
       recovering);
  match mem "stack" th with
  | Json.List frames -> List.iter (render_frame buf) frames
  | _ -> ()

let render state =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "state of %s at step %d\n"
       (jstr (mem "app" state))
       (jint (mem "step" state)));
  (match mem "threads" state with
  | Json.List threads -> List.iter (render_thread buf) threads
  | _ -> ());
  (match mem "globals" state with
  | Json.Obj (_ :: _ as globals) ->
      Buffer.add_string buf "  globals: ";
      Buffer.add_string buf
        (String.concat ", "
           (List.map (fun (name, v) -> name ^ "=" ^ jstr v) globals));
      Buffer.add_char buf '\n'
  | _ -> ());
  (match mem "locks" state with
  | Json.Obj (_ :: _ as locks) ->
      Buffer.add_string buf "  locks: ";
      Buffer.add_string buf
        (String.concat ", "
           (List.map
              (fun (name, v) ->
                match v with
                | Json.String "free" -> name ^ "=free"
                | j -> name ^ "=t" ^ string_of_int (jint (mem "owner" j)))
              locks));
      Buffer.add_char buf '\n'
  | _ -> ());
  (match mem "outputs" state with
  | Json.List (_ :: _ as outs) ->
      Buffer.add_string buf "  outputs so far: ";
      Buffer.add_string buf (String.concat " | " (List.map jstr outs));
      Buffer.add_char buf '\n'
  | _ -> ());
  Buffer.contents buf
