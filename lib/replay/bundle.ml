(* The flight bundle: a schedule log's window plus the machine's
   post-mortem state.

   The [flight] lens attaches a bounded flight ring to a [Capture.run],
   packages the ring's window as a schedule log ([Driver.log_of_run])
   and adds what only a post-mortem needs: the window's start, the dump
   reason, per-thread status and held locksets, the ring's recent events
   and the recovery-episode spans. The JSON keeps the log's header (plus
   "reason"), writes the window as a "tail" of sched_chunk records with
   its absolute "first" and "total" and absolute preemption ordinals,
   and the log's trailer as "trailer".

   [recover_log] is the regeneration recipe: because every run is
   deterministic from (program, seed, config, engine), re-running the
   embedded program under the embedded config with the record lens (an
   unbounded ring) reconstructs the complete decision stream. The window
   then acts as a tamper-evident check — the re-run's decisions,
   preemption ordinals and trailer must all match it, or the bundle is
   rejected. *)

open Conair_runtime
module Log = Schedule_log
module Json = Conair_obs.Json

let ( let* ) = Result.bind

type event = {
  bv_kind : string;
  bv_step : int;
  bv_tid : int;
  bv_arg : int;
  bv_detail : string;
}

type episode = {
  be_site : int;
  be_tid : int;
  be_start : int;
  be_end : int;
  be_retries : int;
}

type t = {
  window : Log.t;
  first : int;
  reason : string;
  threads : (int * string * string list) list;
  events : event list;
  episodes : episode list;
}

let total b = b.first + Array.length b.window.Log.decisions

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)
(* ------------------------------------------------------------------ *)

(* A ring event as a bundle row: [bv_arg] carries the site id, the
   spawned child or the wait flavor (1), [bv_detail] the lock or event
   name or the failure message. *)
let row (ev : Event.t) =
  let r bv_kind bv_step bv_tid bv_arg bv_detail =
    Some { bv_kind; bv_step; bv_tid; bv_arg; bv_detail }
  in
  match ev with
  | Acquire { step; tid; lock; _ } -> r "acquire" step tid (-1) lock
  | Request { step; tid; lock; _ } -> r "block" step tid (-1) lock
  | Wait { step; tid; event } -> r "block" step tid 1 event
  | Release { step; tid; lock; _ } -> r "release" step tid (-1) lock
  | Spawn { step; parent; child } -> r "spawn" step parent child ""
  | Rollback { step; tid; site_id; _ } -> r "rollback" step tid site_id ""
  | Recovered { step; tid; site_id } -> r "recovered" step tid site_id ""
  | Failed { step; tid; site_id; msg } -> r "fail" step tid site_id msg
  | Decide _ | Wake _ | Join _ | Thread_done _ | Failure_detected _
  | Compensate_block _ | Step _ | Idle _ | Output _ | Checkpoint _ | Access _
    ->
      None

let flight ?cap ?(reason = "requested") ~ident ()
    ({ Capture.config; target; _ } : Capture.context) =
  let ring = Flight_ring.create ?cap () in
  ( [ Flight_ring.observer ring ],
    fun (r : Capture.run) ->
      {
        window =
          Driver.log_of_run ~config ?meta:target.meta ~ident
            ~program:target.program ring r.machine r.outcome;
        first = Flight_ring.tail_first ring;
        reason;
        threads = Engine.thread_summaries r.machine;
        events = List.filter_map row (Flight_ring.events ring);
        episodes =
          List.map
            (fun (ep : Stats.episode) ->
              {
                be_site = ep.ep_site_id;
                be_tid = ep.ep_tid;
                be_start = ep.ep_start;
                be_end = ep.ep_end;
                be_retries = ep.ep_retries;
              })
            (Stats.episodes_chronological r.stats);
      } )

(* ------------------------------------------------------------------ *)
(* Regeneration                                                        *)
(* ------------------------------------------------------------------ *)

(* The re-run must reproduce the window: the same stream length, the
   retained decisions and preemptions as its suffix, the same trailer.
   Checked on the bundle as given, not only as loaded. *)
let verify (b : t) (full : Log.t) (r : Capture.run) =
  let err fmt = Printf.ksprintf (fun s -> Error ("bundle: " ^ s)) fmt in
  let w = b.window in
  let n = Array.length full.Log.decisions in
  let len = Array.length w.Log.decisions in
  let rec diverges i =
    if i = len then None
    else if full.Log.decisions.(b.first + i) <> w.Log.decisions.(i) then Some i
    else diverges (i + 1)
  in
  if b.first < 0 || b.first + len <> n then
    err "re-run made %d decisions, the bundle's window is [%d, %d)" n b.first
      (b.first + len)
  else
    match diverges 0 with
    | Some i ->
        err "decision %d diverges: re-run chose tid %d, tail has %d"
          (b.first + i)
          full.Log.decisions.(b.first + i)
          w.Log.decisions.(i)
    | None ->
        let pre =
          Array.of_list
            (List.filter
               (fun ord -> ord >= b.first)
               (Array.to_list full.Log.preemptions))
        in
        if pre <> w.Log.preemptions then
          err "tail preemptions diverge (re-run %d, bundle %d)"
            (Array.length pre)
            (Array.length w.Log.preemptions)
        else
          Result.map_error (( ^ ) "bundle: re-run ")
            (Driver.check_run w r.machine r.outcome)

let recover_log ?engine (b : t) : (Log.t, string) result =
  let w = b.window in
  let* engine =
    match engine with Some e -> Ok e | None -> Engine.of_string w.Log.engine
  in
  let* program = Log.program w in
  let r, log =
    Capture.run ~engine ~config:w.Log.config
      (Capture.record ~ident:w.Log.ident)
      { program; meta = Log.machine_meta w }
  in
  let* () = verify b log r in
  Ok log

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let ints a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

let to_json b : Json.t =
  let w = b.window in
  Json.Obj
    (Log.header_members ~ty:"flight_bundle" ~reason:(Some b.reason) w
    @ [
        ( "tail",
          Json.Obj
            [
              ("first", Json.Int b.first);
              ("total", Json.Int (total b));
              ("preemptions", ints w.Log.preemptions);
              ("chunks", Json.List (Log.chunks w.Log.decisions));
            ] );
        ("trailer", Json.Obj (Log.trailer_members w));
        ( "threads",
          Json.List
            (List.map
               (fun (tid, status, locks) ->
                 Json.Obj
                   [
                     ("tid", Json.Int tid);
                     ("status", Json.String status);
                     ( "locks",
                       Json.List (List.map (fun l -> Json.String l) locks) );
                   ])
               b.threads) );
        ( "events",
          Json.List
            (List.map
               (fun e ->
                 Json.Obj
                   [
                     ("ev", Json.String e.bv_kind);
                     ("step", Json.Int e.bv_step);
                     ("tid", Json.Int e.bv_tid);
                     ("arg", Json.Int e.bv_arg);
                     ("detail", Json.String e.bv_detail);
                   ])
               b.events) );
        ( "episodes",
          Json.List
            (List.map
               (fun ep ->
                 Json.Obj
                   [
                     ("site", Json.Int ep.be_site);
                     ("tid", Json.Int ep.be_tid);
                     ("start", Json.Int ep.be_start);
                     ("end", Json.Int ep.be_end);
                     ("retries", Json.Int ep.be_retries);
                   ])
               b.episodes) );
      ])

let to_string b = Json.to_string (to_json b)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

open Log.Decode

let row decode j = Result.to_option (decode j)

let thread =
  row (fun j ->
      let* tid = get nat "tid" j in
      let* status = get nonempty "status" j in
      let* locks = get (list str) "locks" j in
      Ok (tid, status, locks))

let event =
  row (fun j ->
      let* bv_kind = get nonempty "ev" j in
      let* bv_step = get int "step" j in
      let* bv_tid = get int "tid" j in
      let* bv_arg = get int "arg" j in
      let* bv_detail = get str "detail" j in
      Ok { bv_kind; bv_step; bv_tid; bv_arg; bv_detail })

let episode =
  row (fun j ->
      let* be_site = get int "site" j in
      let* be_tid = get int "tid" j in
      let* be_start = get int "start" j in
      let* be_end = get int "end" j in
      let* be_retries = get int "retries" j in
      if be_end < be_start then Error "episode ends before it starts"
      else Ok { be_site; be_tid; be_start; be_end; be_retries })

let of_json (j : Json.t) : (t, string) result =
  Result.map_error (( ^ ) "bundle: ")
  @@
  if Json.member "type" j <> Some (Json.String "flight_bundle") then
    Error "not a flight_bundle document"
  else
    let* tail = member "tail" j in
    let* first = get int "first" tail in
    let* total = get int "total" tail in
    let* chunks = get (list Option.some) "chunks" tail in
    let* decisions = Log.of_chunks chunks in
    let* preemptions = get (list int) "preemptions" tail in
    let* trailer = member "trailer" j in
    let* window =
      Log.decode ~header:j ~trailer ~first ~decisions
        ~preemptions:(Array.of_list preemptions)
    in
    if total <> first + Array.length decisions then
      Error
        (Printf.sprintf "tail carries %d decisions, total - first says %d"
           (Array.length decisions) (total - first))
    else
      let* reason = get nonempty "reason" j in
      let* threads = get (list thread) "threads" j in
      let* events = get (list event) "events" j in
      let* episodes = get (list episode) "episodes" j in
      Ok { window; first; reason; threads; events; episodes }

let of_string s =
  let* j = Json.of_string s in
  of_json j

let save b file =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (to_string b);
      output_char oc '\n')

let load file =
  match In_channel.with_open_text file In_channel.input_all with
  | text -> of_string (String.trim text)
  | exception Sys_error e -> Error ("bundle: " ^ e)
