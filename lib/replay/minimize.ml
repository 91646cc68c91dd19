(* Failing-interleaving minimization: ddmin over preemption points.

   A recorded schedule is recast as an ordered list of context-switch
   directives ("once thread FROM has run COUNT decisions, switch to
   TO"). Switches forced by the running thread blocking or finishing are
   kept unconditionally — any executor must make them, and keeping the
   recorded target preserves exact reproduction. The *preemptive*
   switches (the previous thread was still eligible) are the search
   space: running the full directive set through [Feed.directed]
   reproduces the recorded run exactly, so Zeller-style delta debugging
   (ddmin) over the preemptive subset finds a locally minimal set of
   preemptions that still produces the recorded failure.

   The result is re-recorded under the winning directive set, giving a
   strict-replayable minimized log, a switch-by-switch explanation of
   where each remaining preemption lands in the program, and — when the
   detector fires on the minimized schedule — the race report that names
   the root cause the interleaving exposes.

   Every run goes through [Engine] on [Engine.default]. The block
   engine keeps its compiled phases under a feed and under any
   observer, so the candidates, the re-recording and the detector's
   replay all run compiled. *)

open Conair_ir
open Conair_runtime
module Json = Conair_obs.Json
module Report = Conair_obs.Report
module Log = Schedule_log

type switch = {
  sw_index : int;  (** ordinal in the minimized decision stream *)
  sw_step : int;
  sw_from : int;
  sw_to : int;
  sw_from_at : string;  (** where the preempted thread stood *)
  sw_to_at : string;  (** where the incoming thread resumes *)
  sw_preemptive : bool;
}

type t = {
  mn_log : Log.t;  (** minimized, strict-replayable *)
  mn_original : int;  (** preemptive switches in the input log *)
  mn_minimized : int;  (** preemptive directives the failure needs *)
  mn_tests : int;  (** candidate executions run by ddmin *)
  mn_switches : switch list;  (** every switch of the minimized run *)
  mn_races : Conair_race.Report.t option;
}

(* ------------------------------------------------------------------ *)
(* Directive extraction                                                *)
(* ------------------------------------------------------------------ *)

(* The extraction itself lives in [Feed.directives_of] — the fix
   synthesizer's replay gate recasts logs the same way. *)
let directives_of_log (log : Log.t) =
  Feed.directives_of ~decisions:log.Log.decisions
    ~preemptions:log.Log.preemptions

let merge = Feed.merge_directives

(* ------------------------------------------------------------------ *)
(* ddmin (Zeller & Hildebrandt, TSE 2002)                              *)
(* ------------------------------------------------------------------ *)

let split items n =
  let len = List.length items in
  let rec take k xs acc =
    if k = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> (List.rev acc, [])
      | x :: xs -> take (k - 1) xs (x :: acc)
  in
  let rec go acc rest i =
    if i = n then List.rev acc
    else
      (* chunk i covers [i*len/n, (i+1)*len/n) — sizes differ by at most 1 *)
      let size = ((i + 1) * len / n) - (i * len / n) in
      let chunk, rest = take size rest [] in
      go (chunk :: acc) rest (i + 1)
  in
  go [] items 0

let complements chunks =
  List.mapi
    (fun i _ -> List.concat (List.filteri (fun j _ -> j <> i) chunks))
    chunks

let ddmin test items =
  if test [] then []
  else
    let rec go items n =
      let len = List.length items in
      if len <= 1 then items
      else
        let chunks = split items n in
        match List.find_opt test chunks with
        | Some c -> go c 2
        | None -> (
            match
              if n = 2 then None else List.find_opt test (complements chunks)
            with
            | Some c -> go c (max (n - 1) 2)
            | None -> if n < len then go items (min len (2 * n)) else items)
    in
    go items 2

(* ------------------------------------------------------------------ *)
(* The failure predicate                                               *)
(* ------------------------------------------------------------------ *)

(* Same bug, not same run: the failure kind and site must match, but
   step counts and hang participants may shift as preemptions drop. *)
let same_failure (recorded : Outcome.t) (candidate : Outcome.t) =
  match (recorded, candidate) with
  | Outcome.Failed a, Outcome.Failed b ->
      a.kind = b.kind && a.iid = b.iid && a.msg = b.msg
  | Outcome.Hang _, Outcome.Hang _ -> true
  | Outcome.Fuel_exhausted _, Outcome.Fuel_exhausted _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Minimization                                                        *)
(* ------------------------------------------------------------------ *)

(* [Engine.default]'s state, which [locate] reads: the block engine's
   [Machine.t]. *)
let machine_state = function
  | Engine.M_block bm -> Block_machine.machine bm
  | Engine.M_ref _ -> invalid_arg "Minimize: the reference engine is the oracle"

let locate texts (m : Machine.t) tid =
  match Hashtbl.find_opt m.Machine.threads tid with
  | None -> "<gone>"
  | Some th -> (
      match th.Thread.stack with
      | [] -> "<no frame>"
      | fr :: _ ->
          let blk = fr.Thread.block in
          let instr =
            if fr.Thread.idx < Array.length blk.Link.lb_instrs then
              Option.value ~default:"?"
                (Hashtbl.find_opt texts
                   blk.Link.lb_instrs.(fr.Thread.idx).Link.li_iid)
            else "<terminator>"
          in
          Printf.sprintf "%s:%s[%d] %s" fr.Thread.func.Link.lf_qname
            blk.Link.lb_label_name fr.Thread.idx instr)

let minimize ?(max_tests = 2000) ?(detect = true) ?program ?meta (log : Log.t)
    =
  match Driver.resolve_program ?program log with
  | Error e -> Error (Driver.error_to_string e)
  | Ok program ->
      if Outcome.is_success log.Log.outcome then
        Error "the recorded run succeeded; there is no failure to minimize"
      else begin
        let meta = Driver.resolve_meta ?meta log in
        let config = log.Log.config in
        let fixed, cand = directives_of_log log in
        let tests = ref 0 in
        let test subset =
          !tests < max_tests
          && begin
               incr tests;
               (* the feed is part of this candidate machine and dies
                  with it — it cannot leak onto a later candidate run *)
               let _, outcome =
                 Engine.run_program ~config ?meta
                   ~feed:(Feed.directed (merge fixed subset))
                   Engine.default program
               in
               same_failure log.Log.outcome outcome
             end
        in
        if not (test cand) then
          Error
            "the failure does not reproduce from the recorded schedule's \
             switch points (non-round-robin recording?)"
        else
          let best = ddmin test cand in
          (* Final run: directed by the winning set, re-recorded, with
             the switch contexts captured as they happen. *)
          let recorder = Recorder.create () in
          let em =
            Engine.create ~config ?meta ~observer:(Recorder.observer recorder)
              Engine.default program
          in
          let m = machine_state em in
          let texts =
            let tbl = Hashtbl.create 256 in
            Program.iter_funcs program (fun f ->
                Func.iter_instrs f (fun _blk i ->
                    Hashtbl.replace tbl i.Instr.iid
                      (Format.asprintf "%a" Instr.pp i)));
            tbl
          in
          (* The feed hears each decision — a window's first one when it
             opens — before its thread runs and before the recorder
             sees it, so the recorder's [prev] is still the thread being
             switched away from and its [count] is this decision's
             ordinal. Under a feed no thread runs ahead of the clock
             ([Block_machine]), so [locate] reads where each thread
             stands at the decision. Whether a switch was preemptive is
             read back from the recording. *)
          let switches = ref [] in
          let switch chosen =
            let prev = Flight_ring.prev recorder in
            if prev >= 0 && chosen <> prev then
              switches :=
                {
                  sw_index = Recorder.count recorder;
                  sw_step = m.Machine.step;
                  sw_from = prev;
                  sw_to = chosen;
                  sw_from_at = locate texts m prev;
                  sw_to_at = locate texts m chosen;
                  sw_preemptive = false;
                }
                :: !switches
          in
          let directed = Feed.directed (merge fixed best) in
          (* the feed reads [m]'s state as it records, so it can only be
             built after [create]: set it on the machine's own scheduler
             (still private to this machine) *)
          Sched.set_feed (Engine.sched em)
            (Some
               {
                 Sched.decide =
                   (fun ~tid_of env n ->
                     let i = directed.Sched.decide ~tid_of env n in
                     switch (tid_of env i);
                     i);
                 window =
                   (fun tid ->
                     let accepted = directed.Sched.window tid in
                     if accepted > 0 then switch tid;
                     accepted);
                 took = directed.Sched.took;
               });
          let outcome = Engine.run em in
          if not (same_failure log.Log.outcome outcome) then
            Error "the minimized schedule stopped failing on re-execution"
          else
            let stats = Engine.stats em in
            let preemptions = Recorder.preemptions recorder in
            let preempted = Hashtbl.create 16 in
            Array.iter
              (fun ord -> Hashtbl.replace preempted ord ())
              preemptions;
            let mn_log =
              {
                log with
                Log.engine = Engine.name (Engine.engine_of em);
                decisions = Recorder.decisions recorder;
                preemptions;
                steps = Engine.steps em;
                instrs = stats.Stats.instrs;
                rollbacks = stats.Stats.rollbacks;
                outcome;
                outputs = Engine.outputs em;
              }
            in
            let mn_races =
              if not detect then None
              else begin
                (* replay the minimized schedule with the detector on *)
                let det = Conair_race.Detect.create () in
                (match
                   Engine.run_program ~config ?meta
                     ~observer:(Conair_race.Detect.probe det)
                     ~feed:(Feed.strict_feed (Feed.strict mn_log.Log.decisions))
                     Engine.default program
                 with
                | _ -> ()
                | exception Feed.Diverged _ -> ());
                Some (Conair_race.Detect.report det)
              end
            in
            Ok
              {
                mn_log;
                mn_original = Array.length log.Log.preemptions;
                mn_minimized = List.length best;
                mn_tests = !tests;
                mn_switches =
                  List.rev_map
                    (fun sw ->
                      {
                        sw with
                        sw_preemptive = Hashtbl.mem preempted sw.sw_index;
                      })
                    !switches;
                mn_races;
              }
      end

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let switch_json s =
  Json.Obj
    [
      ("index", Json.Int s.sw_index);
      ("step", Json.Int s.sw_step);
      ("from", Json.Int s.sw_from);
      ("to", Json.Int s.sw_to);
      ("from_at", Json.String s.sw_from_at);
      ("to_at", Json.String s.sw_to_at);
      ("preemptive", Json.Bool s.sw_preemptive);
    ]

let to_json t =
  let log = t.mn_log in
  Json.Obj
    ([
       ("type", Json.String "minimized_schedule");
       ("app", Json.String log.Log.ident.Log.id_app);
       ("variant", Json.String log.Log.ident.Log.id_variant);
       ("mode", Json.String log.Log.ident.Log.id_mode);
       ("original_preemptions", Json.Int t.mn_original);
       ("minimized_preemptions", Json.Int t.mn_minimized);
       ("tests", Json.Int t.mn_tests);
       ("decisions", Json.Int (Array.length log.Log.decisions));
       ("steps", Json.Int log.Log.steps);
       ("outcome", Report.outcome_json log.Log.outcome);
       ("switches", Json.List (List.map switch_json t.mn_switches));
     ]
    @
    match t.mn_races with
    | None -> []
    | Some r -> [ ("races", Conair_race.Report.to_json r) ])

let render t =
  let log = t.mn_log in
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "minimized interleaving for %s (%s, mode %s)\n" log.Log.ident.Log.id_app
    log.Log.ident.Log.id_variant log.Log.ident.Log.id_mode;
  add "  preemptions: %d -> %d (%d candidate executions)\n" t.mn_original
    t.mn_minimized t.mn_tests;
  add "  failure: %s\n" (Outcome.to_string log.Log.outcome);
  let preemptive = List.filter (fun s -> s.sw_preemptive) t.mn_switches in
  List.iteri
    (fun i s ->
      add "  switch %d @ step %d: t%d -> t%d\n" (i + 1) s.sw_step s.sw_from
        s.sw_to;
      add "    t%d preempted at %s\n" s.sw_from s.sw_from_at;
      add "    t%d resumes at %s\n" s.sw_to s.sw_to_at)
    preemptive;
  (match t.mn_races with
  | None -> ()
  | Some r ->
      let races = List.length r.Conair_race.Report.races in
      let cycles = List.length r.Conair_race.Report.cycles in
      if races > 0 || cycles > 0 then
        add
          "  detector on the minimized schedule: %d race(s), %d lock \
           cycle(s)\n"
          races cycles
      else add "  detector on the minimized schedule: quiet\n");
  Buffer.contents buf
