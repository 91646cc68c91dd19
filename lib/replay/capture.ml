(* One capture path: a lens builds its observers for the run about to
   start and folds the finished run into its artifact; [run] executes a
   target once with a lens attached. Lenses combine with [pair], so any
   set of artifacts comes out of one execution. *)

open Conair_ir
open Conair_runtime
module Jsonl = Conair_obs.Jsonl
module Span = Conair_obs.Span
module Metrics = Conair_obs.Metrics
module Report = Conair_obs.Report

type target = { program : Program.t; meta : Machine.meta option }

type run = {
  outcome : Outcome.t;
  outputs : string list;
  stats : Stats.t;
  machine : Engine.machine;
}

type context = { engine : Engine.t; config : Machine.config; target : target }
type 'a t = context -> Event.observer list * (run -> 'a)

let run ?(config = Machine.default_config) ?(engine = Engine.default) lens
    target =
  let observers, finish = lens { engine; config; target } in
  let observer =
    match observers with [] -> None | os -> Some (Event.combine os)
  in
  let m, outcome =
    Engine.run_program ~config ?meta:target.meta ?observer engine
      target.program
  in
  let r =
    { outcome; outputs = Engine.outputs m; stats = Engine.stats m; machine = m }
  in
  (r, finish r)

let none _ = ([], ignore)

let pair a b ctx =
  let oa, fa = a ctx in
  let ob, fb = b ctx in
  ( oa @ ob,
    fun r ->
      let x = fa r in
      (x, fb r) )

let maybe on lens ctx =
  if on then
    let os, f = lens ctx in
    (os, fun r -> Some (f r))
  else ([], fun _ -> None)

let only_if keep lens ctx =
  let os, f = lens ctx in
  (os, fun r -> if keep r then Some (f r) else None)

let observer o _ = ([ o ], ignore)

type run_report = {
  run : run;
  spans : Span.collector;
  metrics : Metrics.t;
  report : Conair_obs.Json.t;
}

let report ?meta_info ?trace_writer () { engine; config; target } =
  let hardened = target.meta <> None in
  let live = Metrics.create () in
  let spans = Span.collector () in
  let jsonl =
    let meta =
      Option.map (Jsonl.meta_json ~config ~engine ~hardened) meta_info
    in
    Option.map (Jsonl.observer ?meta) trace_writer
  in
  ( Option.to_list jsonl @ [ Span.observer spans; Report.live_metrics live ],
    fun run ->
      let metrics = Report.standard_metrics ~into:live run.stats in
      let report =
        Report.run_json
          ?meta:(Option.map (Jsonl.meta_fields ~engine ~hardened) meta_info)
          ~config ~spans:(Span.spans spans) ~outcome:run.outcome
          ~outputs:run.outputs run.stats
      in
      { run; spans; metrics; report } )

let profile _ =
  let prof = Conair_obs.Prof.create () in
  ( [ Conair_obs.Prof.probe prof ],
    fun _ ->
      Conair_obs.Prof.finalize prof;
      prof )

let detect ?options () _ =
  let d = Conair_race.Detect.create ?options () in
  ([ Conair_race.Detect.probe d ], fun _ -> Conair_race.Detect.report d)

let record ~ident { config; target; _ } =
  let ring = Recorder.create () in
  ( [ Recorder.observer ring ],
    fun r ->
      Driver.log_of_run ~config ?meta:target.meta ~ident
        ~program:target.program ring r.machine r.outcome )
