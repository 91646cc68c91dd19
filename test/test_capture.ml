(* The one capture path ([Conair.run] with composable lenses): every
   artifact of a multi-lens run is byte-identical to the same lens's
   single-lens run, and a bare run installs no observer, so the block
   engine keeps its compiled phases. *)

open Test_util
module Spec = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry
module Machine = Conair.Runtime.Machine
module Engine = Conair.Runtime.Engine
module Sched = Conair.Runtime.Sched
module Block_machine = Conair.Runtime.Block_machine
module Json = Conair.Obs.Json
module Jsonl = Conair.Obs.Jsonl
module Prof = Conair.Obs.Prof
module Log = Conair.Replay.Log
module Bundle = Conair.Replay.Bundle

let config policy = { Machine.default_config with fuel = 400_000; policy }

(* Each fold's bytes, from one run carrying all five lenses and from five
   runs carrying one lens each. *)
let artifacts ~engine ~config ~meta_info ~ident target =
  let b = Buffer.create 4096 in
  let report =
    Conair.report ~meta_info ~trace_writer:(Jsonl.buffer_writer b) ()
  in
  let record = Conair.record ~ident and flight = Conair.flight ~ident () in
  let detect = Conair.detect () in
  let encode (rr, (log, (bundle, (prof, races)))) =
    [
      ("report JSON", Json.to_string rr.Conair.report);
      ("JSONL lines", Buffer.contents b);
      ("log lines", String.concat "\n" (Log.to_lines log));
      ("bundle JSON", Bundle.to_string bundle);
      ("profile JSON", Json.to_string (Prof.to_json prof));
      ("race report JSON", Json.to_string (Conair.Race.Report.to_json races));
    ]
  in
  let run lens = snd (Conair.run ~engine ~config lens target) in
  let combined =
    encode
      (run
         (Conair.pair report
            (Conair.pair record
               (Conair.pair flight (Conair.pair Conair.profile detect)))))
  in
  Buffer.clear b;
  (* only the report run writes to [b] *)
  let single =
    encode
      ( run report,
        (run record, (run flight, (run Conair.profile, run detect))) )
  in
  (combined, single)

let lenses_compose () =
  List.iter
    (fun (s : Spec.t) ->
      let name = s.info.name in
      let inst = s.make ~variant:Spec.Buggy ~oracle:s.info.needs_oracle in
      let meta_info = Jsonl.run_meta ~variant:"buggy" name in
      List.iter
        (fun mode ->
          let target = Conair.target ?mode inst.program in
          let ident =
            Log.ident ~variant:"buggy" ~mode:(Conair.mode_name mode) name
          in
          List.iter
            (fun policy ->
              List.iter
                (fun engine ->
                  let label =
                    Printf.sprintf "%s/%s/%s/%s" name (Conair.mode_name mode)
                      (match policy with
                      | Sched.Round_robin -> "rr"
                      | Sched.Random n -> "random" ^ string_of_int n)
                      (Engine.name engine)
                  in
                  let combined, single =
                    artifacts ~engine ~config:(config policy) ~meta_info ~ident
                      target
                  in
                  List.iter2
                    (fun (what, c) (_, s) ->
                      Alcotest.(check string) (label ^ ": " ^ what) s c)
                    combined single)
                [ Engine.Ref; Engine.Block ])
            [ Sched.Round_robin; Sched.Random 7 ])
        [ None; Some Conair.Survival ])
    Registry.all

(* A bare run is created without an observer: [none] observes nothing,
   and [Event.combine []] is never installed in its place. *)
let bare_runs_unobserved () =
  let unobserved (r : Conair.run) =
    match r.machine with
    | Engine.M_block bm -> Option.is_none (Block_machine.machine bm).Machine.obs
    | _ -> Alcotest.fail "expected a block-engine machine"
  in
  List.iter
    (fun (s : Spec.t) ->
      let inst = s.make ~variant:Spec.Buggy ~oracle:s.info.needs_oracle in
      let config = config Sched.Round_robin in
      Alcotest.(check bool)
        (s.info.name ^ ": execute installs no observer")
        true
        (unobserved (Conair.execute ~engine:Engine.Block ~config inst.program));
      Alcotest.(check bool)
        (s.info.name ^ ": execute_hardened installs no observer")
        true
        (unobserved
           (Conair.execute_hardened ~engine:Engine.Block ~config
              (Conair.harden_exn inst.program Conair.Survival))))
    Registry.all

let suites =
  [
    ( "capture",
      [
        slow_case "multi-lens run matches single-lens runs" lenses_compose;
        case "bare runs install no observer" bare_runs_unobserved;
      ] );
  ]
