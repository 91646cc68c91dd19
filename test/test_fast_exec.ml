(* The block-compiled engine ([Block_machine]) against the reference
   interpreter ([Ref_machine]): bit-for-bit semantic identity over the
   whole bugbench catalog — every
   Table 2 benchmark (buggy and clean), every taxonomy catalog entry,
   every Fig 2 micro pattern — under both scheduling policies, original
   and hardened.

   "Identical" means: outcome, final outputs, step/instruction/idle
   counts, checkpoint and rollback counts, compensation counts, the full
   recovery-episode list (per-site retry stats included), the per-id
   checkpoint-hit table, the complete JSONL event log, and the cost
   profiler's full attribution (per-context flamegraph lines, per-site
   wasted-step charges). It also extends to the serialized artifacts:
   JSONL event logs, race-detector report JSON, and recorded schedule
   logs must match byte for byte across the two engines.

   Each comparison runs twice per engine: once fully hooked (JSONL
   encoder and cost profiler installed) and once bare. Both passes run
   the block engine's compiled phases: the hooked one retires every
   instruction through its single-step form and announces it, the bare
   one runs fused chains. A third family single-steps the block engine
   ([Engine.step], the path of a scheduler tap and of the inspector) and
   holds it to the same identity. *)

open Conair.Ir
module Machine = Conair.Runtime.Machine
module Ref_machine = Conair.Runtime.Ref_machine
module Engine = Conair.Runtime.Engine
module Event = Conair.Runtime.Event
module Sched = Conair.Runtime.Sched
module Stats = Conair.Runtime.Stats
module Jsonl = Conair.Obs.Jsonl
module Json = Conair.Obs.Json
module Outcome = Conair.Runtime.Outcome
module Registry = Conair_bugbench.Registry
module Spec = Conair_bugbench.Bench_spec
module Catalog = Conair_bugbench.Catalog
module Micro = Conair_bugbench.Micro_patterns

(* Enough fuel for every benchmark to reach its outcome, small enough to
   bound livelocking configurations. *)
let config policy = { Machine.default_config with policy; fuel = 200_000 }

let outcome_t = Alcotest.testable Outcome.pp ( = )

(* The trace stream as the JSONL encoder writes it, one line per record
   — the serialized event log, compared line by line so a divergence
   names its first record. *)
let check_traces name (ref_lines : string list) (lines : string list) =
  let rec first_diff i a b =
    match (a, b) with
    | [], [] -> ()
    | x :: a', y :: b' when x = y -> first_diff (i + 1) a' b'
    | x, y ->
        let first = function [] -> "<end of trace>" | l :: _ -> l in
        Alcotest.failf
          "%s: serialized JSONL event logs diverge at record %d:@ reference: \
           %s@ engine: %s"
          name i (first x) (first y)
  in
  first_diff 0 ref_lines lines

(* A JSONL observer collecting its lines, newest first. *)
let jsonl_lines () =
  let lines = ref [] in
  ( lines,
    Jsonl.observer
      { Jsonl.write = (fun j -> lines := Json.to_string j :: !lines) } )

let check_stats name (r : Stats.t) (f : Stats.t) =
  let check what = Alcotest.(check int) (name ^ ": " ^ what) in
  check "steps" r.steps f.steps;
  check "instrs" r.instrs f.instrs;
  check "idle" r.idle f.idle;
  check "checkpoints" r.checkpoints f.checkpoints;
  check "rollbacks" r.rollbacks f.rollbacks;
  check "compensated locks" r.compensated_locks f.compensated_locks;
  check "compensated blocks" r.compensated_blocks f.compensated_blocks;
  check "tracecheck violations" r.tracecheck_violations f.tracecheck_violations;
  check "outputs" r.outputs f.outputs;
  if r.episodes <> f.episodes then
    Alcotest.failf "%s: recovery episodes differ (%d vs %d, or per-site stats)"
      name (List.length r.episodes) (List.length f.episodes);
  if Stats.ckpt_hits r <> Stats.ckpt_hits f then
    Alcotest.failf "%s: per-checkpoint hit counts differ" name

module Prof = Conair.Obs.Prof

(* The profile comparison covers the whole attribution model: totals per
   class, per-site rollback waste, and every collapsed-stack line of
   every class. *)
let check_profiles name (rp : Prof.t) (fp : Prof.t) =
  let check what = Alcotest.(check int) (name ^ ": profile " ^ what) in
  check "useful steps" (Prof.useful_steps rp) (Prof.useful_steps fp);
  check "checkpoint steps" (Prof.checkpoint_steps rp)
    (Prof.checkpoint_steps fp);
  check "wasted steps" (Prof.wasted_steps rp) (Prof.wasted_steps fp);
  check "idle steps" (Prof.idle_steps rp) (Prof.idle_steps fp);
  if Prof.site_costs rp <> Prof.site_costs fp then
    Alcotest.failf "%s: per-site wasted-step attribution differs" name;
  List.iter
    (fun kind ->
      Alcotest.(check (list string))
        (name ^ ": collapsed " ^ Prof.kind_name kind)
        (Prof.to_collapsed rp kind)
        (Prof.to_collapsed fp kind))
    [ Prof.Useful; Prof.Checkpoint; Prof.Wasted; Prof.Total ]

(* Everything one hooked run exposes. *)
type observed = {
  o_outcome : Outcome.t;
  o_outputs : string list;
  o_steps : int;
  o_stats : Stats.t;
  o_trace : string list;  (** the JSONL event log, one line per record *)
  o_prof : Prof.t;
}

(* [Engine.run] spelled as single steps: the run's fuel check around
   [Engine.step], as [Replay.Inspect]'s forward pass drives the block
   engine. A step that leaves the program running moves the clock by
   exactly one: one idle tick or one decision. *)
let run_stepped (config : Machine.config) m =
  let rec go () =
    let steps = Engine.steps m in
    if steps >= config.fuel then Outcome.Fuel_exhausted steps
    else if Engine.step m then begin
      if Engine.steps m <> steps + 1 then
        Alcotest.failf "a single step moved the clock from %d to %d" steps
          (Engine.steps m);
      go ()
    end
    else Option.value ~default:Outcome.Success (Engine.outcome m)
  in
  go ()

let drive ~stepped config m =
  if stepped then run_stepped config m else Engine.run m

(* One fully-hooked run of [p] on [engine]: JSONL encoder and cost
   profiler installed for the whole execution. *)
let observe ?(stepped = false) engine ?meta config (p : Program.t) =
  let lines, jsonl = jsonl_lines () in
  let prof = Prof.create () in
  let m =
    Engine.create ~config ?meta
      ~observer:(Event.combine [ jsonl; Prof.probe prof ])
      engine p
  in
  let outcome = drive ~stepped config m in
  Prof.finalize prof;
  {
    o_outcome = outcome;
    o_outputs = Engine.outputs m;
    o_steps = Engine.steps m;
    o_stats = Engine.stats m;
    o_trace = List.rev !lines;
    o_prof = prof;
  }

(* One bare run: no hooks at all. On the block engine this is the path
   that actually retires compiled straight-line windows. *)
let bare ?(stepped = false) engine ?meta config (p : Program.t) =
  let m = Engine.create ~config ?meta engine p in
  let outcome = drive ~stepped config m in
  (outcome, Engine.outputs m, Engine.steps m, Engine.stats m)

(* The engine measured against the reference interpreter. *)
let engines = [ ("block", Engine.Block) ]

(* [o] ran as the hooked reference run [r] did: the differential
   guarantee extends to the serialized telemetry (byte-identical JSONL
   event logs) and to the cost profiler (identical per-context and
   per-site attribution, down to every flamegraph line). *)
let check_observed name r o =
  Alcotest.check outcome_t (name ^ ": outcome") r.o_outcome o.o_outcome;
  Alcotest.(check (list string)) (name ^ ": outputs") r.o_outputs o.o_outputs;
  Alcotest.(check int) (name ^ ": virtual time") r.o_steps o.o_steps;
  check_stats name r.o_stats o.o_stats;
  check_traces name r.o_trace o.o_trace;
  check_profiles name r.o_prof o.o_prof

(* A run without telemetry ended as the hooked reference run [r] did:
   telemetry is observation, never behaviour. *)
let check_ended name r (outcome, outputs, steps, stats) =
  Alcotest.check outcome_t (name ^ ": outcome") r.o_outcome outcome;
  Alcotest.(check (list string)) (name ^ ": outputs") r.o_outputs outputs;
  Alcotest.(check int) (name ^ ": virtual time") r.o_steps steps;
  check_stats name r.o_stats stats

(* Run [p] on both engines under identical configuration and insist on
   identical observable behaviour, hooked and bare. *)
let check_same name ?meta config (p : Program.t) =
  let r = observe Engine.Ref ?meta config p in
  List.iter
    (fun (ename, engine) ->
      let name = name ^ "#" ^ ename in
      check_observed name r (observe engine ?meta config p);
      check_ended (name ^ "/bare") r (bare engine ?meta config p))
    engines

(* The block engine single-stepped ([Engine.step]) is the reference's
   run: bare, under the JSONL encoder and the cost profiler, and under a
   scheduler tap, which sends [Engine.run] itself through
   [Block_machine.step] and must hear the reference's decisions. [k]
   single steps followed by [Engine.run] end as a plain run does. *)
let check_stepped name ?meta config (p : Program.t) =
  let r = observe Engine.Ref ?meta config p in
  let name = name ^ "#stepped" in
  check_observed name r (observe ~stepped:true Engine.Block ?meta config p);
  check_ended (name ^ "/bare") r (bare ~stepped:true Engine.Block ?meta config p);
  let tapped engine =
    let module Tap = Test_util.Tap_recorder in
    let t = Tap.create () in
    let m, outcome =
      Engine.run_program ~config ?meta ~tap:(Tap.tap t) engine p
    in
    ( (outcome, Engine.outputs m, Engine.steps m, Engine.stats m),
      (Tap.decisions t, Tap.preemptions t) )
  in
  let _, (r_decisions, r_preemptions) = tapped Engine.Ref in
  let ended, (decisions, preemptions) = tapped Engine.Block in
  check_ended (name ^ "/tap") r ended;
  Alcotest.(check (array int)) (name ^ "/tap: decisions") r_decisions decisions;
  Alcotest.(check (array int))
    (name ^ "/tap: preemptions") r_preemptions preemptions;
  List.iter
    (fun k ->
      let m = Engine.create ~config ?meta Engine.Block p in
      let i = ref 0 in
      while !i < k && Engine.steps m < config.Machine.fuel && Engine.step m do
        incr i
      done;
      let outcome = Engine.run m in
      check_ended
        (Printf.sprintf "%s/%d steps, then run" name k)
        r
        (outcome, Engine.outputs m, Engine.steps m, Engine.stats m))
    [ 1; 7; 64; 513 ]

(* ------------------------------------------------------------------ *)
(* The program corpus: the full bugbench catalog                       *)
(* ------------------------------------------------------------------ *)

let corpus () =
  let of_spec (s : Spec.t) =
    let buggy = s.make ~variant:Spec.Buggy ~oracle:true in
    let clean = s.make ~variant:Spec.Clean ~oracle:false in
    [
      (s.info.name ^ "/buggy", buggy.program);
      (s.info.name ^ "/clean", clean.program);
    ]
  in
  List.concat_map of_spec (Registry.all @ Registry.extended)
  @ List.map
      (fun (e : Catalog.entry) -> ("catalog/" ^ e.name, e.program))
      (Catalog.all ())
  @ List.map
      (fun (pt : Micro.pattern) -> ("micro/" ^ pt.name, pt.program))
      (Micro.all ())

let policies =
  [ ("round-robin", Sched.Round_robin); ("random", Sched.Random 42) ]

let sweep_original (pname, policy) () =
  List.iter
    (fun (name, p) -> check_same (name ^ "@" ^ pname) (config policy) p)
    (corpus ())

let sweep_hardened (pname, policy) () =
  List.iter
    (fun (name, p) ->
      match Conair.harden p Conair.Survival with
      | Error _ -> ()
      | Ok h ->
          let meta = Machine.meta_of_harden h.hardened in
          check_same
            (name ^ "/hardened@" ^ pname)
            ~meta (config policy) h.hardened.program;
          (* metadata that names every fail arm a second time, under
             another site: the first entry counts on every engine, so
             recovery episodes still close at the same step *)
          let fbs = meta.Machine.fail_blocks in
          check_same
            (name ^ "/repeated-labels@" ^ pname)
            ~meta:
              {
                Machine.fail_blocks =
                  fbs @ List.map (fun (l, _) -> (l, 9999)) fbs;
              }
            (config policy) h.hardened.program)
    (corpus ())

(* The baselines' knobs exercise the remaining engine paths: timing
   perturbation draws on the rng, wait-graph detection changes lock
   eligibility. Both engines must still agree. *)
let sweep_perturbed () =
  let config =
    {
      (config (Sched.Random 7)) with
      perturb_timing = true;
      deadlock_detection = Machine.Wait_graph;
    }
  in
  List.iter
    (fun (name, p) ->
      match Conair.harden p Conair.Survival with
      | Error _ -> check_same (name ^ "@perturbed") config p
      | Ok h ->
          let meta = Machine.meta_of_harden h.hardened in
          check_same (name ^ "/hardened@perturbed") ~meta config
            h.hardened.program)
    (corpus ())

(* The race/deadlock detector's serialized report must match byte for
   byte across the engines: the detector only sees probe events, and
   every engine must emit the same stream. *)
let sweep_detector_reports () =
  let config = config (Sched.Random 42) in
  List.iter
    (fun (name, p) ->
      let report engine =
        let _, rep =
          Conair.run ~config ~engine (Conair.detect ()) (Conair.target p)
        in
        Conair.Obs.Json.to_string (Conair.Race.Report.to_json rep)
      in
      let ref_report = report Engine.Ref in
      List.iter
        (fun (ename, engine) ->
          Alcotest.(check string)
            (name ^ "#" ^ ename ^ ": race report JSON")
            ref_report (report engine))
        engines)
    (corpus ())

(* Recorded schedule logs must serialize identically across the engines
   — modulo the engine stamp itself, which names the recorder and is
   checked separately — under round-robin and several seeds. The
   recorder observes decisions and sync events only, so the block
   engine records on its compiled window path. *)
let sweep_recorded_logs () =
  let module Log = Conair.Replay.Log in
  let check_logs name log_of =
    let log_lines engine =
      let log : Log.t = log_of engine in
      Alcotest.(check string)
        (name ^ ": engine stamp")
        (Engine.name engine) log.Log.engine;
      Log.to_lines { log with Log.engine = "-" }
    in
    let ref_lines = log_lines Engine.Ref in
    List.iter
      (fun (ename, engine) ->
        Alcotest.(check (list string))
          (name ^ "#" ^ ename ^ ": schedule log bytes")
          ref_lines (log_lines engine))
      engines
  in
  List.iter
    (fun (pname, policy) ->
      let config = config policy in
      List.iter
        (fun (name, p) ->
          let name = name ^ "@" ^ pname in
          check_logs name (fun engine ->
              snd
                (Conair.record_run ~config ~engine ~ident:(Log.ident name) p));
          match Conair.harden p Conair.Survival with
          | Error _ -> ()
          | Ok h ->
              check_logs (name ^ "/hardened") (fun engine ->
                  snd
                    (Conair.run_recorded ~config ~engine
                       ~ident:(Log.ident name) h)))
        (corpus ()))
    [
      ("round-robin", Sched.Round_robin);
      ("random:1", Sched.Random 1);
      ("random:2", Sched.Random 2);
      ("random:3", Sched.Random 3);
      ("random:42", Sched.Random 42);
    ]

(* Interleaving signatures — the campaign's dedupe key — must be
   byte-identical across engines: they hash the decision stream and the
   race-probe access orders, both covered by the differential
   guarantee. *)
let sweep_signatures () =
  let config = config (Sched.Random 7) in
  let module Log = Conair.Replay.Log in
  let module Coverage = Conair.Obs.Coverage in
  let signature_of name engine p =
    let coll = Coverage.collector () in
    let _, log =
      Conair.record_run ~config ~engine ~ident:(Log.ident name)
        ~race:(Coverage.probe coll) p
    in
    let ob = Coverage.observed coll in
    Conair.interleaving_signature ~orders:ob.Coverage.ob_orders log
  in
  List.iter
    (fun (name, p) ->
      let ref_sig = signature_of name Engine.Ref p in
      List.iter
        (fun (ename, engine) ->
          Alcotest.(check string)
            (name ^ "#" ^ ename ^ ": interleaving signature")
            ref_sig (signature_of name engine p))
        engines)
    (corpus ())

(* [Sched.choose_idx] must mirror [Sched.choose] pick-for-pick: same
   selections, same cursor movement, same rng consumption. *)
let choose_idx_agrees () =
  List.iter
    (fun policy ->
      let s_list = Sched.create policy in
      let s_idx = Sched.create policy in
      let tid_sets =
        [
          [ 0 ]; [ 0; 1 ]; [ 1; 3; 7 ]; [ 2 ]; [ 0; 1; 2; 3; 4 ]; [ 5; 9 ];
          [ 4; 5; 6 ]; [ 0; 8 ]; [ 3 ]; [ 1; 2; 9; 12 ];
        ]
      in
      List.iter
        (fun tids ->
          let arr = Array.of_list tids in
          let from_list = Sched.choose s_list tids in
          let k =
            Sched.choose_idx s_idx ~tid_of:Array.get arr (Array.length arr)
          in
          Alcotest.(check int) "same pick" from_list arr.(k);
          Alcotest.(check int)
            "same cursor" s_list.Sched.cursor s_idx.Sched.cursor)
        tid_sets)
    [ Sched.Round_robin; Sched.Random 13 ]

(* ---- the fast-path contract ----------------------------------------

   Observers take their events from compiled code — sync events from
   the shared helpers, access events from the memory links, per-step
   events from the driver — and a replay feed answers windows in
   counts, so none of them may push the block engine off its compiled
   phases; only a scheduler tap does. What they observe or decide there
   must be what the interpretive engines do. *)

module Block_machine = Conair.Runtime.Block_machine
module Recorder = Conair.Replay.Recorder
module Lockorder = Conair.Race.Lockorder
module Detect = Conair.Race.Detect
module Tap = Test_util.Tap_recorder

let observers_stay_unhooked () =
  let p =
    (List.hd Registry.all).Spec.make ~variant:Spec.Buggy ~oracle:false
  in
  let hooked ?observer ?tap ?feed () =
    Block_machine.hooked
      (Block_machine.machine
         (Block_machine.create ~config:(config Sched.Round_robin) ?observer
            ?tap ?feed p.Spec.program))
  in
  let witness () = Lockorder.witness_probe (Lockorder.witness ()) in
  let recorder () = Recorder.observer (Recorder.create ()) in
  let ring () =
    Conair.Runtime.Flight_ring.(observer (create ()))
  in
  let sync_only = [ recorder (); ring (); witness () ] in
  List.iter
    (fun (label, hooked, expected) ->
      Alcotest.(check bool) label expected hooked)
    [
      ("bare", hooked (), false);
      ("recorder", hooked ~observer:(recorder ()) (), false);
      ("bounded ring", hooked ~observer:(ring ()) (), false);
      ("lock-order witness", hooked ~observer:(witness ()) (), false);
      ( "recorder + witness",
        hooked ~observer:(Event.combine [ recorder (); witness () ]) (),
        false );
      ( "ring + recorder + witness",
        hooked ~observer:(Event.combine sync_only) (),
        false );
      ( "full detector",
        hooked ~observer:(Detect.probe (Detect.create ())) (),
        false );
      ( "cost profiler",
        hooked ~observer:(Prof.probe (Prof.create ())) (),
        false );
      ( "coverage collector",
        hooked
          ~observer:
            Conair.Obs.Coverage.(probe (collector ()))
          (),
        false );
      ("JSONL encoder", hooked ~observer:(snd (jsonl_lines ())) (), false);
      ( "span collector",
        hooked ~observer:Conair.Obs.Span.(observer (collector ())) (),
        false );
      ( "recorder + JSONL encoder",
        hooked
          ~observer:(Event.combine [ recorder (); snd (jsonl_lines ()) ])
          (),
        false );
      ("scheduler tap", hooked ~tap:(fun ~chosen:_ ~eligible:_ -> ()) (), true);
      ( "replay feed",
        hooked ~feed:Conair.Replay.Feed.(strict_feed (strict [||])) (),
        false );
      ( "directed feed",
        hooked ~feed:(Conair.Replay.Feed.directed []) (),
        false );
    ]

(* Directed replay — the fix pipeline's replay gate — of each buggy
   catalog app's recorded failing schedule, against the recorded program
   (where it reproduces the recording) and against its survival-hardened
   form, a different program where directives may no longer fire and
   control falls back to round-robin order. The block engine's windows
   take the directed feed's decisions as counts; every engine must end
   in the same state. *)
let directed_replay_agrees () =
  let config = config Sched.Round_robin in
  let replayed = ref 0 in
  List.iter
    (fun (s : Spec.t) ->
      let p = (s.make ~variant:Spec.Buggy ~oracle:true).program in
      let _, log =
        Conair.record_run ~config ~ident:(Conair.Replay.Log.ident s.info.name)
          p
      in
      if not (Outcome.is_success log.Conair.Replay.Log.outcome) then begin
        incr replayed;
        let hardened =
          match Conair.harden p Conair.Survival with
          | Ok h ->
              [
                ( s.info.name ^ "/hardened",
                  Some (Machine.meta_of_harden h.Conair.hardened),
                  h.Conair.hardened.program );
              ]
          | Error _ -> []
        in
        List.iter
          (fun (name, meta, program) ->
            let replay engine =
              Conair.Replay.Driver.replay_directed ~engine ?meta ~program log
            in
            let r = replay Engine.Ref in
            (* every recorded switch fed back reproduces the recording *)
            (if meta = None then
               match Conair.Replay.Driver.check log r with
               | Ok () -> ()
               | Error e -> Alcotest.failf "%s directed#ref: %s" name e);
            List.iter
              (fun (ename, engine) ->
                let name = name ^ " directed#" ^ ename in
                let b = replay engine in
                Alcotest.check outcome_t (name ^ ": outcome")
                  r.Conair.Replay.Driver.rb_outcome
                  b.Conair.Replay.Driver.rb_outcome;
                Alcotest.(check (list string))
                  (name ^ ": outputs") r.Conair.Replay.Driver.rb_outputs
                  b.Conair.Replay.Driver.rb_outputs;
                Alcotest.(check int)
                  (name ^ ": virtual time") r.Conair.Replay.Driver.rb_steps
                  b.Conair.Replay.Driver.rb_steps;
                check_stats name r.Conair.Replay.Driver.rb_stats
                  b.Conair.Replay.Driver.rb_stats)
              engines)
          ((s.info.name, None, p) :: hardened)
      end)
    Registry.all;
  Alcotest.(check bool) "some buggy app fails under round-robin" true
    (!replayed > 0)

(* The run-length recording, on every engine (the block engine on its
   window path), expands to exactly the decisions and preemptions an
   independent tap recorder classifies on the reference, under
   round-robin and three seeds. *)
let recorder_matches_tap_oracle () =
  List.iter
    (fun (pname, policy) ->
      let config = config policy in
      List.iter
        (fun (name, p) ->
          let oracle = Tap.create () in
          ignore
            (Engine.run_program ~config ~tap:(Tap.tap oracle) Engine.Ref p);
          List.iter
            (fun engine ->
              let label = name ^ "@" ^ pname ^ "#" ^ Engine.name engine in
              let r = Recorder.create () in
              ignore
                (Engine.run_program ~config ~observer:(Recorder.observer r)
                   engine p);
              Alcotest.(check int) (label ^ ": count") (Tap.count oracle)
                (Recorder.count r);
              Alcotest.(check (array int))
                (label ^ ": decisions") (Tap.decisions oracle)
                (Recorder.decisions r);
              Alcotest.(check (array int))
                (label ^ ": preemptions") (Tap.preemptions oracle)
                (Recorder.preemptions r))
            Engine.all)
        (corpus ()))
    [
      ("round-robin", Sched.Round_robin);
      ("random:1", Sched.Random 1);
      ("random:2", Sched.Random 2);
      ("random:3", Sched.Random 3);
    ]

(* The lock-event-only witness (block engine, window path) yields the
   cycle keys of the full detector (the reference, every event) on every
   catalog app, buggy and clean, at every seed of a triage-sized sweep. *)
let witness_keys_match_detector () =
  let policies =
    Sched.Round_robin :: List.init 25 (fun s -> Sched.Random (s + 1))
  in
  let with_cycles = ref 0 in
  List.iter
    (fun (s : Spec.t) ->
      List.iter
        (fun variant ->
          let p = (s.make ~variant ~oracle:false).program in
          List.iter
            (fun policy ->
              let config = config policy in
              let det = Detect.create () in
              ignore
                (Engine.run_program ~config ~observer:(Detect.probe det)
                   Engine.Ref p);
              let expected =
                List.sort_uniq compare
                  (List.map Conair.Race.Report.cycle_key
                     (Detect.report det).Conair.Race.Report.cycles)
              in
              if expected <> [] then incr with_cycles;
              let w = Lockorder.witness () in
              ignore
                (Engine.run_program ~config
                   ~observer:(Lockorder.witness_probe w) Engine.Block p);
              Alcotest.(check (list string))
                (Printf.sprintf "%s/%s: cycle keys" s.info.name
                   (match variant with
                   | Spec.Buggy -> "buggy"
                   | Spec.Clean -> "clean"))
                expected (Lockorder.cycle_keys w))
            policies)
        [ Spec.Buggy; Spec.Clean ])
    (Registry.all @ Registry.extended);
  Alcotest.(check bool) "some runs close lock-order cycles" true
    (!with_cycles > 0)

(* An observer of one event class that digests every event it receives,
   plus the view's answers for the event's thread where it has one: a
   full-depth structural hash per item, MD5 over the sequence. Adjacent
   decisions for one thread are merged first: the block engine reports a
   compiled window as one counted decision. *)
let digester (observer : (Event.view -> Event.t -> unit) -> Event.observer) =
  let buf = Buffer.create 4096 in
  let add x =
    Buffer.add_int32_le buf (Int32.of_int (Hashtbl.hash_param 256 256 x))
  in
  let run = ref None in
  let flush () =
    Option.iter add !run;
    run := None
  in
  let on (v : Event.view) (ev : Event.t) =
    match (ev, !run) with
    | Decide { tid; count; preemptive = false; _ }, Some (s, t, c, p)
      when t = tid ->
        run := Some (s, t, c + count, p)
    | Decide { step; tid; count; preemptive }, _ ->
        flush ();
        run := Some (step, tid, count, preemptive)
    | _ -> (
        flush ();
        add ev;
        match ev with
        | Step { tid; _ } | Access { tid; _ } ->
            add (v.stack tid, v.block tid, v.locks tid)
        | Acquire { tid; _ } | Request { tid; _ } -> add (v.locks tid)
        | _ -> ())
  in
  ( observer on,
    fun () ->
      flush ();
      Digest.to_hex (Digest.string (Buffer.contents buf)) )

(* The event classes an observer may take, alone or as the fuzz
   campaign and the fix pipeline combine them: decisions with accesses
   is the one where a window's lazily reported decisions meet the
   accesses its chained links emit. *)
let event_classes =
  [
    ("sync", fun on -> Event.observer ~decisions:true ~sync:true on);
    ("per-step", fun on -> Event.observer ~steps:true on);
    ("access", fun on -> Event.observer ~accesses:true on);
    ( "decisions+access",
      fun on -> Event.observer ~decisions:true ~accesses:true on );
  ]

(* Each engine emits the same stream: every class's digest matches on
   ref and block, with the block engine on its compiled phases for
   every class, under round-robin and three seeds, original and
   hardened. *)
let one_stream_two_engines () =
  let classes = event_classes in
  List.iter
    (fun (pname, policy) ->
      let config = config policy in
      List.iter
        (fun (name, p) ->
          let runs =
            (name, None, p)
            ::
            (match Conair.harden p Conair.Survival with
            | Error _ -> []
            | Ok h ->
                [
                  ( name ^ "/hardened",
                    Some (Machine.meta_of_harden h.hardened),
                    h.hardened.program );
                ])
          in
          List.iter
            (fun (name, meta, p) ->
              List.iter
                (fun (cname, cls) ->
                  let label = name ^ "@" ^ pname ^ ": " ^ cname ^ " digest" in
                  let digest engine =
                    let observer, digest = digester cls in
                    let m = Engine.create ~config ?meta ~observer engine p in
                    (match m with
                    | Engine.M_block bm ->
                        Alcotest.(check bool) (label ^ " hooked") false
                          (Block_machine.hooked (Block_machine.machine bm))
                    | _ -> ());
                    ignore (Engine.run m);
                    digest ()
                  in
                  let expected = digest Engine.Ref in
                  List.iter
                    (fun (ename, engine) ->
                      Alcotest.(check string) (label ^ "#" ^ ename) expected
                        (digest engine))
                    engines)
                classes)
            runs)
        (corpus ()))
    [
      ("round-robin", Sched.Round_robin);
      ("random:1", Sched.Random 1);
      ("random:2", Sched.Random 2);
      ("random:3", Sched.Random 3);
    ]

(* The same over generated programs: racy readers, lock rings, lost
   wakeups and two-thread heap-op sequences, original and (where the
   analysis accepts them) survival-hardened, under round-robin and one
   random seed. Every class's digest on block equals ref's. A hardened
   use-after-free retries until its budget runs out, so the budget is
   small and the runs stay short. *)
type generated =
  | Racy of Gen.racy_spec
  | Ring of Gen.ring_spec
  | Wakeup of Gen.wakeup_spec
  | Heap of Gen.heap_op list

let generated_gen =
  QCheck.Gen.(
    pair
      (oneof
         [
           map (fun s -> Racy s) Gen.racy_spec_gen;
           map (fun s -> Ring s) Gen.ring_spec_gen;
           map (fun s -> Wakeup s) Gen.wakeup_spec_gen;
           map (fun ops -> Heap ops) Gen.heap_ops_gen;
         ])
      (int_range 1 10_000))

let generated_print (g, seed) =
  (match g with
  | Racy s -> "racy " ^ Gen.racy_spec_print s
  | Ring s -> "ring " ^ Gen.ring_spec_print s
  | Wakeup s -> "wakeup " ^ Gen.wakeup_spec_print s
  | Heap ops -> "heap " ^ Gen.heap_ops_print ops)
  ^ Printf.sprintf " @ random:%d" seed

let generated_streams_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000
       ~name:"generated programs: one stream on ref and block"
       (QCheck.make ~print:generated_print generated_gen)
       (fun (g, seed) ->
         let p =
           match g with
           | Racy s -> Gen.racy_program s
           | Ring s -> Gen.ring_program s
           | Wakeup s -> Gen.wakeup_program s
           | Heap ops -> Gen.heap_program ops
         in
         let runs =
           (None, p)
           ::
           (match Conair.harden p Conair.Survival with
           | Error _ -> []
           | Ok h ->
               [
                 ( Some (Machine.meta_of_harden h.hardened),
                   h.hardened.program );
               ])
         in
         List.for_all
           (fun (meta, p) ->
             List.for_all
               (fun policy ->
                 let config =
                   { (config policy) with fuel = 20_000; max_retries = 16 }
                 in
                 List.for_all
                   (fun (_, cls) ->
                     let digest engine =
                       let observer, digest = digester cls in
                       ignore
                         (Engine.run
                            (Engine.create ~config ?meta ~observer engine p));
                       digest ()
                     in
                     digest Engine.Ref = digest Engine.Block)
                   event_classes)
               [ Sched.Round_robin; Sched.Random seed ])
           runs))

(* Generated contended loops: two to four threads, each running a
   register-only loop, some with a faulting round or a per-round shared
   access, original and survival-hardened, under round-robin, one seed,
   and that seed with fuel that runs out mid-run. The block engine runs
   the loops ahead of the clock in its contended phases; its bare run
   must end as the reference's does: outcome and its step, outputs,
   virtual time and every statistic. *)
let generated_loops_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000
       ~name:"generated contended loops: block runs ahead exactly"
       (QCheck.make
          ~print:(fun (spec, seed) ->
            Gen.contended_spec_print spec ^ Printf.sprintf " @ random:%d" seed)
          QCheck.Gen.(pair Gen.contended_spec_gen (int_range 1 10_000)))
       (fun (spec, seed) ->
         let p = Gen.contended_program spec in
         let runs =
           (None, p)
           ::
           (match Conair.harden p Conair.Survival with
           | Error _ -> []
           | Ok h ->
               [
                 ( Some (Machine.meta_of_harden h.hardened),
                   h.hardened.program );
               ])
         in
         let base = { (config Sched.Round_robin) with fuel = 20_000 } in
         let configs =
           [
             base;
             { base with policy = Sched.Random seed };
             {
               base with
               policy = Sched.Random seed;
               fuel = 50 + (seed mod 500);
             };
           ]
         in
         List.iter
           (fun (meta, p) ->
             List.iter
               (fun config ->
                 let r_outcome, r_outputs, r_steps, r_stats =
                   bare Engine.Ref ?meta config p
                 in
                 let outcome, outputs, steps, stats =
                   bare Engine.Block ?meta config p
                 in
                 Alcotest.check outcome_t "outcome" r_outcome outcome;
                 Alcotest.(check (list string)) "outputs" r_outputs outputs;
                 Alcotest.(check int) "virtual time" r_steps steps;
                 check_stats "block" r_stats stats)
               configs)
           runs;
         true))

(* The link cache never keeps a program alive: once a program is dropped
   its image and the code compiled into it go with it, while a live
   program keeps getting the same ones back. Programs hash by their
   stamp, so a hardening — a copy sharing its original's stamp — still
   gets its own image, and a hit reads only its own program's entries:
   its cost does not grow with the number of live programs. *)
let memos_follow_program_liveness () =
  let module Link = Conair.Runtime.Link in
  let module Compile = Conair.Runtime.Compile in
  let fresh () =
    ((List.hd Registry.all).Spec.make ~variant:Spec.Buggy ~oracle:false)
      .Spec.program
  in
  let live = fresh () in
  let image = Link.link live in
  let code = Compile.compile image in
  let images = Weak.create 1 and codes = Weak.create 1 in
  let[@inline never] drop () =
    let lp = Link.link (fresh ()) in
    Weak.set images 0 (Some lp);
    Weak.set codes 0 (Some (Compile.compile lp))
  in
  drop ();
  Gc.full_major ();
  Alcotest.(check bool) "dropped program's image collected" false
    (Weak.check images 0);
  Alcotest.(check bool) "dropped program's code collected" false
    (Weak.check codes 0);
  Alcotest.(check bool) "live program: same image" true
    (Link.link live == image);
  Alcotest.(check bool) "live program: same code" true
    (Compile.compile (Link.link live) == code);
  let h = (Conair.harden_exn live Conair.Survival).hardened in
  Alcotest.(check int) "hardened copy: same stamp" live.Program.stamp
    h.program.Program.stamp;
  Alcotest.(check bool) "hardened copy: its own image" false
    (Link.link h.program == image);
  let hardened = Link.link ~fail_blocks:h.site_fail_blocks h.program in
  Alcotest.(check bool) "hardened copy: one image" true
    (Link.link ~fail_blocks:h.site_fail_blocks h.program == hardened);
  let many =
    Array.init 1000 (fun i ->
        fst (Gen.arith_program [ { Gen.code = i; a = i; b = i } ]))
  in
  Array.iter (fun p -> ignore (Link.link p)) many;
  let words = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Link.link many.(500)))
  done;
  let per_hit = (Gc.minor_words () -. words) /. 100. in
  if per_hit >= 16. then
    Alcotest.failf "a hit with 1000 live programs allocates %.1f words"
      per_hit;
  ignore (Sys.opaque_identity many)

(* The link cache tells fail-block lists apart by content: a hardened
   log's metadata, rebuilt on every call, links its program once, and
   so do two equal lists built apart; a list that differs gets its own
   image. *)
let equal_fail_blocks_share_an_image () =
  let module Link = Conair.Runtime.Link in
  let module Log = Conair.Replay.Log in
  let module Label = Conair.Ir.Ident.Label in
  let p =
    ((Option.get (Registry.find "MySQL1")).Spec.make ~variant:Spec.Buggy
       ~oracle:false)
      .Spec.program
  in
  let h = Conair.harden_exn p Conair.Survival in
  let _, log = Conair.run_recorded ~ident:(Log.ident "MySQL1") h in
  let prog = Result.get_ok (Log.program log) in
  let image () =
    let meta = Option.get (Log.machine_meta log) in
    Link.link ~fail_blocks:meta.Machine.fail_blocks prog
  in
  let first = image () in
  Alcotest.(check bool) "a log's metadata: one image" true (image () == first);
  let fbs = h.hardened.site_fail_blocks in
  let copy = List.map (fun (l, s) -> (Label.v (Label.name l), s)) fbs in
  Alcotest.(check bool) "distinct lists" false (copy == fbs);
  let image = Link.link ~fail_blocks:fbs h.hardened.program in
  Alcotest.(check bool) "equal lists: one image" true
    (Link.link ~fail_blocks:copy h.hardened.program == image);
  Alcotest.(check bool) "a different list: its own image" false
    (Link.link ~fail_blocks:(List.tl fbs) h.hardened.program == image)

(* ---- contended phases --------------------------------------------

   With several threads eligible the block engine holds the eligible set
   fixed and steps the chosen thread's compiled code until something can
   change that set. These programs put each such boundary inside a
   phase where two spinners contend: a time-based wake of a third
   thread (sleeper, timed lock, timed wait), a death its joiner waits
   on, a fault, a failed assert, the fuel, and a wait-graph deadlock
   detection. Register-only spinners, which the block engine runs ahead
   of the clock, add the boundaries of that: a fault and an undefined
   branch inside code run ahead, local stretches that end at a store, an
   output or (hardened) a checkpoint, credit carried into a window, and
   the fuel running out while threads hold credit. Each runs, original
   and hardened, on both engines under round-robin and three
   seeds; outcome, outputs, stats, virtual time, trace, profile, the
   run-length recording and the fix sweep's keys must agree. *)

let spinners =
  {|
func @mix(%x, %k) {
entry:
  %a = mul %x, 31
  %a = add %a, %k
  %a = mod %a, 1000003
  return %a
}

func @spin(%n, %tag) {
entry:
  %i = move 0
  %acc = move 1
  jump loop
loop:
  %acc = call @mix(%acc, %i)
  %i = add %i, 1
  %c = lt %i, %n
  branch %c, loop, done
done:
  output "spin %v: %v", %tag, %acc
  return
}
|}

(* A call-free spinner whose loop is register-only end to end: in a
   contended phase the block engine runs it ahead of the clock, and the
   steps it retires early are settled one decision at a time. *)
let local_spinner =
  {|
func @lspin(%n, %tag) {
entry:
  %i = move 0
  %acc = move 1
  jump loop
loop:
  %c = lt %i, %n
  branch %c, body, done
body:
  %a = mul %acc, 31
  %a = add %a, %i
  %acc = mod %a, 1000003
  %i = add %i, 1
  jump loop
done:
  output "lspin %v: %v", %tag, %acc
  return
}
|}

let contended_programs () =
  let prog name body =
    (name, Parse.program_exn (spinners ^ local_spinner ^ body))
  in
  [
    prog "sleeper wakes mid-phase"
      {|
func @sleeper() {
entry:
  sleep 45
  output "sleeper woke"
  call @spin(5, 3)
  return
}

func @main() {
entry:
  %t1 = spawn @spin(60, 1)
  %t2 = spawn @spin(60, 2)
  %t3 = spawn @sleeper()
  join %t1
  join %t2
  join %t3
  exit
}
main @main
|};
    prog "timed lock expires mid-phase"
      {|
mutex m

func @waiter() {
entry:
  %ok = timedlock &m, 50
  output "timed lock: %v", %ok
  branch %ok, got, done
got:
  unlock &m
  jump done
done:
  return
}

func @main() {
entry:
  lock &m
  %t1 = spawn @spin(60, 1)
  %t2 = spawn @spin(60, 2)
  %t3 = spawn @waiter()
  join %t1
  join %t2
  unlock &m
  join %t3
  exit
}
main @main
|};
    prog "timed wait expires mid-phase"
      {|
func @waiter() {
entry:
  %ok = timedwait ready, 50
  output "timed wait: %v", %ok
  return
}

func @main() {
entry:
  %t1 = spawn @spin(60, 1)
  %t2 = spawn @spin(60, 2)
  %t3 = spawn @waiter()
  join %t1
  join %t2
  notify ready
  join %t3
  exit
}
main @main
|};
    prog "thread dies while its joiner waits"
      {|
func @main() {
entry:
  %t1 = spawn @spin(15, 1)
  %t2 = spawn @spin(70, 2)
  join %t1
  output "joined t1"
  join %t2
  exit
}
main @main
|};
    prog "fault mid-phase"
      {|
func @faulty() {
entry:
  call @spin(20, 2)
  %z = div 1, 0
  return
}

func @main() {
entry:
  %t1 = spawn @spin(60, 1)
  %t2 = spawn @faulty()
  join %t1
  join %t2
  exit
}
main @main
|};
    prog "failed assert mid-phase"
      {|
func @checker() {
entry:
  call @spin(20, 2)
  %ok = eq 1, 2
  assert %ok, "mid-phase assert"
  return
}

func @main() {
entry:
  %t1 = spawn @spin(60, 1)
  %t2 = spawn @checker()
  join %t1
  join %t2
  exit
}
main @main
|};
    prog "wait-graph detection mid-phase"
      {|
mutex a
mutex b

func @ab() {
entry:
  lock &a
  sleep 3
  %ok = timedlock &b, 5000
  output "ab: %v", %ok
  branch %ok, got, done
got:
  unlock &b
  jump done
done:
  unlock &a
  return
}

func @ba() {
entry:
  lock &b
  sleep 3
  %ok = timedlock &a, 5000
  output "ba: %v", %ok
  branch %ok, got, done
got:
  unlock &a
  jump done
done:
  unlock &b
  return
}

func @main() {
entry:
  %t1 = spawn @spin(60, 1)
  %t2 = spawn @spin(60, 2)
  %t3 = spawn @ab()
  %t4 = spawn @ba()
  join %t1
  join %t2
  join %t3
  join %t4
  exit
}
main @main
|};
    (* the divisor reaches 0 on the 40th round, inside code the block
       engine has run ahead, after the other thread has output *)
    prog "fault inside run-ahead code"
      {|
func @modzero(%d) {
entry:
  %acc = move 1
  jump loop
loop:
  %acc = mul %acc, 7
  %acc = mod %acc, %d
  %acc = add %acc, 1
  %d = sub %d, 1
  jump loop
}

func @main() {
entry:
  %t1 = spawn @lspin(12, 1)
  %t2 = spawn @modzero(40)
  join %t1
  join %t2
  exit
}
main @main
|};
    prog "undefined branch inside a local loop"
      {|
func @undefined(%n) {
entry:
  %i = move 0
  jump loop
loop:
  %i = add %i, 1
  %c = lt %i, %n
  branch %c, loop, tail
tail:
  %i = add %i, 1
  branch %never, loop, tail
}

func @main() {
entry:
  %t1 = spawn @lspin(20, 1)
  %t2 = spawn @undefined(30)
  join %t1
  join %t2
  exit
}
main @main
|};
    (* local stretches that end at a global store (two publishers race
       on a read-modify-write) and at an output *)
    prog "local stretches end at a store and an output"
      {|
global shared = 0

func @publisher(%rounds) {
entry:
  %r = move 0
  jump outer
outer:
  %i = move 0
  jump inner
inner:
  %i = add %i, 1
  %c = lt %i, 9
  branch %c, inner, publish
publish:
  %v = load $shared
  %v = add %v, %i
  store $shared, %v
  %r = add %r, 1
  %c = lt %r, %rounds
  branch %c, outer, done
done:
  output "published %v", %v
  return
}

func @talker(%rounds) {
entry:
  %r = move 0
  jump outer
outer:
  %i = move 0
  jump inner
inner:
  %i = add %i, 1
  %c = lt %i, 7
  branch %c, inner, talk
talk:
  output "talk %v: %v", %r, %i
  %r = add %r, 1
  %c = lt %r, %rounds
  branch %c, outer, done
done:
  return
}

func @main() {
entry:
  %t1 = spawn @publisher(6)
  %t2 = spawn @publisher(5)
  %t3 = spawn @talker(6)
  join %t1
  join %t2
  join %t3
  %v = load $shared
  output "shared %v", %v
  exit
}
main @main
|};
    (* hardened, the assert's checkpoint lands at the loop head (the
       function's entry block), so each round's local stretch ends at a
       checkpoint *)
    prog "local stretches end at a checkpoint"
      {|
global flag = 0

func @ckloop(%n) {
entry:
  %n = sub %n, 1
  %c = gt %n, 0
  branch %c, entry, done
done:
  %v = load $flag
  %ok = eq %v, 0
  assert %ok, "flag is clear"
  output "ckloop done"
  return
}

func @main() {
entry:
  %t1 = spawn @ckloop(300)
  %t2 = spawn @lspin(90, 2)
  join %t1
  join %t2
  exit
}
main @main
|};
    (* the partner blocks on a lock main holds: the spinner runs on in a
       window, which settles its credit first *)
    prog "credit carried into a window: the partner blocks"
      {|
mutex m

func @blocker(%n) {
entry:
  %i = move 0
  jump loop
loop:
  %i = add %i, 1
  %c = lt %i, %n
  branch %c, loop, take
take:
  lock &m
  output "blocker got the lock"
  unlock &m
  return
}

func @main() {
entry:
  lock &m
  %t1 = spawn @lspin(40, 1)
  %t2 = spawn @blocker(10)
  join %t1
  unlock &m
  join %t2
  exit
}
main @main
|};
    prog "credit carried into a window: the partner dies"
      {|
func @main() {
entry:
  %t1 = spawn @lspin(40, 1)
  %t2 = spawn @lspin(5, 2)
  join %t1
  join %t2
  exit
}
main @main
|};
    prog "fuel runs out while both threads hold credit"
      {|
func @main() {
entry:
  %t1 = spawn @lspin(300, 1)
  %t2 = spawn @lspin(300, 2)
  join %t1
  join %t2
  exit
}
main @main
|};
  ]

let contended_policies =
  [
    ("round-robin", Sched.Round_robin);
    ("random:1", Sched.Random 1);
    ("random:2", Sched.Random 2);
    ("random:3", Sched.Random 3);
  ]

(* The run-length recording of every engine — a sync-class observer,
   so the block engine stays on its phases — against the tap oracle. *)
let check_recordings name ?meta config p =
  let oracle = Tap.create () in
  ignore (Engine.run_program ~config ?meta ~tap:(Tap.tap oracle) Engine.Ref p);
  List.iter
    (fun engine ->
      let label = name ^ "#" ^ Engine.name engine in
      let r = Recorder.create () in
      ignore
        (Engine.run_program ~config ?meta ~observer:(Recorder.observer r)
           engine p);
      Alcotest.(check int) (label ^ ": recorded count") (Tap.count oracle)
        (Recorder.count r);
      Alcotest.(check (array int))
        (label ^ ": recorded decisions") (Tap.decisions oracle)
        (Recorder.decisions r);
      Alcotest.(check (array int))
        (label ^ ": recorded preemptions") (Tap.preemptions oracle)
        (Recorder.preemptions r))
    Engine.all

module Coverage = Conair.Obs.Coverage

(* The fix sweep's observers — the lock-order witness and the schedule
   fingerprint, observers of decisions and sync events, under which the
   block engine runs local code ahead — on every engine against the
   reference: the same run, schedule key and cycle keys. *)
let check_swept name ?meta config p =
  let run engine =
    let lo = Lockorder.witness () and fp = Coverage.fingerprint () in
    let m, outcome =
      Engine.run_program ~config ?meta
        ~observer:
          (Event.combine
             [ Lockorder.witness_probe lo; Coverage.fingerprint_probe fp ])
        engine p
    in
    ( outcome,
      Engine.outputs m,
      Engine.steps m,
      Engine.stats m,
      Coverage.key fp,
      Lockorder.cycle_keys lo )
  in
  let r_outcome, r_outputs, r_steps, r_stats, r_key, r_cycles =
    run Engine.Ref
  in
  List.iter
    (fun (ename, engine) ->
      let name = name ^ "/swept#" ^ ename in
      let outcome, outputs, steps, stats, key, cycles = run engine in
      Alcotest.check outcome_t (name ^ ": outcome") r_outcome outcome;
      Alcotest.(check (list string)) (name ^ ": outputs") r_outputs outputs;
      Alcotest.(check int) (name ^ ": virtual time") r_steps steps;
      check_stats name r_stats stats;
      Alcotest.(check bool)
        (name ^ ": schedule fingerprint")
        true (key = r_key);
      Alcotest.(check (list string)) (name ^ ": cycle keys") r_cycles cycles)
    engines

let contended_boundaries () =
  let runs =
    List.concat_map
      (fun (name, p) ->
        (name, None, p)
        ::
        (match Conair.harden p Conair.Survival with
        | Error _ -> []
        | Ok h ->
            [
              ( name ^ "/hardened",
                Some (Machine.meta_of_harden h.hardened),
                h.hardened.program );
            ]))
      (contended_programs ())
  in
  List.iter
    (fun (pname, policy) ->
      List.iter
        (fun (name, meta, p) ->
          let name = name ^ "@" ^ pname in
          let base = config policy in
          let configs =
            [
              (name, base);
              ( name ^ "/wait-graph",
                { base with deadlock_detection = Machine.Wait_graph } );
              (* fuel that runs out while the spinners contend *)
              (name ^ "/fuel", { base with fuel = 700 });
            ]
          in
          List.iter
            (fun (name, config) ->
              check_same name ?meta config p;
              check_recordings name ?meta config p;
              check_swept name ?meta config p)
            configs)
        runs)
    contended_policies;
  (* the cases reach their boundary: the reference runs end as each
     program intends *)
  let run name config =
    fst (Engine.run_program ~config Engine.Ref
           (List.assoc name (contended_programs ())))
  in
  let outcome name config = Engine.outcome (run name config) in
  let rr = config Sched.Round_robin in
  List.iter
    (fun (name, line) ->
      Alcotest.(check bool) (name ^ ": " ^ line) true
        (List.mem line (Engine.outputs (run name rr))))
    [
      ("timed lock expires mid-phase", "timed lock: false");
      ("timed wait expires mid-phase", "timed wait: false");
      ("thread dies while its joiner waits", "joined t1");
    ];
  let failed kind = function
    | Some (Outcome.Failed f) -> f.kind = kind
    | _ -> false
  in
  Alcotest.(check bool) "the fault fails the run" true
    (failed Instr.Seg_fault (outcome "fault mid-phase" rr));
  Alcotest.(check bool) "the assert fails the run" true
    (failed Instr.Assert_fail (outcome "failed assert mid-phase" rr));
  Alcotest.(check bool) "the fuel runs out" true
    (match outcome "sleeper wakes mid-phase" { rr with fuel = 700 } with
    | Some (Outcome.Fuel_exhausted _) -> true
    | _ -> false);
  Alcotest.(check bool) "the wait graph breaks the deadlock" true
    (outcome "wait-graph detection mid-phase"
       { rr with deadlock_detection = Machine.Wait_graph }
    = Some Outcome.Success);
  Alcotest.(check bool) "the run-ahead fault fails the run" true
    (failed Instr.Seg_fault (outcome "fault inside run-ahead code" rr));
  Alcotest.(check bool) "... after the other thread's output" true
    (List.exists
       (fun o -> String.starts_with ~prefix:"lspin 1:" o)
       (Engine.outputs (run "fault inside run-ahead code" rr)));
  Alcotest.(check bool) "the undefined branch fails the run" true
    (failed Instr.Seg_fault
       (outcome "undefined branch inside a local loop" rr));
  Alcotest.(check bool) "the blocked partner gets its lock" true
    (List.mem "blocker got the lock"
       (Engine.outputs
          (run "credit carried into a window: the partner blocks" rr)));
  (* hardening puts a checkpoint at the head of the local loop *)
  (match
     Conair.harden
       (List.assoc "local stretches end at a checkpoint"
          (contended_programs ()))
       Conair.Survival
   with
  | Error _ -> Alcotest.fail "the checkpoint case does not harden"
  | Ok h ->
      let meta = Machine.meta_of_harden h.hardened in
      let m, _ =
        Engine.run_program ~config:rr ~meta Engine.Ref h.hardened.program
      in
      Alcotest.(check bool) "a checkpoint every round" true
        ((Engine.stats m).Stats.checkpoints >= 300));
  (* the block engine really holds credit: when the fuel runs out, both
     spinners have run ahead of the clock *)
  let name = "fuel runs out while both threads hold credit" in
  List.iter
    (fun (pname, policy) ->
      let config = { (config policy) with fuel = 700 } in
      match
        Engine.run_program ~config Engine.Block
          (List.assoc name (contended_programs ()))
      with
      | Engine.M_block bm, Outcome.Fuel_exhausted _ ->
          let m = Block_machine.machine bm in
          List.iter
            (fun tid ->
              let ahead = (Machine.thread m tid).Conair.Runtime.Thread.ahead in
              if ahead <= 0 then
                Alcotest.failf "%s@%s: thread %d holds no credit" name pname
                  tid)
            [ 1; 2 ]
      | _ -> Alcotest.failf "%s@%s: the fuel does not run out" name pname)
    contended_policies

(* ---- compile on entry ---------------------------------------------- *)

module Link = Conair.Runtime.Link
module Compile = Conair.Runtime.Compile

(* Blocks compile the first time a thread enters them. A clean run of a
   hardened program never takes a fail arm, so none of them is compiled;
   the code object stays the image's one, shared by every machine. *)
let fail_arms_stay_uncompiled () =
  let s = Option.get (Registry.find "MySQL1") in
  let p = (s.make ~variant:Spec.Clean ~oracle:false).program in
  let h = (Conair.harden_exn p Conair.Survival).hardened in
  let meta = Machine.meta_of_harden h in
  let image = Link.link ~fail_blocks:meta.Machine.fail_blocks h.program in
  let code = Compile.compile image in
  let blocks =
    List.concat_map
      (fun (f : Link.lfunc) ->
        List.map (fun b -> (f, b)) (Array.to_list f.Link.lf_blocks))
      (Array.to_list image.Link.lp_funcs)
  in
  let compiled () =
    List.filter (fun (f, b) -> Compile.is_compiled code f b) blocks
  in
  Alcotest.(check int) "nothing compiled before the first run" 0
    (List.length (compiled ()));
  let run () =
    let m =
      Engine.create ~config:(config Sched.Round_robin) ~meta Engine.Block
        h.program
    in
    let o = Engine.run m in
    Alcotest.check outcome_t "clean run succeeds" Outcome.Success o;
    Alcotest.(check int) "no rollback" 0 (Engine.stats m).Stats.rollbacks
  in
  run ();
  let after = compiled () in
  Alcotest.(check bool) "entered blocks are compiled" true (after <> []);
  let arms = List.filter (fun (_, b) -> b.Link.lb_site <> None) blocks in
  Alcotest.(check bool) "the program has fail arms" true (arms <> []);
  List.iter
    (fun (f, b) ->
      if Compile.is_compiled code f b then
        Alcotest.failf "fail arm %s of %s was compiled" b.Link.lb_label_name
          f.Link.lf_qname)
    arms;
  Alcotest.(check bool) "one code object per image" true
    (Compile.compile (Link.link ~fail_blocks:meta.Machine.fail_blocks h.program)
     == code);
  run ();
  Alcotest.(check int) "a second machine compiles nothing new"
    (List.length after)
    (List.length (compiled ()))

(* [cb_local] counts exactly the register-only runs that end at a jump or
   a branch: moves, binops, unops and nops; a load or a store of any kind
   (a stack-slot load emits an access), an output or a checkpoint ends a
   run before it, and a return ends none. *)
let local_runs_are_register_only () =
  let p =
    Parse.program_exn
      {|
global g = 0

func @f(%x) {
entry:
  %d = load ~slot
  %a = move %x
  %b = add %a, 1
  %c = neg %b
  nop
  jump next
next:
  %e = add %d, 1
  store ~slot, %e
  %f = move 1
  branch %f, entry, ck
ck:
  %h = move 1
  checkpoint 0
  jump glob
glob:
  %i = load $g
  %j = move %i
  branch %j, out, last
out:
  output "%v", %j
  jump last
last:
  %k = add %f, 1
  return %k
}

func @main() {
entry:
  %r = call @f(1)
  exit
}
main @main
|}
  in
  let image = Link.link p in
  let code = Compile.compile image in
  let f =
    List.find
      (fun (f : Link.lfunc) -> f.Link.lf_qname = "f")
      (Array.to_list image.Link.lp_funcs)
  in
  List.iter
    (fun (label, expected) ->
      let b =
        List.find
          (fun (b : Link.lblock) -> b.Link.lb_label_name = label)
          (Array.to_list f.Link.lf_blocks)
      in
      Alcotest.(check (array int))
        ("cb_local of " ^ label) expected
        (Compile.block code f b).Compile.cb_local)
    [
      ("entry", [| 0; 5; 4; 3; 2; 1 |]);
      ("next", [| 0; 0; 2; 1 |]);
      ("ck", [| 0; 0; 1 |]);
      ("glob", [| 0; 2; 1 |]);
      ("out", [| 0; 1 |]);
      ("last", [| 0; 0 |]);
    ]

(* ---- unboxed loops ------------------------------------------------

   [Compile]'s tier runs loops of register-only blocks over ints and
   bools on a scratch int file. These cases put every boundary of it
   next to the reference: window budgets (the fuel, a sleeper's wake)
   that land on and inside every block of a loop, entries whose live
   registers hold a pointer, a string, a bool where an int is expected
   or nothing, the loop shapes it compiles, a recovering thread, two
   threads contending in the loop, and a hardened loop that holds a
   checkpoint. A single-threaded block run also ends with the frames of
   the single-stepped block run, which never enters the tier. *)

module Thread = Conair.Runtime.Thread

let show_value (v : Value.t) =
  if v == Thread.undef then "undef"
  else
    (match v with
    | Value.Int _ -> "i:"
    | Value.Bool _ -> "b:"
    | _ -> "o:")
    ^ Value.to_string v

(* Every thread's frames on a block machine: function, block, index and
   registers, innermost first. *)
let frames = function
  | Engine.M_block bm ->
      let m = Block_machine.machine bm in
      Hashtbl.fold
        (fun tid (th : Thread.t) acc ->
          ( tid,
            List.map
              (fun (fr : Thread.frame) ->
                Printf.sprintf "%s/%s/%d [%s]" fr.Thread.func.Link.lf_qname
                  fr.Thread.block.Link.lb_label_name fr.Thread.idx
                  (String.concat " "
                     (Array.to_list (Array.map show_value fr.Thread.regs))))
              th.Thread.stack )
          :: acc)
        m.Machine.threads []
      |> List.sort compare
  | Engine.M_ref _ -> []

(* [p] bare on block ends as on ref; with [~frames_too], the block
   run's frames are the single-stepped block run's. *)
let check_tier ?(frames_too = false) name ?meta config p =
  let ended engine ~stepped =
    let m = Engine.create ~config ?meta engine p in
    let outcome = drive ~stepped config m in
    (outcome, Engine.outputs m, Engine.steps m, Engine.stats m, frames m)
  in
  let r_outcome, r_outputs, r_steps, r_stats, _ =
    ended Engine.Ref ~stepped:false
  in
  let outcome, outputs, steps, stats, fr = ended Engine.Block ~stepped:false in
  Alcotest.check outcome_t (name ^ ": outcome") r_outcome outcome;
  Alcotest.(check (list string)) (name ^ ": outputs") r_outputs outputs;
  Alcotest.(check int) (name ^ ": virtual time") r_steps steps;
  check_stats name r_stats stats;
  if frames_too then begin
    let _, _, _, _, stepped = ended Engine.Block ~stepped:true in
    Alcotest.(check (list (pair int (list string))))
      (name ^ ": frames") stepped fr
  end

let tier_shapes =
  {|
func @main() {
entry:
  %i = move 0
  %a = move 5
  %b = move 2
  %f = move false
  jump loop
loop:
  %c = lt %i, 12
  branch %c, body, done
body:
  %p = gt %a, %b
  branch %p, big, small
big:
  %a = sub %a, %b
  %e = eq %a, %b
  %f = or %f, %e
  jump join
small:
  %b = mul %b, 3
  %w = move %i
  %a = neg %a
  %f = and %f, %p
  jump join
join:
  %a = mod %a, 97
  %n = ne %a, %b
  %f = not %n
  %i = add %i, 1
  branch %f, loop, odd
odd:
  %b = div %b, 2
  nop
  jump loop
done:
  output "a=%v b=%v f=%v w=%v", %a, %b, %f, %w
  exit
}
main @main
|}

(* a register the loop writes on a path it never takes *)
let tier_one_path =
  {|
func @main() {
entry:
  %i = move 0
  %k = move false
  jump loop
loop:
  %c = lt %i, 9
  branch %c, body, done
body:
  branch %k, rare, join
rare:
  %w = move 1
  jump join
join:
  %i = add %i, 1
  jump loop
done:
  output "i=%v", %i
  output "w=%v", %w
  exit
}
main @main
|}

(* [@run]'s loop reads [%x] and [%s] live; [main] hands it [arg] and
   sets [%s] from [init] *)
let tier_entry ~arg ~init =
  Printf.sprintf
    {|
func @run(%%x) {
entry:
  %%i = move 0
  %s
  jump loop
loop:
  %%c = lt %%i, 6
  branch %%c, body, done
body:
  %%e = eq %%x, 1
  branch %%e, one, other
one:
  %%s = add %%s, 10
  jump next
other:
  %%s = add %%s, %%x
  jump next
next:
  %%i = add %%i, 1
  jump loop
done:
  return %%s
}

func @main() {
entry:
  %%p = alloc 2
  %%r = call @run(%s)
  output "r=%%v", %%r
  exit
}
main @main
|}
    init arg

(* the loop of [compute_kernel] in a single step's reach: [main] calls
   it through a block that is not register-only *)
let tier_kernel n =
  Printf.sprintf
    {|
func @kernel(%%n) {
entry:
  %%acc = move 0
  %%i = move 0
  jump loop
loop:
  %%c = lt %%i, %%n
  branch %%c, body, done
body:
  %%sq = mul %%i, %%i
  %%sq = mod %%sq, 9973
  %%acc = add %%acc, %%sq
  %%i = add %%i, 1
  jump loop
done:
  return %%acc
}

func @main() {
entry:
  %%w = call @kernel(%d)
  output "w=%%v", %%w
  exit
}
main @main
|}
    n

let tier_programs () =
  [
    ("shapes", Parse.program_exn tier_shapes);
    ("one-path write", Parse.program_exn tier_one_path);
    ("kernel", Parse.program_exn (tier_kernel 7));
  ]

(* The fuel lands on and inside every block of each loop, and the
   single-stepped run stops at each of the first steps before a plain
   run takes over, entering the loop mid-block. *)
let tier_fuel_sweep () =
  let rr = config Sched.Round_robin in
  List.iter
    (fun (name, p) ->
      let total =
        Engine.steps (fst (Engine.run_program ~config:rr Engine.Ref p))
      in
      for fuel = 1 to total + 1 do
        check_tier ~frames_too:true
          (Printf.sprintf "%s/fuel %d" name fuel)
          { rr with fuel } p
      done;
      let r = observe Engine.Ref rr p in
      for k = 1 to min total 40 do
        let m = Engine.create ~config:rr Engine.Block p in
        for _ = 1 to k do
          ignore (Engine.step m)
        done;
        let outcome = Engine.run m in
        check_ended
          (Printf.sprintf "%s/%d single steps, then run" name k)
          r
          (outcome, Engine.outputs m, Engine.steps m, Engine.stats m)
      done)
    (tier_programs ())

(* A sleeper wakes at every step of the loop's run, so a window's bound
   lands on and inside each block; from there the two threads contend
   and the loop runs ahead of the clock. *)
let tier_wake_sweep () =
  for d = 1 to 90 do
    let p =
      Parse.program_exn
        ("func @sleeper() {\nentry:\n  sleep " ^ string_of_int d
       ^ "\n  output \"woke\"\n  return\n}\n"
        ^ {|
func @kernel(%n) {
entry:
  %acc = move 0
  %i = move 0
  jump loop
loop:
  %c = lt %i, %n
  branch %c, body, done
body:
  %sq = mul %i, %i
  %sq = mod %sq, 9973
  %acc = add %acc, %sq
  %i = add %i, 1
  jump loop
done:
  return %acc
}

func @main() {
entry:
  %t = spawn @sleeper()
  %w = call @kernel(9)
  output "w=%v", %w
  join %t
  exit
}
main @main
|})
    in
    List.iter
      (fun (pname, policy) ->
        let label = Printf.sprintf "wake %d@%s" d pname in
        check_tier label (config policy) p;
        check_recordings label (config policy) p)
      [ ("round-robin", Sched.Round_robin); ("random:5", Sched.Random 5) ]
  done

(* A live register that does not hold its kind sends the entry to the
   boxed chain, which runs (a bool where an int is expected, whose
   [eq] with an int is false) or faults (a pointer, a string, nothing)
   exactly as the reference does. *)
let tier_entry_checks () =
  List.iter
    (fun (name, arg, init, expect) ->
      let p = Parse.program_exn (tier_entry ~arg ~init) in
      List.iter
        (fun fuel ->
          check_tier ~frames_too:true
            (Printf.sprintf "%s/fuel %d" name fuel)
            { (config Sched.Round_robin) with fuel }
            p)
        [ 3; 9; 17; 40; 200_000 ];
      let m, outcome =
        Engine.run_program ~config:(config Sched.Round_robin) Engine.Ref p
      in
      match (expect, outcome) with
      | `Out o, Outcome.Success ->
          Alcotest.(check (list string)) (name ^ ": ref output") [ o ]
            (Engine.outputs m)
      | `Fault, Outcome.Failed f when f.kind = Instr.Seg_fault -> ()
      | _ ->
          Alcotest.failf "%s: ref ends as %s" name (Outcome.to_string outcome))
    [
      ("int", "1", "%s = move 0", `Out "r=60");
      ("bool for an int", "true", "%s = move 0", `Out "r=6");
      ("pointer", "%p", "%s = move 0", `Fault);
      ("string", "\"s\"", "%s = move 0", `Fault);
      ("undefined", "2", "nop", `Fault);
    ]

(* A recovering thread's branches note where it goes, so the tier leaves
   its loop to the boxed chain until the episode closes: the hardened
   reader below rolls back while the writer sleeps, then passes the
   assert inside its loop. *)
let tier_recovering =
  {|
global g = 0

func @reader() {
entry:
  %v = load $g
  %i = move 0
  %s = move 0
  jump loop
loop:
  %c = lt %i, 20
  branch %c, body, done
body:
  %ok = gt %v, 0
  assert %ok, "g not ready"
  %s = add %s, %v
  %i = add %i, 1
  jump loop
done:
  output "sum %v", %s
  return
}

func @writer() {
entry:
  sleep 30
  store $g, 3
  return
}

func @main() {
entry:
  %t1 = spawn @reader()
  %t2 = spawn @writer()
  join %t1
  join %t2
  exit
}
main @main
|}

(* Two threads in one tier loop contend; each leaves it into a block
   that stores to a shared global and outputs, which run ahead of the
   clock must not reach. *)
let tier_contended =
  {|
global g = 0

func @work(%n, %tag) {
entry:
  %i = move 0
  %a = move 1
  %f = move true
  jump loop
loop:
  %c = lt %i, %n
  branch %c, body, done
body:
  %a = mul %a, 31
  %a = mod %a, 1009
  %e = eq %a, 7
  %f = ne %f, %e
  branch %f, even, odd
even:
  %a = add %a, %i
  jump next
odd:
  %a = sub %a, 1
  jump next
next:
  %i = add %i, 1
  jump loop
done:
  %s = load $g
  %s = add %s, %a
  store $g, %s
  output "t%v: %v %v", %tag, %a, %s
  return
}

func @main() {
entry:
  %t1 = spawn @work(40, 1)
  %t2 = spawn @work(35, 2)
  join %t1
  join %t2
  %s = load $g
  output "g %v", %s
  exit
}
main @main
|}

(* A store inside the loop puts hardening's checkpoint there, so no
   block of it is register-only and the tier skips it. *)
let tier_checkpointed =
  {|
global g = 5
global h = 0

func @main() {
entry:
  %i = move 0
  %a = move 0
  jump loop
loop:
  %c = lt %i, 30
  branch %c, body, done
body:
  store $h, %i
  %v = load $g
  %ok = ge %v, 0
  assert %ok, "negative"
  %a = add %a, %v
  %i = add %i, 1
  jump loop
done:
  output "a=%v", %a
  exit
}
main @main
|}

let tier_threads () =
  let runs name src =
    let p = Parse.program_exn src in
    (name, None, p)
    ::
    (match Conair.harden p Conair.Survival with
    | Error _ -> []
    | Ok h ->
        [
          ( name ^ "/hardened",
            Some (Machine.meta_of_harden h.hardened),
            h.hardened.program );
        ])
  in
  List.iter
    (fun (name, meta, p) ->
      List.iter
        (fun (pname, policy) ->
          let base = config policy in
          List.iter
            (fun (fname, config) ->
              let name = name ^ "@" ^ pname ^ fname in
              check_same name ?meta config p;
              check_tier name ?meta config p;
              check_swept name ?meta config p)
            [ ("", base); ("/fuel 150", { base with fuel = 150 }) ])
        contended_policies)
    (runs "recovering" tier_recovering
    @ runs "contended" tier_contended
    @ runs "checkpointed" tier_checkpointed);
  (* the cases reach what they are for *)
  let hardened src =
    let h = Conair.harden_exn (Parse.program_exn src) Conair.Survival in
    (Machine.meta_of_harden h.hardened, h.hardened.program)
  in
  let meta, p = hardened tier_recovering in
  let m, outcome =
    Engine.run_program ~config:(config Sched.Round_robin) ~meta Engine.Ref p
  in
  Alcotest.check outcome_t "the reader recovers" Outcome.Success outcome;
  Alcotest.(check bool) "it rolled back" true
    ((Engine.stats m).Stats.rollbacks > 0);
  let meta, p = hardened tier_checkpointed in
  let m, _ =
    Engine.run_program ~config:(config Sched.Round_robin) ~meta Engine.Ref p
  in
  Alcotest.(check bool) "a checkpoint every round" true
    ((Engine.stats m).Stats.checkpoints >= 30)

(* The tier engages on [compute_kernel]'s loop: after a first run has
   compiled the code, a run that spends nearly all its steps there
   allocates next to nothing per step, where the boxed chain allocates
   a [Value.Int] (two words) per binop. *)
let tier_engages_on_compute_kernel () =
  let p =
    Builder.build ~main:"main" @@ fun b ->
    Conair_bugbench.Mirlib.add_compute_kernel b;
    Builder.func b "main" ~params:[] @@ fun f ->
    Builder.label f "entry";
    Builder.call f ~into:"w" "compute_kernel" [ Builder.int 50_000 ];
    Builder.output f "w=%v" [ Builder.reg "w" ];
    Builder.exit_ f
  in
  let config = { (config Sched.Round_robin) with fuel = 1_000_000 } in
  check_tier "compute_kernel" config p;
  ignore (Engine.run_program ~config Engine.Block p);
  let words = Gc.minor_words () in
  let m, _ = Engine.run_program ~config Engine.Block p in
  let per_step = (Gc.minor_words () -. words) /. float (Engine.steps m) in
  if per_step >= 0.01 then
    Alcotest.failf "compute_kernel allocates %.3f minor words per step" per_step

(* Generated register-only loops, bare on ref and on block, with the
   fuel swept over the whole run; block's frames are the single-stepped
   block run's. *)
let generated_rloops_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"generated register-only loops: block runs them unboxed exactly"
       (QCheck.make ~print:Gen.rloop_spec_print Gen.rloop_spec_gen)
       (fun spec ->
         let p = Gen.rloop_program spec in
         let base = config Sched.Round_robin in
         let total =
           Engine.steps (fst (Engine.run_program ~config:base Engine.Ref p))
         in
         for fuel = 1 to total + 1 do
           check_tier ~frames_too:true
             (Printf.sprintf "fuel %d" fuel)
             { base with fuel } p
         done;
         true))

(* ---- single steps --------------------------------------------------- *)

(* [check_stepped] over the catalog, original and survival-hardened,
   under round-robin and one seed. *)
let stepped_catalog () =
  List.iter
    (fun (pname, policy) ->
      let config = config policy in
      List.iter
        (fun (name, p) ->
          let name = name ^ "@" ^ pname in
          check_stepped name config p;
          match Conair.harden p Conair.Survival with
          | Error _ -> ()
          | Ok h ->
              check_stepped (name ^ "/hardened")
                ~meta:(Machine.meta_of_harden h.hardened)
                config h.hardened.program)
        (corpus ()))
    [ ("round-robin", Sched.Round_robin); ("random:7", Sched.Random 7) ]

(* ... and over generated racy programs and contended loops, original
   and hardened, under round-robin and one seed. *)
let generated_stepped =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"generated programs: single-stepped block equals ref"
       (QCheck.make
          ~print:(fun (g, seed) ->
            (match g with
            | `Racy s -> "racy " ^ Gen.racy_spec_print s
            | `Contended s -> "contended " ^ Gen.contended_spec_print s)
            ^ Printf.sprintf " @ random:%d" seed)
          QCheck.Gen.(
            pair
              (oneof
                 [
                   map (fun s -> `Racy s) Gen.racy_spec_gen;
                   map (fun s -> `Contended s) Gen.contended_spec_gen;
                 ])
              (int_range 1 10_000)))
       (fun (g, seed) ->
         let p =
           match g with
           | `Racy s -> Gen.racy_program s
           | `Contended s -> Gen.contended_program s
         in
         let runs =
           (None, p)
           ::
           (match Conair.harden p Conair.Survival with
           | Error _ -> []
           | Ok h ->
               [
                 ( Some (Machine.meta_of_harden h.hardened),
                   h.hardened.program );
               ])
         in
         List.iter
           (fun (meta, p) ->
             List.iter
               (fun policy ->
                 check_stepped "generated" ?meta
                   { (config policy) with fuel = 20_000; max_retries = 16 }
                   p)
               [ Sched.Round_robin; Sched.Random seed ])
           runs;
         true))

(* ---- fault attribution --------------------------------------------- *)

(* A fault is charged to the instruction and the step where it happened:
   the re-execution point, the failure record and the recovery counts
   all read those two values. Each op that can fault sits in block [b]
   first, after ops that cannot fault, after one that can with more ops
   behind it, and last before the terminator; each call is tried over
   arities 0–4, constant and register arguments, an undefined argument
   at each position and at all of them, duplicate parameter names, an
   unknown callee and an arity mismatch. The block engine, chained and
   single-stepped, original and survival-hardened, must end as the
   reference does — the whole outcome (kind, iid, step, message), the
   outputs and the statistics — and emit the same stream in every event
   class. *)

let fault_callees =
  {|
func @f0() {
entry:
  output "f0"
  return 0
}
func @f1(%a) {
entry:
  output "f1 %v", %a
  return %a
}
func @f2(%a, %b) {
entry:
  output "f2 %v %v", %a, %b
  return %b
}
func @f3(%a, %b, %c) {
entry:
  output "f3 %v %v %v", %a, %b, %c
  return %c
}
func @f4(%a, %b, %c, %d) {
entry:
  output "f4 %v %v %v %v", %a, %b, %c, %d
  return %d
}
func @dup(%a, %a) {
entry:
  output "dup %v", %a
  return %a
}
|}

(* [%u], [%uu], [%u3] and [%u4] are never written. *)
let fault_program op (pre, post) =
  Parse.program_exn
    (Printf.sprintf
       {|global g = 0
%s
func @main() {
entry:
  %%one = move 1
  %%zero = move 0
  %%s = move "str"
  %%f = move false
  %%n = move null
  %%p = alloc 2
  %%q = alloc 1
  free %%q
  output "set up"
  jump b
b:
%s  %s
%s  jump done
done:
  output "done"
  exit
}
main @main
|}
       fault_callees pre op post)

(* Where the op sits in [b]: the code before it and the code after it. *)
let fault_places =
  [
    ("first", "", "  %z = add %one, 2\n  nop\n");
    ("after quiet ops", "  %y = move 3\n  nop\n", "  %z = move %y\n");
    ("mid", "  %y = move 3\n  %x = add %one, %y\n", "  %z = move %x\n  nop\n");
    ("last", "  %y = move 3\n  %x = add %y, %one\n", "");
  ]

let faulting_ops =
  [
    "%d = move %u";
    (* binops: either operand undefined, or both (b binds first) *)
    "%d = add %u, %one";
    "%d = add %one, %u";
    "%d = add %u, %uu";
    "%d = add %u, 1";
    "%d = sub 4, %u";
    "%d = lt %u, %one";
    "%d = lt %one, %u";
    "%d = lt %u, %uu";
    "%d = ge %u, 5";
    "%d = eq %u, %one";
    "%d = ne %one, %u";
    "%d = eq %u, %uu";
    "%d = and %u, %one";
    "%d = or %one, %u";
    "%d = and %u, %uu";
    (* coercions, division and modulo *)
    "%d = add %s, 1";
    "%d = sub 1, %s";
    "%d = mul %one, %p";
    "%d = lt %s, 3";
    "%d = ge %one, %n";
    "%d = add %s, %n";
    "%d = div %one, %zero";
    "%d = div %one, 0";
    "%d = mod %one, %zero";
    "%d = mod %one, 0";
    "%d = div %s, %zero";
    "%d = mod %f, %s";
    (* unops *)
    "%d = neg %u";
    "%d = neg %s";
    "%d = not %u";
    (* globals and stack slots *)
    "%d = load $nope";
    "store $nope, 1";
    "store $nope, %u";
    "store $g, %u";
    "store ~slot, %u";
    (* the heap *)
    "%d = load %p[5]";
    "%d = load %n[0]";
    "%d = load %q[0]";
    "%d = load %p[%u]";
    "%d = load %u[%s]";
    "store %p[5], 1";
    "store %q[0], 1";
    "store %p[0], %u";
    "store %u[%s], 1";
    "store %p[%u], %uu";
    "%d = alloc %u";
    "%d = alloc %s";
    "free %q";
    "free 5";
    "free %u";
    "%d = ptr_guard %u[0]";
    "%d = ptr_guard %p[%s]";
    "%d = ptr_guard %p[%u]";
    (* asserts and outputs *)
    {|assert %u, "undefined"|};
    {|assert %f, "false"|};
    {|assert false, "constant false"|};
    {|oracle %f, "wrong"|};
    {|output "out %v %v", %one, %u|};
    {|output "out %v %v", %u, %uu|};
  ]

let undefined_args = [| "%u"; "%uu"; "%u3"; "%u4" |]

(* Calls over arities 0–4: constants, defined registers, one undefined
   argument at each position, all of them undefined (the first
   evaluated names the fault); then duplicate parameters, an unknown
   callee, with and without a faulting argument, and no return
   register. *)
let call_ops =
  List.concat_map
    (fun n ->
      let call args =
        Printf.sprintf "%%d = call @f%d(%s)" n (String.concat ", " args)
      in
      let consts = List.init n (fun i -> string_of_int (i + 10)) in
      let regs = List.init n (fun i -> if i mod 2 = 0 then "%one" else "%s") in
      let undef_at j =
        List.init n (fun i -> if i = j then "%u" else List.nth regs i)
      in
      call consts
      :: (if n > 0 then [ call regs ] else [])
      @ List.init n (fun j -> call (undef_at j))
      @ if n >= 2 then [ call (Array.to_list (Array.sub undefined_args 0 n)) ]
        else [])
    [ 0; 1; 2; 3; 4 ]
  @ [
      "%d = call @dup(1, 2)";
      "%d = call @dup(%one, %s)";
      "%d = call @nope()";
      "%d = call @nope(%one)";
      "%d = call @nope(%u)";
      "call @f2(%one, %u)";
      "call @f1(%s)";
    ]

(* [p] (and its survival hardening) on block, chained and single-stepped,
   ends as on ref, and streams what ref streams in every event class. *)
let check_fault_case name p =
  let runs =
    (name, None, p)
    ::
    (match Conair.harden p Conair.Survival with
    | Error _ -> []
    | Ok h ->
        [
          ( name ^ "/hardened",
            Some (Machine.meta_of_harden h.hardened),
            h.hardened.program );
        ])
  in
  let config = { (config Sched.Round_robin) with fuel = 5_000 } in
  List.iter
    (fun (name, meta, p) ->
      check_same name ?meta config p;
      check_stepped name ?meta config p;
      List.iter
        (fun (cname, cls) ->
          let digest engine =
            let observer, digest = digester cls in
            ignore (Engine.run (Engine.create ~config ?meta ~observer engine p));
            digest ()
          in
          Alcotest.(check string)
            (name ^ ": " ^ cname ^ " digest")
            (digest Engine.Ref) (digest Engine.Block))
        event_classes)
    runs

(* [fails op]: must the op's original program fail on the reference?
   Every case runs; the test names each one that disagrees. *)
let fault_table ~fails ops () =
  let bad = ref [] in
  List.iter
    (fun op ->
      List.iter
        (fun (place, pre, post) ->
          let name = Printf.sprintf "%s (%s)" op place in
          let p = fault_program op (pre, post) in
          match
            let outcome, _, _, _ =
              bare Engine.Ref (config Sched.Round_robin) p
            in
            Alcotest.(check bool)
              (name ^ ": fails on ref") (fails op)
              (match outcome with Outcome.Failed _ -> true | _ -> false);
            check_fault_case name p
          with
          | () -> ()
          | exception e -> bad := (name, Printexc.to_string e) :: !bad)
        fault_places)
    ops;
  match List.rev !bad with
  | [] -> ()
  | bad ->
      List.iter (fun (name, e) -> Printf.printf "FAILED %s: %s\n" name e) bad;
      Alcotest.failf "%d cases disagree, the first: %s" (List.length bad)
        (fst (List.hd bad))

let has_sub s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* An arity mismatch escapes as [Thread.make_frame]'s [Invalid_argument],
   raised after the arguments are evaluated, so an undefined argument
   faults first. *)
let arity_mismatch () =
  List.iter
    (fun (op, expected) ->
      List.iter
        (fun (place, pre, post) ->
          let name = Printf.sprintf "%s (%s)" op place in
          let p = fault_program op (pre, post) in
          let ended engine ~stepped =
            let config = { (config Sched.Round_robin) with fuel = 5_000 } in
            let m = Engine.create ~config engine p in
            match drive ~stepped config m with
            | o -> Outcome.to_string o
            | exception Invalid_argument msg -> "invalid_argument: " ^ msg
          in
          let r = ended Engine.Ref ~stepped:false in
          Alcotest.(check bool) (name ^ ": on ref") true (expected r);
          Alcotest.(check string) (name ^ "#block") r
            (ended Engine.Block ~stepped:false);
          Alcotest.(check string) (name ^ "#stepped") r
            (ended Engine.Block ~stepped:true))
        fault_places)
    [
      ( "%d = call @f2(1)",
        fun r -> r = "invalid_argument: call to @f2: arity mismatch" );
      ( "%d = call @f1(%one, 2)",
        fun r -> r = "invalid_argument: call to @f1: arity mismatch" );
      ( "%d = call @f1(%one, %u)",
        fun r -> String.length r > 6 && String.sub r 0 6 = "failed" );
    ]

(* ---- allocation per step ------------------------------------------- *)

(* A scheduling decision allocates nothing: the engines pass
   [Sched.choose_idx] a closed projection, and the round-robin search is
   a loop, not a closure per decision. HawkNL's clean variant contends
   on most of its steps; under either policy a block run allocates 1.18
   minor words per step, and a 4-word closure per decision would put it
   above the bound. The same holds single-stepped ([Engine.step]), where
   every step makes its own decision. *)
let decisions_allocate_nothing () =
  let s = Option.get (Registry.find "HawkNL") in
  let hawknl = (s.make ~variant:Spec.Clean ~oracle:false).program in
  (* two register-only spinners: block runs them ahead and settles each
     decision from credit *)
  let spinners =
    Parse.program_exn
      (local_spinner
      ^ {|
func @main() {
entry:
  %t1 = spawn @lspin(3000, 1)
  %t2 = spawn @lspin(3000, 2)
  join %t1
  join %t2
  exit
}
main @main
|})
  in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun policy ->
          List.iter
            (fun (how, stepped) ->
              let config = config policy in
              let run () =
                let m = Engine.create ~config Engine.Block p in
                ignore (drive ~stepped config m);
                m
              in
              ignore (run ());
              let words = Gc.minor_words () in
              let m = run () in
              let per_step =
                (Gc.minor_words () -. words) /. float_of_int (Engine.steps m)
              in
              if per_step >= 2. then
                Alcotest.failf
                  "%s: %s allocates %.2f minor words per step (bound 2)" name
                  how per_step)
            [ ("block", false); ("block single-stepped", true) ])
        [ Sched.Round_robin; Sched.Random 7 ])
    [ ("HawkNL/clean", hawknl); ("local spinners", spinners) ]

let suites =
  [
    ( "fast-exec",
      List.map
        (fun ((pname, _) as pol) ->
          Alcotest.test_case
            ("differential: original programs, " ^ pname)
            `Quick (sweep_original pol))
        policies
      @ List.map
          (fun ((pname, _) as pol) ->
            Alcotest.test_case
              ("differential: hardened programs, " ^ pname)
              `Quick (sweep_hardened pol))
          policies
      @ [
          Alcotest.test_case "differential: perturbed + wait-graph" `Quick
            sweep_perturbed;
          Alcotest.test_case "differential: race-detector reports" `Quick
            sweep_detector_reports;
          Alcotest.test_case "differential: recorded schedule logs" `Quick
            sweep_recorded_logs;
          Alcotest.test_case "differential: interleaving signatures" `Quick
            sweep_signatures;
          Alcotest.test_case "choose_idx mirrors choose" `Quick
            choose_idx_agrees;
        ] );
    ( "fast-path",
      [
        Alcotest.test_case "observers keep block unhooked" `Quick
          observers_stay_unhooked;
        Alcotest.test_case "directed replay agrees on every engine" `Quick
          directed_replay_agrees;
        Alcotest.test_case "run-length recording matches the tap oracle"
          `Quick recorder_matches_tap_oracle;
        Alcotest.test_case "witness cycle keys match the detector" `Quick
          witness_keys_match_detector;
        Alcotest.test_case "memos follow program liveness" `Quick
          memos_follow_program_liveness;
        Alcotest.test_case "equal fail-block lists share an image" `Quick
          equal_fail_blocks_share_an_image;
        Alcotest.test_case "one stream, two engines" `Quick
          one_stream_two_engines;
        generated_streams_agree;
        generated_loops_agree;
        Alcotest.test_case "contended phases end at every boundary" `Quick
          contended_boundaries;
        Alcotest.test_case "local runs are register-only" `Quick
          local_runs_are_register_only;
        Alcotest.test_case "fail arms stay uncompiled on a clean run" `Quick
          fail_arms_stay_uncompiled;
        Alcotest.test_case "decisions allocate nothing" `Quick
          decisions_allocate_nothing;
        Alcotest.test_case "single-stepped block equals ref" `Quick
          stepped_catalog;
        generated_stepped;
      ] );
    ( "unboxed-loops",
      [
        Alcotest.test_case "fuel lands in every block" `Quick tier_fuel_sweep;
        Alcotest.test_case "a wake lands in every block" `Quick
          tier_wake_sweep;
        Alcotest.test_case "entries that do not hold their kinds" `Quick
          tier_entry_checks;
        Alcotest.test_case "recovering, contended and checkpointed threads"
          `Quick tier_threads;
        Alcotest.test_case "the tier engages on compute_kernel" `Quick
          tier_engages_on_compute_kernel;
        generated_rloops_agree;
      ] );
    ( "fault-attribution",
      [
        Alcotest.test_case "every faulting op, at every place in a block"
          `Quick
          (fault_table ~fails:(fun _ -> true) faulting_ops);
        Alcotest.test_case "calls: arities, arguments and callees" `Quick
          (fault_table
             ~fails:(fun op -> has_sub op "%u" || has_sub op "@nope")
             call_ops);
        Alcotest.test_case "an arity mismatch escapes after its arguments"
          `Quick arity_mismatch;
      ] );
  ]
