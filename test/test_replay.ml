(* Schedule record-and-replay: a recorded decision stream must replay
   bit-for-bit — same outcome, outputs, step/instruction/rollback counts
   and serialized JSONL telemetry — on both engines, over the whole
   bugbench catalog (both variants), original and hardened, under both
   scheduling policies. Logs are engine-interchangeable: record on any
   engine, replay on any other, zero divergence. Divergence must surface
   as a structured error, and the minimizer must shrink failing
   schedules to strictly fewer preemptions that still reproduce the same
   failure, deterministically. *)

open Conair.Ir
module Machine = Conair.Runtime.Machine
module Ref_machine = Conair.Runtime.Ref_machine
module Engine = Conair.Runtime.Engine
module Event = Conair.Runtime.Event
module Sched = Conair.Runtime.Sched
module Outcome = Conair.Runtime.Outcome
module Json = Conair.Obs.Json
module Jsonl = Conair.Obs.Jsonl
module Registry = Conair_bugbench.Registry
module Spec = Conair_bugbench.Bench_spec
module Replay = Conair.Replay
module Log = Replay.Log
module Recorder = Replay.Recorder
module Feed = Replay.Feed
module Driver = Replay.Driver
module Inspect = Replay.Inspect
module Minimize = Replay.Minimize

let case name f = Alcotest.test_case name `Quick f
let config policy = { Machine.default_config with policy; fuel = 200_000 }

let corpus () =
  List.concat_map
    (fun (s : Spec.t) ->
      let buggy = s.make ~variant:Spec.Buggy ~oracle:true in
      let clean = s.make ~variant:Spec.Clean ~oracle:false in
      [
        (s.info.name ^ "/buggy", buggy.program);
        (s.info.name ^ "/clean", clean.program);
      ])
    (Registry.all @ Registry.extended)

let policies =
  [ ("round-robin", Sched.Round_robin); ("random", Sched.Random 42) ]

(* ------------------------------------------------------------------ *)
(* Recording and replaying with the JSONL encoder attached, so the     *)
(* byte-identity check extends to the serialized telemetry             *)
(* ------------------------------------------------------------------ *)

(* A JSONL encoder writing into a buffer, and the buffer. *)
let jsonl () =
  let b = Buffer.create 4096 in
  (b, Jsonl.observer (Jsonl.buffer_writer b))

let record_traced config ?meta p =
  let trace, jsonl = jsonl () in
  let r = Recorder.create () in
  let m =
    Engine.create ~config ?meta
      ~observer:(Event.combine [ jsonl; Recorder.observer r ])
      Engine.Ref p
  in
  let outcome = Engine.run m in
  let log =
    Driver.log_of_run ~config ?meta ~ident:(Log.ident "test") ~program:p r m
      outcome
  in
  (log, Buffer.contents trace)

let replay_traced engine ?meta p (log : Log.t) =
  let config = log.Log.config in
  let trace, jsonl = jsonl () in
  let m =
    Engine.create ~config ?meta ~observer:jsonl
      ~feed:(Feed.strict_feed (Feed.strict log.Log.decisions))
      engine p
  in
  let outcome = Engine.run m in
  ( {
      Driver.rb_outcome = outcome;
      rb_outputs = Engine.outputs m;
      rb_stats = Engine.stats m;
      rb_steps = Engine.steps m;
    },
    Buffer.contents trace )

(* Record [p] once on the reference, then insist both engines replay it
   byte-for-byte: trailer check plus identical serialized JSONL event
   logs. *)
let check_roundtrip name config ?meta p =
  let log, recorded_jsonl = record_traced config ?meta p in
  List.iter
    (fun engine ->
      let ename = Engine.name engine in
      let bundle, replayed_jsonl = replay_traced engine ?meta p log in
      (match Driver.check log bundle with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s (%s replay): %s" name ename e);
      Alcotest.(check string)
        (name ^ " (" ^ ename ^ " replay): JSONL telemetry")
        recorded_jsonl replayed_jsonl)
    Engine.all

let sweep_original (pname, policy) () =
  List.iter
    (fun (name, p) -> check_roundtrip (name ^ "@" ^ pname) (config policy) p)
    (corpus ())

let sweep_hardened (pname, policy) () =
  List.iter
    (fun (name, p) ->
      match Conair.harden p Conair.Survival with
      | Error _ -> ()
      | Ok h ->
          let meta = Machine.meta_of_harden h.Conair.hardened in
          check_roundtrip
            (name ^ "/hardened@" ^ pname)
            ~meta (config policy) h.Conair.hardened.program)
    (corpus ())

(* Recording on any engine and replaying on any other must agree: the
   log is engine-independent: record on block and replay on ref, and
   the other way round. *)
let cross_engine () =
  let spec = Option.get (Registry.find "HawkNL") in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:true in
  List.iter
    (fun (rec_engine, replay_engine) ->
      let pair =
        Engine.name rec_engine ^ "->" ^ Engine.name replay_engine
      in
      let _, log =
        Conair.run ~engine:rec_engine
          ~config:(config Sched.Round_robin)
          (Conair.record ~ident:(Log.ident "hawknl"))
          (Conair.target inst.program)
      in
      Alcotest.(check string)
        (pair ^ ": log names the recording engine")
        (Engine.name rec_engine)
        log.Log.engine;
      match Driver.replay ~engine:replay_engine ~program:inst.program log with
      | Error e ->
          Alcotest.failf "cross-engine replay (%s): %s" pair
            (Driver.error_to_string e)
      | Ok b -> (
          match Driver.check log b with
          | Ok () -> ()
          | Error e -> Alcotest.failf "cross-engine (%s): %s" pair e))
    (List.concat_map
       (fun r -> List.filter_map
          (fun p -> if p <> r then Some (r, p) else None)
          Engine.all)
       Engine.all)

(* ------------------------------------------------------------------ *)
(* The facade: run_recorded on a hardened program, replay resolving    *)
(* program and recovery metadata from the log alone                    *)
(* ------------------------------------------------------------------ *)

let facade_self_contained () =
  let spec = Option.get (Registry.find "MySQL1") in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:true in
  let h = Conair.harden_exn inst.program Conair.Survival in
  let run, log =
    Conair.run_recorded ~config:(config (Sched.Random 7)) h
  in
  Alcotest.(check string) "mode rides in the ident" "survival"
    log.Log.ident.Log.id_mode;
  Alcotest.(check bool) "recovery fired while recording" true
    (run.Conair.stats.rollbacks > 0);
  (* no program, no meta: both come back out of the log *)
  match Conair.replay log with
  | Error e -> Alcotest.failf "facade replay: %s" (Driver.error_to_string e)
  | Ok b ->
      (match Driver.check log b with
      | Ok () -> ()
      | Error e -> Alcotest.failf "facade replay: %s" e);
      Alcotest.(check int) "rollbacks reproduced"
        run.Conair.stats.rollbacks b.Driver.rb_stats.rollbacks

let save_load_roundtrip () =
  let spec = Option.get (Registry.find "SQLite") in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:true in
  let _, log =
    Conair.record_run
      ~config:(config Sched.Round_robin)
      ~ident:(Log.ident ~oracle:true "sqlite") inst.program
  in
  let path = Filename.temp_file "conair-sched" ".sched.jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Log.save log path;
      match Log.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok log' ->
          Alcotest.(check string) "app" log.Log.ident.Log.id_app
            log'.Log.ident.Log.id_app;
          Alcotest.(check bool) "decisions survive" true
            (log.Log.decisions = log'.Log.decisions);
          Alcotest.(check bool) "preemptions survive" true
            (log.Log.preemptions = log'.Log.preemptions);
          Alcotest.(check bool) "trailer survives" true
            ( log.Log.steps = log'.Log.steps
            && log.Log.instrs = log'.Log.instrs
            && log.Log.outcome = log'.Log.outcome
            && log.Log.outputs = log'.Log.outputs );
          (* a log whose config still carries the retired
             "profile_sites" member loads to the same config *)
          let with_retired_member = function
            | Json.Obj fields ->
                Json.Obj
                  (List.map
                     (function
                       | "config", Json.Obj c ->
                           ( "config",
                             Json.Obj (c @ [ ("profile_sites", Json.Bool false) ])
                           )
                       | f -> f)
                     fields)
            | j -> j
          in
          (match Log.to_lines log with
          | header :: rest -> (
              let header =
                Json.to_string
                  (with_retired_member (Result.get_ok (Json.of_string header)))
              in
              match Log.of_lines (header :: rest) with
              | Ok legacy ->
                  Alcotest.(check bool) "retired config member ignored" true
                    (legacy.Log.config = log.Log.config)
              | Error e -> Alcotest.failf "log with profile_sites: %s" e)
          | [] -> Alcotest.fail "empty log");
          (* a log whose embedded text does not hash to its MD5 does
             not load *)
          (match Log.to_lines log with
          | header :: rest -> (
              let header =
                match Json.of_string header with
                | Ok (Json.Obj fields) ->
                    Json.to_string
                      (Json.Obj
                         (List.map
                            (function
                              | "program", Json.String text ->
                                  ("program", Json.String (text ^ "\n"))
                              | f -> f)
                            fields))
                | _ -> header
              in
              match Log.of_lines (header :: rest) with
              | Ok _ -> Alcotest.fail "log with a tampered program loaded"
              | Error _ -> ())
          | [] -> Alcotest.fail "empty log");
          (* nor does a hardened log whose fail-block table names a
             fail arm twice: the engines would each be free to pick *)
          let _, hlog =
            Conair.run_recorded
              ~config:(config Sched.Round_robin)
              ~ident:(Log.ident ~oracle:true "sqlite")
              (Conair.harden_exn inst.program Conair.Survival)
          in
          let fbs = hlog.Log.fail_blocks in
          Alcotest.(check bool) "hardened log has fail blocks" true (fbs <> []);
          (match
             Log.of_lines
               (Log.to_lines
                  {
                    hlog with
                    Log.fail_blocks =
                      fbs @ List.map (fun (l, _) -> (l, 9999)) fbs;
                  })
           with
          | Ok _ -> Alcotest.fail "log with a repeated fail-block label loaded"
          | Error _ -> ());
          (* a program that fails validation loads, but it does not
             resolve, so the log does not replay *)
          let text =
            Emit.program { inst.program with main = Ident.Fname.v "nosuch" }
          in
          (match
             Log.of_lines
               (Log.to_lines
                  {
                    log with
                    Log.program_text = Some text;
                    program_md5 = Log.digest text;
                  })
           with
          | Error e -> Alcotest.failf "log with @nosuch: %s" e
          | Ok nosuch -> (
              (match Log.program nosuch with
              | Ok _ -> Alcotest.fail "ill-formed embedded program resolved"
              | Error _ -> ());
              match Conair.replay nosuch with
              | Ok _ -> Alcotest.fail "log with an ill-formed program replayed"
              | Error _ -> ()));
          (* and the loaded log is self-contained: replayable as-is *)
          (match Conair.replay log' with
          | Error e ->
              Alcotest.failf "loaded replay: %s" (Driver.error_to_string e)
          | Ok b -> (
              match Driver.check log' b with
              | Ok () -> ()
              | Error e -> Alcotest.failf "loaded replay: %s" e)))

(* ------------------------------------------------------------------ *)
(* Divergence detection                                                *)
(* ------------------------------------------------------------------ *)

(* cwd is test/ under [dune runtest] but the project root under
   [dune exec test/test_main.exe] *)
let tutorial_program () =
  let path =
    if Sys.file_exists "../examples/tutorial.mir" then
      "../examples/tutorial.mir"
    else "examples/tutorial.mir"
  in
  let src = In_channel.with_open_text path In_channel.input_all in
  match Parse.program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "tutorial.mir: %a" Parse.pp_error e

let recorded_tutorial () =
  let p = tutorial_program () in
  let _, log =
    Conair.record_run
      ~config:(config Sched.Round_robin)
      ~ident:(Log.ident "tutorial") p
  in
  (p, log)

(* Replay a log that cannot be followed on every engine: each must
   report the divergence, and all must agree on where — the decision
   ordinal, the machine step, the recorded tid and the eligible set —
   and leave the same step and instruction counts behind. *)
let diverge_everywhere name p (log : Log.t) =
  let divergence engine =
    match Driver.replay ~engine ~program:p log with
    | Ok _ ->
        Alcotest.failf "%s: %s log replayed cleanly" (Engine.name engine) name
    | Error (Driver.Diverged d) -> d
    | Error e ->
        Alcotest.failf "%s: %s: wrong error: %s" (Engine.name engine) name
          (Driver.error_to_string e)
  in
  let counters engine =
    let m =
      Engine.create ~config:log.Log.config
        ~feed:(Feed.strict_feed (Feed.strict log.Log.decisions))
        engine p
    in
    (match Engine.run m with _ -> () | exception Feed.Diverged _ -> ());
    let st = Engine.stats m in
    [ Engine.steps m; st.Conair.Runtime.Stats.steps; st.instrs ]
  in
  let d = divergence Engine.Ref and c = counters Engine.Ref in
  List.iter
    (fun engine ->
      let e = divergence engine in
      let label what =
        Printf.sprintf "%s (%s vs ref): %s" name (Engine.name engine) what
      in
      Alcotest.(check int) (label "decision") d.Driver.dv_decision
        e.Driver.dv_decision;
      Alcotest.(check int) (label "step") d.Driver.dv_step e.Driver.dv_step;
      Alcotest.(check (option int))
        (label "expected") d.Driver.dv_expected e.Driver.dv_expected;
      Alcotest.(check (list int))
        (label "eligible") d.Driver.dv_actual e.Driver.dv_actual;
      Alcotest.(check (list int))
        (label "virtual time, steps and instructions")
        c (counters engine))
    [ Engine.Block ];
  d

(* A one-thread window of the block engine's run of [p]: the ordinal of
   its first decision and its length. Under an observer of decisions
   only, a window reports its decisions as one counted decision and a
   contended or generic step as a count of 1, so the first count of at
   least 3 is a whole window with room inside it. *)
let block_window config p =
  let decides = ref [] in
  let observer =
    Event.observer ~decisions:true (fun _ ev ->
        match ev with
        | Event.Decide { count; _ } -> decides := count :: !decides
        | _ -> ())
  in
  ignore (Engine.run_program ~config ~observer Engine.Block p);
  let rec find ord = function
    | [] -> Alcotest.fail "the block engine ran no window of 3 decisions"
    | count :: _ when count >= 3 -> (ord, count)
    | count :: rest -> find (ord + count) rest
  in
  find 0 (List.rev !decides)

(* The first decision that follows another with several threads
   eligible at both: on the block engine, the second decision of a
   contended phase, whose divergence must count the phase's first step. *)
let contended_decision config p =
  let sizes = ref [] in
  let tap ~chosen:_ ~eligible = sizes := List.length eligible :: !sizes in
  ignore (Engine.run_program ~config ~tap Engine.Ref p);
  let rec find k = function
    | a :: (b :: _ as rest) ->
        if a >= 2 && b >= 2 then k + 1 else find (k + 1) rest
    | _ -> Alcotest.fail "no two consecutive contended decisions"
  in
  find 0 (List.rev !sizes)

let tamper (log : Log.t) k =
  let decisions = Array.copy log.Log.decisions in
  decisions.(k) <- 999 (* never an eligible tid *);
  { log with Log.decisions }

(* A recorded thread that is not eligible, in the middle of the log,
   around one of the block engine's windows — at its first decision,
   inside it, and right after it closes — and inside a contended
   phase. *)
let divergence_tampered () =
  let p, log = recorded_tutorial () in
  let first, len = block_window log.Log.config p in
  Alcotest.(check bool) "the window ends before the log does" true
    (first + len < Array.length log.Log.decisions);
  List.iter
    (fun (where, k) ->
      let d = diverge_everywhere ("tampered " ^ where) p (tamper log k) in
      Alcotest.(check int) (where ^ ": divergence names the decision") k
        d.Driver.dv_decision;
      Alcotest.(check (option int))
        (where ^ ": and the recorded tid") (Some 999) d.Driver.dv_expected;
      Alcotest.(check bool) (where ^ ": and the eligible set") true
        (d.Driver.dv_actual <> []))
    [
      ("mid-log", Array.length log.Log.decisions / 2);
      ("at a window's first decision", first);
      ("inside a window", first + 1);
      ("right after a window", first + len);
      ("inside a contended phase", contended_decision log.Log.config p);
    ]

let divergence_truncated () =
  let p, log = recorded_tutorial () in
  let first, len = block_window log.Log.config p in
  List.iter
    (fun (where, k) ->
      let decisions = Array.sub log.Log.decisions 0 k in
      let d =
        diverge_everywhere ("truncated " ^ where) p { log with Log.decisions }
      in
      Alcotest.(check int) (where ^ ": exhausted exactly at the cut") k
        d.Driver.dv_decision;
      Alcotest.(check (option int))
        (where ^ ": log-exhausted is expected=None") None d.Driver.dv_expected)
    [
      ("mid-log", Array.length log.Log.decisions / 2);
      ("inside a window", first + (len / 2));
    ]

let divergence_leftover () =
  let p, log = recorded_tutorial () in
  let decisions = Array.append log.Log.decisions [| 0; 0; 0 |] in
  let d = diverge_everywhere "padded" p { log with Log.decisions } in
  Alcotest.(check int) "leftover decisions detected"
    (Array.length log.Log.decisions)
    d.Driver.dv_decision

let wrong_program () =
  let _, log = recorded_tutorial () in
  let spec = Option.get (Registry.find "FFT") in
  let other = (spec.make ~variant:Spec.Clean ~oracle:false).program in
  match Conair.replay ~program:other log with
  | Error (Driver.Program_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Driver.error_to_string e)
  | Ok _ -> Alcotest.fail "mismatched program replayed"

(* A log recorded in this process replays on the program it recorded,
   and logs of one text share one program, so each is linked and
   compiled once. A tampered text is still checked first (see
   [save_load_roundtrip]). *)
let log_program_shared () =
  let p, log = recorded_tutorial () in
  let program what l =
    match Log.program l with
    | Ok q -> q
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  Alcotest.(check bool) "the recorded log returns its program" true
    (program "recorded" log == p);
  (match Log.of_lines (Log.to_lines log) with
  | Ok loaded ->
      Alcotest.(check bool) "so does its reloaded copy" true
        (program "reloaded" loaded == p)
  | Error e -> Alcotest.failf "reload: %s" e);
  (* a text no run of this process recorded, in two logs with MD5
     strings of their own *)
  let text =
    Emit.program
      { p with globals = ("shared_program_test", Value.Int 1) :: p.globals }
  in
  let log_of_text () =
    { log with Log.program_text = Some text; program_md5 = Log.digest text }
  in
  let a = log_of_text () and b = log_of_text () in
  let pa = program "first parse" a in
  Alcotest.(check bool) "a parse is a fresh program" false (pa == p);
  Alcotest.(check bool) "two logs of one text share one program" true
    (program "second log" b == pa);
  ignore (Sys.opaque_identity (log, a))

(* ------------------------------------------------------------------ *)
(* Time-travel inspection                                              *)
(* ------------------------------------------------------------------ *)

let inspector_states () =
  let _, log = recorded_tutorial () in
  let make stride =
    match Inspect.create ~stride log with
    | Ok t -> t
    | Error e -> Alcotest.failf "inspect: %s" e
  in
  let coarse = make Inspect.default_stride and fine = make 16 in
  let final = Inspect.final_step coarse in
  Alcotest.(check int) "final step matches the trailer" log.Log.steps final;
  let state t target =
    match Inspect.state_at t target with
    | Ok j -> Json.to_string j
    | Error e -> Alcotest.failf "state at %d: %s" target e
  in
  (* waypoint-restored reconstruction must be independent of the
     waypoint stride: every step's state is a pure function of the log *)
  List.iter
    (fun target ->
      Alcotest.(check string)
        (Printf.sprintf "state at step %d" target)
        (state coarse target) (state fine target))
    [ 0; 1; final / 3; final / 2; final - 1; final ];
  (* seeking backwards after seeking forwards lands on the same bytes *)
  let late = state coarse final in
  let early = state coarse 1 in
  Alcotest.(check string) "re-seek forward" late (state coarse final);
  Alcotest.(check string) "re-seek backward" early (state coarse 1)

(* The inspector's states around its first waypoint (stride 512) and
   at the end of seed-7 recordings of three buggy apps — a deadlock
   after 64 steps, a wrong output after 17527 and a 56017-step run —
   pinned as MD5s of their JSON. The forward pass and every seek
   single-step the block engine. *)
let inspector_pinned () =
  let pinned =
    [
      ( "HawkNL",
        [
          (0, "357d5161376ddd2ced98017663808a01");
          (1, "cb9414946d1067c41c03c92898763b62");
          (64, "3a930049955d55da1627bdcd6a0fce07");
        ] );
      ( "MySQL1",
        [
          (0, "e24a0e9221521602f47b04a217addd6e");
          (1, "456903160fe15bb2ab18204f02b15aa1");
          (511, "0b69f828cd6c2ef778751c1dbf58d693");
          (512, "e66eaa0507077fd728f0d4b408834c83");
          (513, "ad4aa23a0cd851da162c03d3b283ffc7");
          (17527, "90d1e2abdb6209341b4d3c0c2c4aa9c2");
        ] );
      ( "FFT",
        [
          (0, "54d4fe9e560f54d49f552fe07f59d3d7");
          (1, "f1d18a169292fb45873ff908b3819cd0");
          (511, "ca429f5e1dce770d9e95a2a92e13c8ef");
          (512, "f1d54091417ba1a2494d654d2412196f");
          (513, "2e8f69b2c22f180d3a235e398f216220");
          (56017, "1615a04d1a10b9b98a2bb3d543488642");
        ] );
    ]
  in
  List.iter
    (fun (name, states) ->
      let s = Option.get (Registry.find name) in
      let inst = s.make ~variant:Spec.Buggy ~oracle:s.info.needs_oracle in
      let config = { Machine.default_config with policy = Sched.Random 7 } in
      let _, log =
        Conair.record_run ~config ~ident:(Log.ident name) inst.program
      in
      let t =
        match Inspect.create log with
        | Ok t -> t
        | Error e -> Alcotest.failf "%s: inspect: %s" name e
      in
      Alcotest.(check int) (name ^ ": final step")
        (fst (List.nth states (List.length states - 1)))
        (Inspect.final_step t);
      (* the forward pass saw every decision, one at a time *)
      let n = Array.length log.Log.decisions in
      Alcotest.(check (list int))
        (name ^ ": a waypoint every 512 decisions")
        (List.init ((n + 511) / 512) (fun i -> i * 512))
        (Inspect.waypoints t);
      List.iter
        (fun (step, md5) ->
          match Inspect.state_at t step with
          | Ok j ->
              Alcotest.(check string)
                (Printf.sprintf "%s: state at step %d" name step)
                md5
                (Digest.to_hex (Digest.string (Json.to_string j)))
          | Error e -> Alcotest.failf "%s: state at %d: %s" name step e)
        states)
    pinned

(* ------------------------------------------------------------------ *)
(* Minimization                                                        *)
(* ------------------------------------------------------------------ *)

let minimize_ok log =
  match Conair.minimize log with
  | Ok m -> m
  | Error e -> Alcotest.failf "minimize: %s" e

(* The failing schedule must shrink to strictly fewer preemptions (the
   round-robin recording switches on every decision, almost all of them
   irrelevant), still fail the same way, replay strictly, and be
   deterministic: two minimizations of the same log, same bytes. *)
let check_minimized name (log : Log.t) =
  let m = minimize_ok log in
  Alcotest.(check bool)
    (name ^ ": strictly fewer preemptions "
    ^ Printf.sprintf "(%d -> %d)" m.Minimize.mn_original
        m.Minimize.mn_minimized)
    true
    (m.Minimize.mn_minimized < m.Minimize.mn_original
    || m.Minimize.mn_original = 0);
  Alcotest.(check bool)
    (name ^ ": minimized run still fails the same way")
    true
    (Minimize.same_failure log.Log.outcome m.Minimize.mn_log.Log.outcome);
  (match Conair.replay m.Minimize.mn_log with
  | Error e ->
      Alcotest.failf "%s: minimized log replay: %s" name
        (Driver.error_to_string e)
  | Ok b -> (
      match Driver.check m.Minimize.mn_log b with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: minimized log replay: %s" name e));
  let m' = minimize_ok log in
  Alcotest.(check string)
    (name ^ ": minimization is deterministic")
    (Json.to_string (Minimize.to_json m))
    (Json.to_string (Minimize.to_json m'));
  m

let minimize_tutorial () =
  let _, log = recorded_tutorial () in
  Alcotest.(check bool) "tutorial fails unhardened" false
    (Outcome.is_success log.Log.outcome);
  let m = check_minimized "tutorial" log in
  (* golden: the tutorial bug needs NO preemption at all — the buggy
     variant's injected sleep already forces the audit thread to read
     between the two halves of the unprotected update, so every one of
     the recording's preemptive switches is scheduling noise *)
  Alcotest.(check int) "recorded preemptions" 4 m.Minimize.mn_original;
  Alcotest.(check int) "tutorial minimal schedule" 0 m.Minimize.mn_minimized;
  (* the explanation still walks the (forced) context switches *)
  Alcotest.(check int) "switches rendered" 3
    (List.length m.Minimize.mn_switches);
  Alcotest.(check bool) "all of them forced" true
    (List.for_all
       (fun s -> not s.Minimize.sw_preemptive)
       m.Minimize.mn_switches);
  (* and the detector, replaying the minimized schedule, names the race *)
  match m.Minimize.mn_races with
  | None -> Alcotest.fail "no detector report on the minimized schedule"
  | Some r ->
      Alcotest.(check int) "detector fires on the minimized schedule" 1
        (List.length r.Conair.Race.Report.races)

(* HawkNL's deadlock hang: the lock-order inversion is likewise forced
   by the injected sleeps, so the minimal preemption set is empty — and
   the minimized schedule still ends blocked. *)
let minimize_hawknl () =
  let spec = Option.get (Registry.find "HawkNL") in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:true in
  let _, log =
    Conair.record_run
      ~config:(config Sched.Round_robin)
      ~ident:(Log.ident "hawknl") inst.program
  in
  (match log.Log.outcome with
  | Outcome.Hang _ -> ()
  | o -> Alcotest.failf "expected a hang, got %s" (Outcome.to_string o));
  let m = check_minimized "hawknl" log in
  Alcotest.(check int) "recorded preemptions" 4 m.Minimize.mn_original;
  Alcotest.(check int) "hawknl minimal schedule" 0 m.Minimize.mn_minimized;
  match m.Minimize.mn_log.Log.outcome with
  | Outcome.Hang _ -> ()
  | o -> Alcotest.failf "minimized outcome: %s" (Outcome.to_string o)

let switch_line (s : Minimize.switch) =
  Printf.sprintf "#%d @%d t%d->t%d%s | %s | %s" s.Minimize.sw_index
    s.Minimize.sw_step s.Minimize.sw_from s.Minimize.sw_to
    (if s.Minimize.sw_preemptive then " preemptive" else "")
    s.Minimize.sw_from_at s.Minimize.sw_to_at

(* MySQL1 is the counterpoint: its wrong-output bug genuinely needs two
   preemptions beyond the forced switches — ddmin keeps exactly those. *)
let minimize_mysql1 () =
  let spec = Option.get (Registry.find "MySQL1") in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:true in
  let _, log =
    Conair.record_run
      ~config:(config Sched.Round_robin)
      ~ident:(Log.ident "mysql1") inst.program
  in
  let m = check_minimized "mysql1" log in
  Alcotest.(check int) "recorded preemptions" 6 m.Minimize.mn_original;
  Alcotest.(check int) "mysql1 minimal schedule" 2 m.Minimize.mn_minimized;
  Alcotest.(check (list string))
    "where the switches land"
    [
      "#1 @1 t0->t1 preemptive | main:entry[1] [728] %t1 = spawn @query_thread() | rotate_log:entry[0] [714] sleep 17000";
      "#2 @2 t1->t0 | rotate_log:entry[1] [715] store $log_state, 0 | main:entry[1] [728] %t1 = spawn @query_thread()";
      "#4 @4 t0->t2 | main:entry[2] [729] join %t0 | query_thread:entry[0] [718] %w = call @compute_kernel(2500)";
      "#17001 @17001 t2->t1 preemptive | compute_kernel:body[2] [5] %acc = add %acc, %sq | rotate_log:entry[1] [715] store $log_state, 0";
      "#17003 @17003 t1->t2 | rotate_log:entry[3] [717] store $log_state, 1 | compute_kernel:body[2] [5] %acc = add %acc, %sq";
    ]
    (List.map switch_line m.Minimize.mn_switches)

(* Where each switch of a minimized run lands. The re-recording reads
   every thread's program point at each decision, so no thread may stand
   ahead of the clock there: the switch points are pinned, on MySQL1
   (under round-robin in its golden test above, here under a random
   schedule) and on two workers that lose an update around a
   register-only loop, where a thread run ahead would show a later point
   inside the loop. *)
let lost_update () =
  Builder.build ~main:"main" @@ fun b ->
  Builder.global b "x" (Value.Int 0);
  Builder.func b "worker" ~params:[] (fun f ->
      Builder.label f "entry";
      Builder.load f "v" (Instr.Global "x");
      Builder.move f "acc" (Builder.int 0);
      Builder.move f "i" (Builder.int 0);
      Builder.jump f "loop";
      Builder.label f "loop";
      Builder.lt f "c" (Builder.reg "i") (Builder.int 200);
      Builder.branch f (Builder.reg "c") "body" "done";
      Builder.label f "body";
      Builder.mul f "sq" (Builder.reg "i") (Builder.reg "i");
      Builder.binop f "sq" Instr.Mod (Builder.reg "sq") (Builder.int 97);
      Builder.add f "acc" (Builder.reg "acc") (Builder.reg "sq");
      Builder.add f "i" (Builder.reg "i") (Builder.int 1);
      Builder.jump f "loop";
      Builder.label f "done";
      Builder.add f "v" (Builder.reg "v") (Builder.int 1);
      Builder.store f (Instr.Global "x") (Builder.reg "v");
      Builder.ret f None);
  Builder.func b "main" ~params:[] (fun f ->
      Builder.label f "entry";
      Builder.spawn f "t1" "worker" [];
      Builder.spawn f "t2" "worker" [];
      Builder.join f (Builder.reg "t1");
      Builder.join f (Builder.reg "t2");
      Builder.load f "x" (Instr.Global "x");
      Builder.eq f "ok" (Builder.reg "x") (Builder.int 2);
      Builder.assert_ f (Builder.reg "ok") ~msg:"lost update";
      Builder.exit_ f)

let minimize_switches_pinned () =
  let mysql1 =
    (Option.get (Registry.find "MySQL1")).make ~variant:Spec.Buggy
      ~oracle:true
  in
  List.iter
    (fun (name, p, policy, expected) ->
      let _, log =
        Conair.record_run ~config:(config policy) ~ident:(Log.ident name) p
      in
      Alcotest.(check (list string))
        (name ^ ": switch points")
        expected
        (List.map switch_line (minimize_ok log).Minimize.mn_switches))
    [
      ( "MySQL1, random 7",
        mysql1.program,
        Sched.Random 7,
        [
          "#1 @1 t0->t1 preemptive | main:entry[1] [728] %t1 = spawn @query_thread() | rotate_log:entry[0] [714] sleep 17000";
          "#2 @2 t1->t0 | rotate_log:entry[1] [715] store $log_state, 0 | main:entry[1] [728] %t1 = spawn @query_thread()";
          "#4 @4 t0->t2 | main:entry[2] [729] join %t0 | query_thread:entry[0] [718] %w = call @compute_kernel(2500)";
          "#17003 @17003 t2->t1 preemptive | compute_kernel:body[4] <terminator> | rotate_log:entry[1] [715] store $log_state, 0";
          "#17005 @17005 t1->t2 | rotate_log:entry[3] [717] store $log_state, 1 | compute_kernel:body[4] <terminator>";
        ] );
      ( "lost update, random 3",
        lost_update (),
        Sched.Random 3,
        [
          "#1 @1 t0->t1 preemptive | main:entry[1] [11] %t2 = spawn @worker() | worker:entry[0] [0] %v = load $x";
          "#4 @4 t1->t0 preemptive | worker:entry[3] <terminator> | main:entry[1] [11] %t2 = spawn @worker()";
          "#6 @6 t0->t2 | main:entry[2] [12] join %t1 | worker:entry[0] [0] %v = load $x";
          "#1415 @1415 t2->t1 | <no frame> | worker:entry[3] <terminator>";
          "#2821 @2821 t1->t0 | <no frame> | main:entry[2] [12] join %t1";
        ] );
    ]

let minimize_failing_catalog () =
  List.iter
    (fun (s : Spec.t) ->
      let inst = s.make ~variant:Spec.Buggy ~oracle:true in
      let _, log =
        Conair.record_run
          ~config:(config Sched.Round_robin)
          ~ident:(Log.ident s.info.name) inst.program
      in
      if not (Outcome.is_success log.Log.outcome) then
        ignore (check_minimized s.info.name log))
    (Registry.all @ Registry.extended)

let minimize_rejects_success () =
  let spec = Option.get (Registry.find "FFT") in
  let inst = spec.make ~variant:Spec.Clean ~oracle:false in
  let _, log =
    Conair.record_run ~config:(config Sched.Round_robin)
      ~ident:(Log.ident "fft") inst.program
  in
  match Conair.minimize log with
  | Ok _ -> Alcotest.fail "minimized a successful run"
  | Error _ -> ()

let suites =
  [
    ( "replay.identity",
      List.map
        (fun ((pname, _) as pol) ->
          case ("record/replay: original programs, " ^ pname)
            (sweep_original pol))
        policies
      @ List.map
          (fun ((pname, _) as pol) ->
            case ("record/replay: hardened programs, " ^ pname)
              (sweep_hardened pol))
          policies
      @ [
          case "cross-engine logs" cross_engine;
          case "facade: hardened record, self-contained replay"
            facade_self_contained;
          case "save/load round trip" save_load_roundtrip;
          case "logs share their program" log_program_shared;
        ] );
    ( "replay.divergence",
      [
        case "tampered decision" divergence_tampered;
        case "truncated log" divergence_truncated;
        case "leftover decisions" divergence_leftover;
        case "wrong program" wrong_program;
      ] );
    ( "replay.inspect",
      [
        case "stride-independent states" inspector_states;
        case "states pinned" inspector_pinned;
      ] );
    ( "replay.minimize",
      [
        case "tutorial golden" minimize_tutorial;
        case "hawknl golden" minimize_hawknl;
        case "mysql1 golden" minimize_mysql1;
        case "switch points pinned" minimize_switches_pinned;
        case "every failing catalog app shrinks" minimize_failing_catalog;
        case "successful runs are rejected" minimize_rejects_success;
      ] );
  ]
