(* Flight recorder and post-mortem diagnostic bundles (lib/runtime
   Flight_ring, lib/replay Bundle and its flight lens, facade
   run_flight).

   Four layers: ring wraparound exactness against the full recorder
   (the retained tail must be the exact suffix of the recorded decision
   stream — on both engines, the tap single-stepping the block engine,
   and holding the block engine's bulk window accounting to the
   reference's stream); cross-engine
   byte-identity of dumped bundles over the bugbench catalog; the
   bundle -> regenerate -> replay -> minimize round trip, including a
   wrapped ring and tamper rejection; and the zero-cost-when-off
   differential (attaching the recorder never changes a run). The
   flight.docs suite pins the post-mortem walkthrough of
   docs/TUTORIAL.md. *)

open Test_util
module Machine = Conair.Runtime.Machine
module Engine = Conair.Runtime.Engine
module Event = Conair.Runtime.Event
module Outcome = Conair.Runtime.Outcome
module Flight_ring = Conair.Runtime.Flight_ring
module Sched = Conair.Runtime.Sched
module Json = Conair.Obs.Json
module Replay = Conair.Replay
module Log = Replay.Log
module Recorder = Test_util.Tap_recorder
module Bundle = Replay.Bundle
module Spec = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry

(* --- helpers ------------------------------------------------------- *)

(* the fuel the CLI's @flight gate uses for the failing unhardened runs *)
let config = { Machine.default_config with fuel = 200_000 }

let spec name =
  match Registry.find name with
  | None -> Alcotest.failf "no bugbench app named %s" name
  | Some s -> s

let instance name variant =
  let s = spec name in
  s.Spec.make ~variant ~oracle:s.Spec.info.needs_oracle

let ident name =
  let s = spec name in
  Log.ident ~oracle:s.Spec.info.needs_oracle name

let ints = Alcotest.(array int)

(* Run [p] once on [engine] with a flight ring of [cap] decisions and an
   independent tap recorder on the same scheduler, so the ring's retained
   tail can be checked against ground truth. *)
let ring_vs_recorder ?cap engine p =
  let ring = Flight_ring.create ?cap () in
  let r = Recorder.create () in
  let _m, _out =
    Engine.run_program ~config
      ~observer:(Flight_ring.observer ring) ~tap:(Recorder.tap r) engine p
  in
  (ring, r)

let check_exact_suffix ring r =
  let decisions = Recorder.decisions r in
  let total = Flight_ring.total ring in
  Alcotest.(check int) "ring total = recorder count" (Recorder.count r) total;
  let first = Flight_ring.tail_first ring in
  Alcotest.(check int) "tail_first"
    (max 0 (total - Flight_ring.capacity ring))
    first;
  Alcotest.check ints "tail is the exact decision suffix"
    (Array.sub decisions first (total - first))
    (Flight_ring.tail ring);
  let expected_preemptions =
    Array.of_list
      (List.filter (fun o -> o >= first)
         (Array.to_list (Recorder.preemptions r)))
  in
  Alcotest.check ints "tail preemptions are the recorder's, filtered"
    expected_preemptions
    (Flight_ring.tail_preemptions ring)

(* --- ring wraparound exactness ------------------------------------- *)

(* The ring against the tap on each engine; the tap single-steps the
   block engine ([Block_machine.step]). *)

(* HawkNL's deadlock takes 12 decisions: everything is retained and the
   tail must equal the whole recorded stream. *)
let ring_full_retention () =
  let inst = instance "HawkNL" Spec.Buggy in
  List.iter
    (fun engine ->
      let ring, r = ring_vs_recorder engine inst.Spec.program in
      Alcotest.(check int) "nothing evicted" 0 (Flight_ring.tail_first ring);
      check_exact_suffix ring r)
    Engine.all

(* MySQL1's wrong-output needs 17527 decisions; with a 512-entry ring
   the tail wraps ~34 times and must still be the exact suffix. *)
let ring_wraparound () =
  let inst = instance "MySQL1" Spec.Buggy in
  List.iter
    (fun engine ->
      let ring, r = ring_vs_recorder ~cap:512 engine inst.Spec.program in
      Alcotest.(check bool) "ring actually wrapped" true
        (Flight_ring.tail_first ring > 0);
      check_exact_suffix ring r)
    Engine.all

(* A pathologically small ring still retains an exact (tiny) suffix. *)
let ring_tiny () =
  let inst = instance "HawkNL" Spec.Buggy in
  List.iter
    (fun engine ->
      let ring, r = ring_vs_recorder ~cap:5 engine inst.Spec.program in
      Alcotest.(check int) "five retained" 5
        (Array.length (Flight_ring.tail ring));
      check_exact_suffix ring r)
    Engine.all

(* The block engine reports a compiled window as one counted decision; its
   ring must agree entry-for-entry with the reference's, which pushes
   one decision at a time. No recorder tap here — the tap would
   single-step the block engine, hiding the bulk path this test exists
   to check. *)
let ring_block_bulk_accounting () =
  let inst = instance "MySQL1" Spec.Buggy in
  let run engine =
    let ring = Flight_ring.create ~cap:512 () in
    let _m, _out =
      Engine.run_program ~config
        ~observer:(Flight_ring.observer ring) engine inst.Spec.program
    in
    ring
  in
  let ref_ = run Engine.Ref and block = run Engine.Block in
  Alcotest.(check int) "same total" (Flight_ring.total ref_)
    (Flight_ring.total block);
  Alcotest.(check int) "same tail_first" (Flight_ring.tail_first ref_)
    (Flight_ring.tail_first block);
  Alcotest.check ints "same tail" (Flight_ring.tail ref_)
    (Flight_ring.tail block);
  Alcotest.check ints "same preemptions" (Flight_ring.tail_preemptions ref_)
    (Flight_ring.tail_preemptions block);
  (* the rings keep the engines' own [Event.t] values *)
  Alcotest.(check bool) "events retained" true (Flight_ring.events ref_ <> []);
  Alcotest.(check bool) "same events" true
    (Flight_ring.events ref_ = Flight_ring.events block)

(* --- cross-engine byte-identity over the catalog ------------------- *)

(* Every buggy catalog app must dump byte-identical bundles on both
   engines, modulo the "engine" field itself. *)
let bundles_cross_engine () =
  List.iter
    (fun (s : Spec.t) ->
      let name = s.Spec.info.name in
      let inst = s.Spec.make ~variant:Spec.Buggy ~oracle:s.Spec.info.needs_oracle in
      let dump engine =
        snd
          (Conair.run ~engine ~config
             (Bundle.flight ~ident:(ident name) ())
             (Conair.target inst.Spec.program))
      in
      let normalized (b : Bundle.t) =
        Bundle.to_string { b with window = { b.window with Log.engine = "-" } }
      in
      let bundles = List.map dump Engine.all in
      (match bundles with
      | [ r; k ] ->
          Alcotest.(check string) (name ^ ": engine fields") "ref block"
            (String.concat " " [ r.window.engine; k.window.engine ])
      | _ -> Alcotest.fail "two engines expected");
      match List.map normalized bundles with
      | first :: rest ->
          List.iteri
            (fun i other ->
              Alcotest.(check string)
                (Printf.sprintf "%s: bundle identical on engine %d" name (i + 1))
                first other)
            rest
      | [] -> Alcotest.fail "no bundles")
    Registry.all

(* Bundles survive the JSON codec byte-for-byte, for a fully retained, a
   wrapped and a seeded-policy ring; tampered documents do not decode. *)
let bundle_json_roundtrip () =
  List.iter
    (fun (name, config) ->
      let inst = instance name Spec.Buggy in
      let _, b =
        Conair.run ~config
          (Bundle.flight ~cap:512 ~ident:(ident name) ())
          (Conair.target inst.Spec.program)
      in
      match Bundle.of_string (Bundle.to_string b) with
      | Error e -> Alcotest.failf "%s: decode failed: %s" name e
      | Ok b' ->
          Alcotest.(check string) (name ^ ": codec round trip")
            (Bundle.to_string b) (Bundle.to_string b');
          Alcotest.(check string) (name ^ ": md5 of embedded text")
            b.window.program_md5
            (match b'.window.program_text with
            | Some src -> Digest.to_hex (Digest.string src)
            | None -> "no embedded program"))
    [
      ("HawkNL", config);
      ("MySQL1", config);
      ("FFT", { config with policy = Sched.Random 7 });
    ];
  let inst = instance "HawkNL" Spec.Buggy in
  let _, b =
    Conair.run ~config
      (Bundle.flight ~ident:(ident "HawkNL") ())
      (Conair.target inst.Spec.program)
  in
  (* [doc] with the member at [path] rewritten by [f] *)
  let rec update path f (j : Json.t) =
    match (path, j) with
    | [], _ -> f j
    | k :: rest, Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k', v) -> if k' = k then (k', update rest f v) else (k', v))
             fields)
    | _ -> j
  in
  let int n (_ : Json.t) = Json.Int n in
  let append x = function Json.List l -> Json.List (l @ [ x ]) | j -> j in
  let doc = Bundle.to_json b in
  let h = Conair.harden_exn inst.Spec.program Conair.Survival in
  let _, hb =
    Conair.run ~config
      (Bundle.flight ~ident:(ident "HawkNL") ())
      (Conair.hardened_target h)
  in
  let fbs = hb.window.fail_blocks in
  Alcotest.(check bool) "hardened bundle has fail blocks" true (fbs <> []);
  List.iter
    (fun (what, tampered) ->
      match Bundle.of_json tampered with
      | Ok _ -> Alcotest.failf "%s: tampered bundle decoded" what
      | Error _ -> ())
    [
      ( "negative first",
        update [ "tail"; "first" ] (int (-3))
          (update [ "tail"; "total" ] (int 9) doc) );
      ( "extra tail decision",
        update [ "tail"; "chunks" ]
          (function
            | Json.List [ chunk ] ->
                Json.List [ update [ "d" ] (append (Json.Int 0)) chunk ]
            | j -> j)
          doc );
      ( "total is not first + retained",
        update [ "tail"; "total" ] (int 13) doc );
      ( "preemption ordinal outside the window",
        update [ "tail"; "preemptions" ] (append (Json.Int 12)) doc );
      ( "embedded text does not hash to program_md5",
        update [ "program" ]
          (function Json.String t -> Json.String (t ^ "\n") | j -> j)
          doc );
      ( "fail_blocks repeats a label",
        Bundle.to_json
          {
            hb with
            window =
              {
                hb.window with
                fail_blocks = fbs @ List.map (fun (l, _) -> (l, 9999)) fbs;
              };
          } );
    ]

(* --- bundle -> regenerate -> replay -> minimize round trip --------- *)

(* The tail is a regeneration recipe: recover a full schedule log from
   the bundle, strict-replay it, and minimize — reaching the same
   preemption count as the full-recording path on the same run. *)
let roundtrip name expect_minimized =
  let inst = instance name Spec.Buggy in
  (* post-mortem path: flight bundle with a wrapped-or-not 512 ring *)
  let _, b =
    Conair.run ~config
      (Bundle.flight ~cap:512 ~ident:(ident name) ())
      (Conair.target inst.Spec.program)
  in
  let log =
    match Bundle.recover_log b with
    | Ok log -> log
    | Error e -> Alcotest.failf "recover_log: %s" e
  in
  (match Conair.replay log with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "regenerated log diverged: %s" (Replay.Driver.error_to_string e));
  let m =
    match Conair.minimize log with
    | Ok m -> m
    | Error e -> Alcotest.failf "minimize: %s" e
  in
  (* full-recording path on the identical deterministic run *)
  let _run, full_log = Conair.record_run ~config ~ident:(ident name) inst.Spec.program in
  let m_full =
    match Conair.minimize full_log with
    | Ok m -> m
    | Error e -> Alcotest.failf "minimize (full path): %s" e
  in
  Alcotest.(check int) "same preemption count as the full-recording path"
    m_full.Replay.Minimize.mn_minimized m.Replay.Minimize.mn_minimized;
  Alcotest.(check int) "expected minimized preemptions" expect_minimized
    m.Replay.Minimize.mn_minimized;
  match Conair.replay m.Replay.Minimize.mn_log with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "minimized log diverged: %s" (Replay.Driver.error_to_string e)

let roundtrip_full_retention () = roundtrip "HawkNL" 0
let roundtrip_wrapped () = roundtrip "MySQL1" 2

(* Tampering with the recipe must be rejected, not silently replayed. *)
let regeneration_rejects_tampering () =
  let inst = instance "HawkNL" Spec.Buggy in
  let _, b =
    Conair.run ~config
      (Bundle.flight ~ident:(ident "HawkNL") ())
      (Conair.target inst.Spec.program)
  in
  let expect_error what b =
    match Bundle.recover_log b with
    | Ok _ -> Alcotest.failf "%s: tampered bundle accepted" what
    | Error _ -> ()
  in
  let with_window w = { b with Bundle.window = w } in
  let tail = Array.copy b.window.decisions in
  tail.(Array.length tail - 1) <- tail.(Array.length tail - 1) + 1;
  expect_error "flipped tail decision"
    (with_window { b.window with decisions = tail });
  expect_error "md5 mismatch"
    (with_window { b.window with program_md5 = String.make 32 '0' });
  expect_error "no embedded program"
    (with_window { b.window with program_text = None });
  expect_error "negative first" { b with first = -3 };
  expect_error "negative first, total kept"
    {
      (with_window
         {
           b.window with
           decisions = Array.append [| 0; 0; 0 |] b.window.decisions;
         })
      with
      first = -3;
    };
  expect_error "extra tail decision"
    (with_window
       { b.window with decisions = Array.append b.window.decisions [| 0 |] });
  let text =
    Conair.Ir.Emit.program
      { inst.Spec.program with main = Conair.Ir.Ident.Fname.v "nosuch" }
  in
  expect_error "main function missing"
    (with_window
       { b.window with program_text = Some text; program_md5 = Log.digest text })

(* --- zero cost when off -------------------------------------------- *)

(* Attaching the recorder never changes a run: outcome, outputs and
   stats are identical with no observer, with an empty one, and with a
   flight ring attached — on both engines. *)
let recorder_never_changes_a_run () =
  List.iter
    (fun (name, variant) ->
      let inst = instance name variant in
      List.iter
        (fun engine ->
          let bare = Engine.run_program ~config engine inst.Spec.program in
          let empty =
            Engine.run_program ~config ~observer:(Event.combine []) engine
              inst.Spec.program
          in
          let flight =
            Engine.run_program ~config
              ~observer:(Flight_ring.observer (Flight_ring.create ()))
              engine inst.Spec.program
          in
          let obs (m, out) =
            (out, Engine.outputs m, Engine.steps m, Engine.stats m)
          in
          let label s =
            Printf.sprintf "%s/%s on %s: %s" name
              (match variant with Spec.Buggy -> "buggy" | Spec.Clean -> "clean")
              (Engine.name engine) s
          in
          Alcotest.(check bool) (label "empty observer is a no-op") true
            (obs bare = obs empty);
          Alcotest.(check bool) (label "flight ring is invisible") true
            (obs bare = obs flight))
        Engine.all)
    [ ("HawkNL", Spec.Buggy); ("MySQL1", Spec.Buggy); ("MySQL1", Spec.Clean) ]

(* --- docs/TUTORIAL.md ----------------------------------------------- *)

let tutorial_doc_path () =
  if Sys.file_exists "../docs/TUTORIAL.md" then "../docs/TUTORIAL.md"
  else "docs/TUTORIAL.md"

(* The post-mortem stage of docs/TUTORIAL.md, performed in-process: same
   app, same numbers as the transcript the doc shows. *)
let tutorial_post_mortem_walkthrough () =
  let doc =
    In_channel.with_open_text (tutorial_doc_path ()) In_channel.input_all
  in
  let contains pinned =
    Alcotest.(check bool)
      (Printf.sprintf "the doc shows %S" pinned)
      true
      (let rec scan i =
         i + String.length pinned <= String.length doc
         && (String.sub doc i (String.length pinned) = pinned || scan (i + 1))
       in
       scan 0)
  in
  contains "run HawkNL --no-harden --flight --bundle-out .";
  contains "bundle replay flight_hawknl.bundle.json";
  contains "bundle minimize flight_hawknl.bundle.json";
  contains "12 of 12 decisions retained";
  let inst = instance "HawkNL" Spec.Buggy in
  let run, b =
    Conair.run_flight ~config ~reason:"failure" ~ident:(ident "HawkNL")
      inst.Spec.program
  in
  (* the numbers the doc's transcript shows *)
  Alcotest.(check bool) "the run failed" false
    (Outcome.is_success run.Conair.outcome);
  Alcotest.(check int) "12 decisions, all retained" 12 (Bundle.total b);
  Alcotest.(check int) "nothing evicted" 0 b.first;
  Alcotest.(check int) "4 preemptions in the tail" 4
    (Array.length b.window.preemptions);
  Alcotest.(check int) "6 events retained" 6 (List.length b.events);
  let log =
    match Bundle.recover_log b with
    | Ok log -> log
    | Error e -> Alcotest.failf "recover_log: %s" e
  in
  let m =
    match Conair.minimize log with
    | Ok m -> m
    | Error e -> Alcotest.failf "minimize: %s" e
  in
  Alcotest.(check (pair int int)) "minimized 4 -> 0 preemptions" (4, 0)
    (m.Replay.Minimize.mn_original, m.Replay.Minimize.mn_minimized);
  Alcotest.(check int) "2 candidate executions" 2 m.Replay.Minimize.mn_tests;
  match m.Replay.Minimize.mn_races with
  | Some r ->
      Alcotest.(check int) "the detector names one lock cycle" 1
        (List.length r.Conair.Race.Report.cycles)
  | None -> Alcotest.fail "no detector report on the minimized schedule"

(* ------------------------------------------------------------------- *)

let suites =
  [
    ( "flight.ring",
      [
        case "full retention matches the recorder" ring_full_retention;
        case "wraparound retains the exact suffix" ring_wraparound;
        case "tiny ring retains the exact suffix" ring_tiny;
        case "block bulk accounting matches ref" ring_block_bulk_accounting;
      ] );
    ( "flight.bundle",
      [
        slow_case "byte-identical across engines (catalog)"
          bundles_cross_engine;
        case "JSON codec round trip" bundle_json_roundtrip;
      ] );
    ( "flight.regen",
      [
        case "full-retention bundle round trip" roundtrip_full_retention;
        slow_case "wrapped bundle round trip" roundtrip_wrapped;
        case "tampered bundles rejected" regeneration_rejects_tampering;
      ] );
    ( "flight.off",
      [ slow_case "recorder never changes a run" recorder_never_changes_a_run ] );
    ( "flight.docs",
      [
        slow_case "TUTORIAL.md post-mortem walkthrough"
          tutorial_post_mortem_walkthrough;
      ] );
  ]
