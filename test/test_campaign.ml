(* Schedule-coverage observability and campaign aggregation:
   [Obs.Coverage] signatures and coverage maps, and the [Obs.Campaign]
   fold over worker JSONL streams — in particular the determinism
   properties the campaign leans on: signatures stable across repeated
   recordings, reports byte-identical across coordinator restarts and
   worker orderings. *)

module Json = Conair.Obs.Json
module Coverage = Conair.Obs.Coverage
module Campaign = Conair.Obs.Campaign
module Metrics = Conair.Obs.Metrics
module Sched = Conair.Runtime.Sched
module Machine = Conair.Runtime.Machine
module Gen = Conair_genprog.Genprog

let config = { Machine.default_config with fuel = 300_000 }

(* ---------------- signatures ---------------- *)

let signature_properties () =
  let s ?context ?orders ~preemptions () =
    Coverage.signature ?context ?orders ~decisions:[| 0; 1; 0; 1 |]
      ~preemptions ()
  in
  let base = s ~preemptions:[| 1; 3 |] () in
  Alcotest.(check string)
    "same inputs, same signature" base
    (s ~preemptions:[| 1; 3 |] ());
  Alcotest.(check bool)
    "preemption set matters" false
    (base = s ~preemptions:[| 1 |] ());
  Alcotest.(check bool)
    "context matters" false
    (base = s ~context:"other-app" ~preemptions:[| 1; 3 |] ());
  Alcotest.(check bool)
    "access orders matter" false
    (base = s ~orders:[ ("global:x", "t0w@b;t1r@c;") ] ~preemptions:[| 1; 3 |] ());
  Alcotest.(check int) "MD5 hex digest" 32 (String.length base)

(* The signed encoding is an on-disk contract (campaign reports, corpus
   names, BENCH_fuzz.json digests): these digests were taken from the
   formatted encoding the signature used to build with [Printf]. They
   cover an ordinal-0 preemption (no predecessor: from = -1), one past
   the end (to = -1), multi-digit ints, an empty run and sorted orders. *)
let signature_golden () =
  Alcotest.(check string)
    "ordinal 0, out of range, orders" "93a1219a2e766d87dfec7ab2a85cf392"
    (Coverage.signature ~context:"golden"
       ~orders:[ ("global:x", "t0w@entry;t1r@loop;"); ("cell:1:2", "md5:0f") ]
       ~decisions:[| 0; 1; 0; 2; 2; 1 |] ~preemptions:[| 0; 1; 3; 5; 6 |] ());
  Alcotest.(check string)
    "empty run" "5d1159f2d5806d7d6f0a621135c9d19d"
    (Coverage.signature ~decisions:[||] ~preemptions:[||] ());
  Alcotest.(check string)
    "multi-digit tids" "dae1ba9cb6a05df4a2fd0cf14e195640"
    (Coverage.signature ~context:"fix-sweep"
       ~decisions:[| 12; 3; 12; 12; 1234567 |] ~preemptions:[| 1; 2; 4 |] ())

(* The fix sweep counts distinct schedules by [Coverage.key]. The key
   must be the same on every engine, and two runs of one program must
   have equal keys exactly when the signatures of their full recordings
   are equal. Inputs: every registry app, buggy and clean, and the fix
   candidates of the three triage apps (HawkNL's fused-lock candidate
   is contended at every step), each under round-robin and seeds 1-8,
   at the sweep's fuel. *)
let fingerprint_separates_like_signature () =
  let module Ring = Conair.Runtime.Flight_ring in
  let module Engine = Conair.Runtime.Engine in
  let module Spec = Conair_bugbench.Bench_spec in
  let module Registry = Conair_bugbench.Registry in
  let module Pipeline = Conair.Fix.Pipeline in
  let module Event = Conair.Runtime.Event in
  (* hand-built decision streams: a forced switch before a preemption
     changes the thread it preempts, and a window keys alike however
     it is split *)
  let key_of decides =
    let fp = Coverage.fingerprint () in
    let probe = Coverage.fingerprint_probe fp in
    let view =
      { Event.stack = (fun _ -> []); block = (fun _ -> ""); locks = (fun _ -> []) }
    in
    List.iter
      (fun (tid, count, preemptive) ->
        probe.on view (Event.Decide { step = 0; tid; count; preemptive }))
      decides;
    Coverage.key fp
  in
  Alcotest.(check bool)
    "the preempted thread separates" false
    (key_of [ (0, 1, false); (1, 1, false); (2, 1, true) ]
    = key_of [ (0, 1, false); (0, 1, false); (2, 1, true) ]);
  Alcotest.(check bool)
    "as it separates signatures" false
    (Coverage.signature ~decisions:[| 0; 1; 2 |] ~preemptions:[| 2 |] ()
    = Coverage.signature ~decisions:[| 0; 0; 2 |] ~preemptions:[| 2 |] ());
  Alcotest.(check bool)
    "a split window keys alike" true
    (key_of [ (0, 3, false); (1, 1, true) ]
    = key_of [ (0, 1, false); (0, 2, false); (1, 1, true) ]);
  let registry =
    List.concat_map
      (fun (s : Spec.t) ->
        [
          (s.info.name ^ "/buggy", (s.make ~variant:Spec.Buggy ~oracle:false).program);
          (s.info.name ^ "/clean", (s.make ~variant:Spec.Clean ~oracle:false).program);
        ])
      (Registry.all @ Registry.extended)
  in
  let candidates =
    List.concat_map
      (fun app ->
        let s = Option.get (Registry.find app) in
        let inst = s.make ~variant:Spec.Buggy ~oracle:s.info.needs_oracle in
        let fx =
          Pipeline.run
            ~options:
              { Pipeline.default_options with sweep_seeds = 25; search_seeds = 10 }
            ~accept:inst.accept ~app ~variant:"buggy" inst.program
        in
        List.map
          (fun (c : Pipeline.candidate) ->
            (app ^ " " ^ c.c_patch.p_id, c.c_patch.p_program))
          fx.fx_candidates)
      [ "HawkNL"; "MySQL1"; "MozillaXP" ]
  in
  Alcotest.(check bool)
    "HawkNL's fused-lock candidate is an input" true
    (List.mem_assoc "HawkNL fuse-locks:nlock->slock" candidates);
  let config = { config with fuel = Pipeline.default_options.fuel } in
  let policies = Sched.Round_robin :: List.init 8 (fun i -> Sched.Random (i + 1)) in
  let separated = ref 0 in
  List.iter
    (fun (name, p) ->
      let runs =
        List.map
          (fun policy ->
            let observed engine =
              let ring = Ring.unbounded () and fp = Coverage.fingerprint () in
              ignore
                (Engine.run_program ~config:{ config with policy }
                   ~observer:
                     (Event.combine
                        [ Ring.observer ring; Coverage.fingerprint_probe fp ])
                   engine p);
              ( Coverage.key fp,
                Coverage.signature ~decisions:(Ring.tail ring)
                  ~preemptions:(Ring.tail_preemptions ring) () )
            in
            let k, s = observed Engine.Ref in
            List.iter
              (fun engine ->
                let k', s' = observed engine in
                let what = Printf.sprintf "%s, %s" name (Engine.name engine) in
                Alcotest.(check string) (what ^ ": signature") s s';
                Alcotest.(check bool) (what ^ ": key as on ref") true (k = k'))
              [ Engine.Block ];
            (k, s))
          policies
      in
      separated := !separated + List.length (List.sort_uniq compare (List.map snd runs));
      List.iteri
        (fun i (k, s) ->
          List.iteri
            (fun j (k', s') ->
              if i < j then
                Alcotest.(check bool)
                  (Printf.sprintf "%s, policies %d and %d: equal keys iff equal \
                                   signatures" name i j)
                  (s = s') (k = k'))
            runs)
        runs)
    (registry @ candidates);
  (* the inputs do tell schedules apart, so "exactly when" is not vacuous *)
  Alcotest.(check bool)
    "some programs run distinct schedules" true
    (!separated > List.length registry + List.length candidates)

(* The facade signature of a real recorded run is stable across repeated
   recordings — the restart-determinism property at the single-run
   level. *)
let signature_stable_across_recordings () =
  let p = Gen.racy_program (Gen.racy_spec_gen (Random.State.make [| 3 |])) in
  let one () =
    let coll = Coverage.collector () in
    let _, log =
      Conair.record_run
        ~config:{ config with policy = Sched.Random 11 }
        ~ident:(Conair.Replay.Log.ident "sigtest")
        ~race:(Coverage.probe coll) p
    in
    Conair.interleaving_signature
      ~orders:(Coverage.observed coll).Coverage.ob_orders log
  in
  Alcotest.(check string) "recorded twice, same signature" (one ()) (one ())

(* ---------------- the coverage map ---------------- *)

let coverage_map () =
  let cover = Coverage.create () in
  let coll = Coverage.collector () in
  let _, _ =
    Conair.record_run
      ~config:{ config with policy = Sched.Random 5 }
      ~ident:(Conair.Replay.Log.ident "cov")
      ~race:(Coverage.probe coll)
      (Gen.racy_program (Gen.racy_spec_gen (Random.State.make [| 9 |])))
  in
  let ob = Coverage.observed coll in
  Alcotest.(check bool) "observed some points" true (ob.Coverage.ob_points <> []);
  Alcotest.(check (float 1e-9))
    "everything novel on an empty map" 1.
    (Coverage.novelty cover ~app:"racy" ob);
  Coverage.note cover ~app:"racy" ob;
  Alcotest.(check (float 1e-9))
    "nothing novel after noting" 0.
    (Coverage.novelty cover ~app:"racy" ob);
  Alcotest.(check (float 1e-9))
    "unknown app is all-novel" 1.
    (Coverage.novelty cover ~app:"elsewhere" ob);
  Alcotest.(check bool) "fresh signature" true
    (Coverage.note_signature cover "sig-1");
  Alcotest.(check bool) "known signature" false
    (Coverage.note_signature cover "sig-1");
  (* a worker dump merges losslessly into another map *)
  let other = Coverage.create () in
  (match Coverage.merge_json other (Coverage.to_json cover) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string))
    "merged points" (Coverage.points cover ~app:"racy")
    (Coverage.points other ~app:"racy");
  Alcotest.(check (list string))
    "merged edges" (Coverage.edges cover ~app:"racy")
    (Coverage.edges other ~app:"racy")

(* ---------------- worker streams ---------------- *)

let sig_a = String.make 32 'a'
let sig_b = String.make 32 'b'
let sig_c = String.make 32 'c'

let run_line case seed =
  Printf.sprintf
    "{\"type\":\"run\",\"case\":%S,\"seed\":%d,\"outcome\":\"success\",\"steps\":40,\"instrs\":30,\"rollbacks\":1,\"episodes\":1,\"retries\":2,\"max_episode_steps\":7,\"sites\":[]}"
    case seed

let finding_line ~signature ~case ~seed ~run_index ~log =
  Printf.sprintf
    "{\"type\":\"finding\",\"signature\":%S,\"case\":%S,\"seed\":%d,\"outcome\":\"failed\",\"run_index\":%d,\"novelty\":0.5,\"log\":%S}"
    signature case seed run_index log

let summary_line ~worker ~runs ~findings =
  Printf.sprintf
    "{\"type\":\"fuzz_summary\",\"worker\":%d,\"engine\":\"block\",\"elapsed_sec\":2.0,\"checks\":12,\"failures\":0,\"hardened_runs\":%d,\"total_runs\":%d,\"findings\":%d}"
    worker (runs / 2) runs findings

let coverage_line () =
  let c = Coverage.create () in
  Json.to_string (Coverage.to_json c)

let worker0 =
  [
    run_line "racy" 1;
    finding_line ~signature:sig_a ~case:"racy" ~seed:1 ~run_index:2
      ~log:"w0/a.sched.jsonl";
    run_line "racy" 2;
    finding_line ~signature:sig_b ~case:"racy" ~seed:2 ~run_index:3 ~log:"";
    coverage_line ();
    summary_line ~worker:0 ~runs:4 ~findings:2;
  ]

let worker1 =
  [
    finding_line ~signature:sig_a ~case:"racy" ~seed:7 ~run_index:1
      ~log:"w1/a.sched.jsonl";
    run_line "wakeup" 8;
    finding_line ~signature:sig_c ~case:"wakeup" ~seed:8 ~run_index:5
      ~log:"w1/c.sched.jsonl";
    coverage_line ();
    summary_line ~worker:1 ~runs:6 ~findings:2;
  ]

let fold ?elapsed workers =
  match Campaign.of_worker_lines ?elapsed workers with
  | Ok c -> c
  | Error e -> Alcotest.fail e

let campaign_fold () =
  let c = fold ~elapsed:2.5 [ (0, worker0); (1, worker1) ] in
  Alcotest.(check int) "total runs" 10 c.Campaign.c_runs;
  Alcotest.(check int) "workers" 2 (List.length c.Campaign.c_workers);
  Alcotest.(check int) "unique findings" 3 (List.length c.Campaign.c_findings);
  Alcotest.(check int) "duplicates" 1 c.Campaign.c_duplicates;
  Alcotest.(check (list string)) "engines" [ "block" ] c.Campaign.c_engines;
  Alcotest.(check (float 1e-9)) "elapsed override" 2.5 c.Campaign.c_elapsed;
  Alcotest.(check (float 1e-9)) "runs/sec" 4. c.Campaign.c_runs_per_sec;
  (* deterministic discovery order: ascending (run_index, case, seed) *)
  Alcotest.(check (list string))
    "finding order" [ sig_a; sig_b; sig_c ]
    (List.map (fun f -> f.Campaign.f_signature) c.Campaign.c_findings);
  (* the duplicate's count lands on the surviving finding *)
  (match c.Campaign.c_findings with
  | a :: _ -> Alcotest.(check int) "sig_a seen twice" 2 a.Campaign.f_count
  | [] -> Alcotest.fail "no findings");
  (* the curve is nondecreasing and ends at (total runs, uniques) *)
  let rec nondecreasing = function
    | (x1, y1) :: ((x2, y2) :: _ as rest) ->
        x1 <= x2 && y1 <= y2 && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "curve nondecreasing" true
    (nondecreasing c.Campaign.c_curve);
  (match List.rev c.Campaign.c_curve with
  | (x, y) :: _ ->
      Alcotest.(check (pair int int)) "curve endpoint" (10, 3) (x, y)
  | [] -> Alcotest.fail "empty curve");
  (* aggregate folded the run records *)
  Alcotest.(check int) "aggregate runs" 3 c.Campaign.c_agg.Conair.Obs.Aggregate.g_runs

let campaign_restart_determinism () =
  let report workers =
    Json.to_string (Campaign.to_json (fold ~elapsed:2.5 workers))
  in
  let once = report [ (0, worker0); (1, worker1) ] in
  Alcotest.(check string) "re-folded report identical" once
    (report [ (0, worker0); (1, worker1) ]);
  Alcotest.(check string) "worker order irrelevant" once
    (report [ (1, worker1); (0, worker0) ])

let campaign_minimized_and_digest () =
  let c = fold [ (0, worker0); (1, worker1) ] in
  let digest = Campaign.signatures_digest c in
  Alcotest.(check string)
    "digest only depends on the signature set" digest
    (Campaign.signatures_digest (fold [ (1, worker1); (0, worker0) ]));
  let c' = Campaign.set_minimized c ~signature:sig_b ~path:"corpus/b.jsonl" in
  let f =
    List.find (fun f -> f.Campaign.f_signature = sig_b) c'.Campaign.c_findings
  in
  Alcotest.(check (option string))
    "minimized path recorded"
    (Some "corpus/b.jsonl") f.Campaign.f_minimized;
  Alcotest.(check string) "digest unchanged by corpus paths" digest
    (Campaign.signatures_digest c')

let campaign_metrics () =
  let c = fold ~elapsed:2.5 [ (0, worker0); (1, worker1) ] in
  let reg = Metrics.create () in
  let runs = Metrics.counter reg "conair_campaign_runs_total" in
  let uniq = Metrics.counter reg "conair_campaign_unique_failures" in
  let dups = Metrics.counter reg "conair_campaign_duplicates_total" in
  ignore (Campaign.metrics ~into:reg c);
  Alcotest.(check int) "runs counter" 10 (Metrics.counter_value runs);
  Alcotest.(check int) "unique counter" 3 (Metrics.counter_value uniq);
  Alcotest.(check int) "duplicates counter" 1 (Metrics.counter_value dups);
  (* folding again into the same registry must not double-count *)
  ignore (Campaign.metrics ~into:reg c);
  Alcotest.(check int) "idempotent re-export" 10 (Metrics.counter_value runs)

let seed_range_syntax () =
  (match Campaign.parse_seed_range "3..17" with
  | Ok r -> Alcotest.(check (pair int int)) "inclusive bounds" (3, 17) r
  | Error e -> Alcotest.fail e);
  (match Campaign.parse_seed_range "5..5" with
  | Ok r -> Alcotest.(check (pair int int)) "singleton range" (5, 5) r
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Campaign.parse_seed_range bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error e ->
          Alcotest.(check bool)
            (bad ^ ": error text carries usage help")
            true
            (String.length e > 0))
    [ "7..3"; "abc"; "1...9"; "4"; ".." ]

let bench_document () =
  let c = fold ~elapsed:2.0 [ (0, worker0); (1, worker1) ] in
  let agree name =
    match
      Json.member "signature_agreement"
        (Campaign.bench_json ~jobs:2 ~iterations:10 name)
    with
    | Some (Json.Bool b) -> b
    | _ -> Alcotest.fail "signature_agreement missing"
  in
  Alcotest.(check bool)
    "same streams agree" true
    (agree [ ("ref", c); ("block", c) ]);
  let divergent = fold [ (0, worker0) ] in
  Alcotest.(check bool)
    "different signature sets disagree" false
    (agree [ ("ref", c); ("block", divergent) ])

let suites =
  [
    ( "campaign",
      [
        Alcotest.test_case "signature properties" `Quick signature_properties;
        Alcotest.test_case "signature golden encoding" `Quick signature_golden;
        Alcotest.test_case "sweep fingerprint separates what the signature separates" `Quick
          fingerprint_separates_like_signature;
        Alcotest.test_case "signature stable across recordings" `Quick
          signature_stable_across_recordings;
        Alcotest.test_case "coverage map" `Quick coverage_map;
        Alcotest.test_case "fold worker streams" `Quick campaign_fold;
        Alcotest.test_case "restart determinism" `Quick
          campaign_restart_determinism;
        Alcotest.test_case "minimized paths and digest" `Quick
          campaign_minimized_and_digest;
        Alcotest.test_case "prometheus counters" `Quick campaign_metrics;
        Alcotest.test_case "--seeds syntax" `Quick seed_range_syntax;
        Alcotest.test_case "bench document" `Quick bench_document;
      ] );
  ]
