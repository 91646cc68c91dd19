(* Tests for the comparison baselines (whole-program restart and
   whole-program checkpoint/rollback) and for the Fig 2 micro patterns that
   delimit ConAir's design point. *)

open Test_util
module Spec = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry
module Micro = Conair_bugbench.Micro_patterns
module Restart = Conair_baselines.Restart
module Full_checkpoint = Conair_baselines.Full_checkpoint
module Machine = Conair.Runtime.Machine
module Outcome = Conair.Runtime.Outcome

let config = { Machine.default_config with fuel = 8_000_000 }

let restart_recovers_every_benchmark () =
  List.iter
    (fun (s : Spec.t) ->
      let inst = s.make ~variant:Spec.Buggy ~oracle:s.info.needs_oracle in
      let r = Restart.run ~config ~accept:inst.accept inst.program in
      Alcotest.(check bool)
        (s.info.name ^ ": restart eventually succeeds")
        true
        (Outcome.is_success r.outcome);
      Alcotest.(check bool)
        (s.info.name ^ ": more than one attempt was needed")
        true (r.attempts > 1);
      Alcotest.(check bool)
        (s.info.name ^ ": wasted work recorded")
        true (r.wasted_steps > 0))
    Registry.all

let restart_single_attempt_when_no_bug () =
  let s = Option.get (Registry.find "ZSNES") in
  let inst = s.make ~variant:Spec.Clean ~oracle:false in
  let r = Restart.run ~config ~accept:inst.accept inst.program in
  Alcotest.(check int) "one attempt" 1 r.attempts;
  Alcotest.(check int) "nothing wasted" 0 r.wasted_steps

let restart_cost_dominated_by_workload () =
  (* FFT's restart must redo the whole transform: its restart cost is the
     largest in the suite (the paper's Table 7 shape). *)
  let cost name =
    let s = Option.get (Registry.find name) in
    let inst = s.make ~variant:Spec.Buggy ~oracle:s.info.needs_oracle in
    (Restart.run ~config ~accept:inst.accept inst.program).total_steps
  in
  Alcotest.(check bool) "FFT restart > HawkNL restart" true
    (cost "FFT" > cost "HawkNL")

let full_checkpoint_recovers_benchmarks () =
  List.iter
    (fun (s : Spec.t) ->
      let inst = s.make ~variant:Spec.Buggy ~oracle:s.info.needs_oracle in
      let fc_config = { Full_checkpoint.default_config with machine = config } in
      let r = Full_checkpoint.run ~config:fc_config inst.program in
      Alcotest.(check bool)
        (s.info.name ^ ": full checkpoint recovers")
        true
        (Outcome.is_success r.outcome);
      Alcotest.(check bool)
        (s.info.name ^ ": restores happened")
        true (r.restores > 0))
    Registry.all

let full_checkpoint_pays_overhead () =
  (* On a clean run the checkpointing cost is nonzero and grows with the
     snapshot frequency. *)
  let s = Option.get (Registry.find "MySQL2") in
  let inst = s.make ~variant:Spec.Clean ~oracle:false in
  let at interval =
    let cfg =
      { Full_checkpoint.default_config with machine = config; interval }
    in
    let r = Full_checkpoint.run ~config:cfg inst.program in
    Alcotest.(check bool) "clean run succeeds" true
      (Outcome.is_success r.outcome);
    r.checkpoint_overhead_steps
  in
  let coarse = at 1000 and fine = at 100 in
  Alcotest.(check bool) "overhead > 0" true (coarse > 0);
  Alcotest.(check bool) "finer snapshots cost more" true (fine > coarse)

let full_checkpoint_no_restores_on_clean_run () =
  let s = Option.get (Registry.find "HawkNL") in
  let inst = s.make ~variant:Spec.Clean ~oracle:false in
  let fc_config = { Full_checkpoint.default_config with machine = config } in
  let r = Full_checkpoint.run ~config:fc_config inst.program in
  Alcotest.(check int) "no restores" 0 r.restores;
  Alcotest.(check int) "no recovery" 0 r.recovery_steps

(* The whole run of the baseline on every buggy registry app — outcome,
   an MD5 of the outputs, snapshots, restores, and run, total and
   recovery steps — pinned. It steps the block engine one decision at a
   time, snapshotting between steps. *)
let full_checkpoint_pinned () =
  let pinned =
    [
      ("FFT", "7fdef20d2ddf2e131dcba480b065b7e4", 225, 59, 57028, 61528, 1011);
      ("HawkNL", "14f8284505690ce8fe6ec159701a6098", 85, 1, 21151, 22851, 21086);
      ("HTTrack", "e2e71bcdb2342ac3fdf1b1b3bd8aa284", 100, 22, 26309, 28525, 3742);
      ("MozillaXP", "aa2e0fa33d7d865329c74390d8bf6e5d", 35, 109, 12095, 12863, 3563);
      ("MozillaJS", "24bd15eb65f05bd7a02d1f790b445c87", 86, 1, 21527, 23247, 21442);
      ("MySQL1", "3bb1433b9fab01155a9f7784d309022c", 71, 92, 20020, 21440, 2493);
      ("MySQL2", "932dcdc76802c3a031c764e844267cea", 144, 1, 35935, 39101, 35918);
      ("SQLite", "098fe279904104e6ecc701e2a40020b7", 85, 1, 21158, 22858, 21083);
      ("Transmission", "706fbce49fdbc092bb22220c54abb53e", 34, 7, 9689, 10435, 1261);
      ("ZSNES", "8e4fc095a17f30d10f2a58c83859d3ae", 35, 7, 9743, 10511, 1320);
      ("PBZIP2", "08cdcf5bfb5e75ccbeec48b962b83a47", 3, 1, 832, 896, 130);
      ("Apache", "b838a45802cbad0c1bf8c7ab34ec0ba7", 6, 24, 1760, 1890, 740);
    ]
  in
  Alcotest.(check (list string)) "every buggy app is pinned"
    (List.map
       (fun (s : Spec.t) -> s.info.name)
       (Registry.all @ Registry.extended))
    (List.map (fun (name, _, _, _, _, _, _) -> name) pinned);
  List.iter
    (fun (name, outputs, snapshots, restores, run, total, recovery) ->
      let s = Option.get (Registry.find name) in
      let inst = s.make ~variant:Spec.Buggy ~oracle:s.info.needs_oracle in
      let r =
        Full_checkpoint.run
          ~config:{ Full_checkpoint.default_config with machine = config }
          inst.program
      in
      let check what = Alcotest.(check int) (name ^ ": " ^ what) in
      Alcotest.(check bool) (name ^ ": success") true
        (Outcome.is_success r.outcome);
      Alcotest.(check string) (name ^ ": outputs") outputs
        (Digest.to_hex (Digest.string (String.concat "\n" r.outputs)));
      check "snapshots" snapshots r.snapshots_taken;
      check "restores" restores r.restores;
      check "run steps" run r.run_steps;
      check "total steps" total r.total_steps;
      check "recovery steps" recovery r.recovery_steps)
    pinned

(* --- Fig 2 micro patterns ----------------------------------------------- *)

let micro_expectations () =
  List.iter
    (fun (p : Micro.pattern) ->
      (* the bug manifests without protection *)
      let plain = Conair.execute ~config p.program in
      Alcotest.(check bool)
        (p.name ^ ": bug manifests")
        false
        (Outcome.is_success plain.outcome);
      (* ConAir recovers exactly the patterns the paper says it can *)
      let h = Conair.harden_exn p.program Conair.Survival in
      let r =
        Conair.execute_hardened ~config:{ config with max_retries = 300 } h
      in
      Alcotest.(check bool)
        (p.name ^ ": ConAir verdict matches the paper")
        p.conair_recoverable
        (Outcome.is_success r.outcome);
      (* the full-checkpoint baseline recovers all four *)
      let fc =
        Full_checkpoint.run
          ~config:{ Full_checkpoint.default_config with machine = config }
          p.program
      in
      Alcotest.(check bool)
        (p.name ^ ": full checkpoint recovers")
        true
        (Outcome.is_success fc.outcome))
    (Micro.all ())

let rar_recovery_is_fast () =
  (* The read-after-read pattern needs very few retries (the paper's 8µs /
     1 retry story for MySQL2). *)
  let p = (Micro.rar ()).program in
  let h = Conair.harden_exn p Conair.Survival in
  let r = Conair.execute_hardened ~config h in
  expect_success r;
  Alcotest.(check bool) "at most a handful of rollbacks" true
    (r.stats.rollbacks <= 5)

let suites =
  [
    ( "baselines",
      [
        slow_case "restart recovers every benchmark"
          restart_recovers_every_benchmark;
        case "restart: single attempt without the bug"
          restart_single_attempt_when_no_bug;
        case "restart cost dominated by workload"
          restart_cost_dominated_by_workload;
        slow_case "full checkpoint recovers benchmarks"
          full_checkpoint_recovers_benchmarks;
        case "full checkpoint pays overhead" full_checkpoint_pays_overhead;
        case "full checkpoint: clean run has no restores"
          full_checkpoint_no_restores_on_clean_run;
        Alcotest.test_case "full checkpoint results pinned" `Quick
          full_checkpoint_pinned;
      ] );
    ( "micro-patterns",
      [
        case "Fig 2 expectations" micro_expectations;
        case "RAR recovery is fast" rar_recovery_is_fast;
      ] );
  ]
