(* Tests for the spill-lowering pass and the §3.2.1
   [-no-stack-slot-sharing] story: own-slot spilling preserves behaviour
   AND recovery; live-range slot sharing is sequentially correct but
   silently corrupts rollback reexecution. *)

open Conair.Ir
open Test_util
module B = Builder
module Lower = Conair.Transform.Lower
module Machine = Conair.Runtime.Machine
module Engine = Conair.Runtime.Engine
module Outcome = Conair.Runtime.Outcome

(* Run without the rollback verifier: lowered programs legitimately write
   (their own private) stack slots inside regions. *)
let run_lowered ?(fuel = 500_000) p =
  let config =
    { Machine.default_config with fuel; verify_rollbacks = false }
  in
  Conair.execute ~config p

let lowering_preserves_behaviour () =
  (* Every clean benchmark run behaves identically after own-slot
     spilling of all registers. *)
  List.iter
    (fun name ->
      let s = Option.get (Conair_bugbench.Registry.find name) in
      let inst =
        s.make ~variant:Conair_bugbench.Bench_spec.Clean ~oracle:false
      in
      let lowered = Lower.spill inst.program in
      check_valid lowered;
      let r0 = run ~fuel:2_000_000 inst.program in
      let r1 = run_lowered ~fuel:2_000_000 lowered in
      Alcotest.(check bool)
        (name ^ ": lowered run succeeds")
        true
        (Outcome.is_success r1.outcome);
      Alcotest.(check (list string)) (name ^ ": same outputs") r0.outputs
        r1.outputs)
    [ "ZSNES"; "HawkNL"; "MySQL2" ]

(* The §3.2.1 shape: an input value defined before the region, consumed
   inside it; a second value defined afterwards. Their live ranges are
   sequentially disjoint, so a live-range allocator may share their slot —
   which breaks reexecution. *)
let slot_demo_program () =
  let fix = ref (-1) in
  let p =
    B.build ~main:"main" @@ fun b ->
    B.global b "flag" (Value.Int 0);
    B.global b "scratch" (Value.Int 0);
    (B.func b "worker" ~params:[] @@ fun f ->
     B.label f "entry";
     B.move f "r0" (B.int 10);
     (* a destroying op: the reexecution point lands after it *)
     B.store f (Instr.Global "scratch") (B.int 1);
     B.load f "v" (Instr.Global "flag");
     B.mul f "sum" (B.reg "r0") (B.int 3);
     B.add f "sum" (B.reg "sum") (B.reg "v");
     B.assert_ f (B.reg "v") ~msg:"flag published";
     fix := B.last_iid f;
     B.output f "sum=%v" [ B.reg "sum" ];
     B.ret f None);
    (B.func b "setter" ~params:[] @@ fun f ->
     B.label f "entry";
     B.sleep f 60;
     B.store f (Instr.Global "flag") (B.int 5);
     B.ret f None);
    Conair_bugbench.Mirlib.two_thread_main b ~threads:[ "worker"; "setter" ]
  in
  (p, !fix)

(* Spill r0 and sum; [shared] coalesces them into one slot. *)
let lower_demo ~shared hardened_prog =
  let sharing =
    if shared then Lower.Groups [ ("S", [ "r0"; "sum" ]) ] else Lower.Own_slots
  in
  Lower.spill ~sharing
    ~spill:(fun r -> List.mem (Ident.Reg.name r) [ "r0"; "sum" ])
    hardened_prog

let own_slots_recover_correctly () =
  let p, fix = slot_demo_program () in
  let h = Conair.harden_exn p (Conair.Fix [ fix ]) in
  let lowered = lower_demo ~shared:false h.hardened.program in
  check_valid lowered;
  let config =
    { Machine.default_config with fuel = 500_000; verify_rollbacks = false }
  in
  let meta = Machine.meta_of_harden h.hardened in
  let m, outcome = Engine.run_program ~config ~meta Engine.Block lowered in
  Alcotest.(check bool) "recovers" true (Outcome.is_success outcome);
  Alcotest.(check (list string)) "correct result (10*3+5)" [ "sum=35" ]
    (Engine.outputs m);
  Alcotest.(check bool) "rollbacks happened" true
    ((Engine.stats m).rollbacks > 0)

let shared_slots_corrupt_reexecution () =
  (* Identical pipeline, but r0 and sum share a slot: sequentially legal
     (their live ranges are disjoint), yet each retry re-reads the slot
     after it was clobbered by the previous retry's [sum] — the result
     silently compounds. This is exactly what -no-stack-slot-sharing
     prevents. *)
  let p, fix = slot_demo_program () in
  let h = Conair.harden_exn p (Conair.Fix [ fix ]) in
  let lowered = lower_demo ~shared:true h.hardened.program in
  check_valid lowered;
  (* sanity: without any failure, the shared-slot program is correct *)
  let clean =
    (* setter publishes immediately: flip the sleep off by running with
       perturbed-timing seed... simpler: drop the failure by setting the
       flag global's initial value *)
    { lowered with Program.globals = [ ("flag", Value.Int 5); ("scratch", Value.Int 0) ] }
  in
  let r_clean = run_lowered clean in
  Alcotest.(check (list string)) "sequentially correct" [ "sum=35" ]
    r_clean.outputs;
  (* but under recovery the output is corrupted *)
  let config =
    { Machine.default_config with fuel = 500_000; verify_rollbacks = false }
  in
  let meta = Machine.meta_of_harden h.hardened in
  let m, outcome = Engine.run_program ~config ~meta Engine.Block lowered in
  Alcotest.(check bool) "run completes" true (Outcome.is_success outcome);
  Alcotest.(check bool) "result is corrupted" true
    (Engine.outputs m <> [ "sum=35" ])

let lowering_preserves_iids () =
  let p, _ = slot_demo_program () in
  let lowered = Lower.spill p in
  (* every original iid still exists *)
  Program.iter_funcs p (fun f ->
      Func.iter_instrs f (fun _ i ->
          Alcotest.(check bool)
            (Printf.sprintf "iid %d survives" i.iid)
            true
            (Program.find_instr lowered i.iid <> None)))

let params_stay_in_registers () =
  let p =
    B.build ~main:"main" @@ fun b ->
    (B.func b "id" ~params:[ "x" ] @@ fun f ->
     B.label f "entry";
     B.ret f (Some (B.reg "x")));
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    B.call f ~into:"r" "id" [ B.int 7 ];
    B.output f "%v" [ B.reg "r" ];
    B.exit_ f
  in
  let lowered = Lower.spill p in
  check_valid lowered;
  let r = run_lowered lowered in
  Alcotest.(check (list string)) "works" [ "7" ] r.outputs;
  (* no load of a spill slot for the parameter *)
  let id = Program.func_exn lowered (Ident.Fname.v "id") in
  Func.iter_instrs id (fun _ i ->
      match i.op with
      | Instr.Load (_, Instr.Stack s) ->
          Alcotest.(check bool) "no param spill" false
            (s = "__spill_x")
      | _ -> ())

let suites =
  [
    ( "lower",
      [
        case "own-slot lowering preserves behaviour"
          lowering_preserves_behaviour;
        case "own slots: recovery stays correct (the paper's flag)"
          own_slots_recover_correctly;
        case "shared slots: reexecution silently corrupts"
          shared_slots_corrupt_reexecution;
        case "original instruction ids survive" lowering_preserves_iids;
        case "parameters stay in registers" params_stay_in_registers;
      ] );
  ]
