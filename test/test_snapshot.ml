(* Tests for whole-machine snapshots (the baselines' substrate) and the
   scheduler unit behaviour. *)

open Conair.Ir
open Test_util
module B = Builder
module Machine = Conair.Runtime.Machine
module Block_machine = Conair.Runtime.Block_machine
module Sched = Conair.Runtime.Sched
module Outcome = Conair.Runtime.Outcome

let counting_program () =
  B.build ~main:"main" @@ fun b ->
  B.global b "n" (Value.Int 0);
  B.func b "main" ~params:[] @@ fun f ->
  B.label f "entry";
  B.move f "i" (B.int 0);
  B.label f "loop";
  B.load f "v" (Instr.Global "n");
  B.add f "v" (B.reg "v") (B.int 1);
  B.store f (Instr.Global "n") (B.reg "v");
  B.add f "i" (B.reg "i") (B.int 1);
  B.lt f "c" (B.reg "i") (B.int 10);
  B.branch f (B.reg "c") "loop" "done_";
  B.label f "done_";
  B.load f "v" (Instr.Global "n");
  B.output f "%v" [ B.reg "v" ];
  B.exit_ f

let snapshot_restores_globals_and_position () =
  let bm = Block_machine.create (counting_program ()) in
  let m = Block_machine.machine bm in
  (* run a few steps, snapshot, run to completion, restore, complete again *)
  for _ = 1 to 12 do
    ignore (Block_machine.step bm)
  done;
  let snap = Machine.snapshot m in
  let outcome1 = Block_machine.run bm in
  Alcotest.(check bool) "first completion" true (Outcome.is_success outcome1);
  let out1 = Machine.outputs m in
  Machine.restore m snap;
  Alcotest.(check bool) "outcome cleared" true (m.Machine.outcome = None);
  let outcome2 = Block_machine.run bm in
  Alcotest.(check bool) "second completion" true (Outcome.is_success outcome2);
  Alcotest.(check (list string)) "same result after restore" out1
    (Machine.outputs m)

let snapshot_is_isolated_from_later_mutation () =
  let bm = Block_machine.create (counting_program ()) in
  let m = Block_machine.machine bm in
  for _ = 1 to 12 do
    ignore (Block_machine.step bm)
  done;
  let snap = Machine.snapshot m in
  let n_at_snap = Hashtbl.find m.Machine.globals "n" in
  ignore (Block_machine.run bm);
  (* the machine's global moved on; restoring brings the old value back *)
  Alcotest.(check bool) "global advanced" false
    (Value.equal n_at_snap (Hashtbl.find m.Machine.globals "n"));
  Machine.restore m snap;
  Alcotest.(check value) "restored value" n_at_snap
    (Hashtbl.find m.Machine.globals "n")

let snapshot_restorable_many_times () =
  let bm = Block_machine.create (counting_program ()) in
  let m = Block_machine.machine bm in
  for _ = 1 to 12 do
    ignore (Block_machine.step bm)
  done;
  let snap = Machine.snapshot m in
  let finish () =
    ignore (Block_machine.run bm);
    Machine.outputs m
  in
  let a = finish () in
  Machine.restore m snap;
  let b = finish () in
  Machine.restore m snap;
  let c = finish () in
  Alcotest.(check bool) "all three runs equal" true (a = b && b = c)

let restore_keeps_time_monotonic () =
  let bm = Block_machine.create (counting_program ()) in
  let m = Block_machine.machine bm in
  for _ = 1 to 12 do
    ignore (Block_machine.step bm)
  done;
  let snap = Machine.snapshot m in
  ignore (Block_machine.run bm);
  let t_end = m.Machine.step in
  Machine.restore m snap;
  Alcotest.(check bool) "virtual time does not rewind" true
    (m.Machine.step >= t_end)

(* --- Sched unit behaviour --------------------------------------------- *)

let round_robin_rotates () =
  let s = Sched.create Sched.Round_robin in
  let picks = List.init 6 (fun _ -> Sched.choose s [ 1; 2; 3 ]) in
  Alcotest.(check (list int)) "strict rotation" [ 1; 2; 3; 1; 2; 3 ] picks

let round_robin_skips_missing () =
  let s = Sched.create Sched.Round_robin in
  ignore (Sched.choose s [ 1; 2; 3 ]);
  (* thread 2 became ineligible *)
  Alcotest.(check int) "skips to 3" 3 (Sched.choose s [ 1; 3 ])

let random_is_seed_deterministic () =
  let picks seed =
    let s = Sched.create (Sched.Random seed) in
    List.init 20 (fun _ -> Sched.choose s [ 0; 1; 2; 3 ])
  in
  Alcotest.(check (list int)) "same seed, same picks" (picks 5) (picks 5);
  Alcotest.(check bool) "different seeds diverge" true (picks 5 <> picks 6)

let singleton_needs_no_policy () =
  let s = Sched.create (Sched.Random 1) in
  Alcotest.(check int) "singleton" 9 (Sched.choose s [ 9 ])

let suites =
  [
    ( "snapshot",
      [
        case "restores globals and position" snapshot_restores_globals_and_position;
        case "isolated from later mutation" snapshot_is_isolated_from_later_mutation;
        case "restorable many times" snapshot_restorable_many_times;
        case "time stays monotonic" restore_keeps_time_monotonic;
      ] );
    ( "sched-unit",
      [
        case "round robin rotates" round_robin_rotates;
        case "round robin skips missing" round_robin_skips_missing;
        case "random is seed-deterministic" random_is_seed_deterministic;
        case "singleton choice" singleton_needs_no_policy;
      ] );
  ]
