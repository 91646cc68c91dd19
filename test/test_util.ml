(* Shared fixtures and helpers for the test suites. *)

open Conair.Ir
module B = Builder

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* --- Alcotest testables ------------------------------------------- *)

let value = Alcotest.testable Value.pp Value.equal

let outcome =
  Alcotest.testable Conair.Runtime.Outcome.pp (fun a b -> a = b)

let check_valid p =
  match Validate.check p with
  | [] -> ()
  | problems ->
      Alcotest.failf "invalid program:@ %a"
        (Format.pp_print_list Validate.pp_problem)
        problems

(* --- The tap recorder: an independent preemption classifier --------- *)

(* A schedule recorder built as a scheduler tap that classifies each
   decision itself: a switch is preemptive when the previously chosen
   thread is still in the eligible list. The engines classify on their
   own as they report decisions on the event stream, which the library's
   recorder observes; tests keep this one as the oracle for that stream. *)
module Tap_recorder = struct
  type t = {
    mutable rev : int list;  (* decisions, newest first *)
    mutable n : int;
    mutable prev : int;
    mutable pre_rev : int list;  (* preemptive ordinals, newest first *)
  }

  let create () = { rev = []; n = 0; prev = -1; pre_rev = [] }

  let tap r ~chosen ~eligible =
    if chosen <> r.prev && r.prev >= 0 && List.mem r.prev eligible then
      r.pre_rev <- r.n :: r.pre_rev;
    r.rev <- chosen :: r.rev;
    r.n <- r.n + 1;
    r.prev <- chosen

  let count r = r.n
  let decisions r = Array.of_list (List.rev r.rev)
  let preemptions r = Array.of_list (List.rev r.pre_rev)
end

(* --- Execution helpers -------------------------------------------- *)

let run ?(policy = Conair.Runtime.Sched.Round_robin) ?(fuel = 500_000) p =
  let config = { Conair.Runtime.Machine.default_config with policy; fuel } in
  Conair.execute ~config p

let run_hardened ?(policy = Conair.Runtime.Sched.Round_robin)
    ?(fuel = 500_000) ?(max_retries = 1_000_000) h =
  let config =
    { Conair.Runtime.Machine.default_config with policy; fuel; max_retries }
  in
  Conair.execute_hardened ~config h

(* The [Machine.t] state the block engine drives. *)
let machine_state (r : Conair.run) =
  match r.machine with
  | Conair.Runtime.Engine.M_block bm -> Conair.Runtime.Block_machine.machine bm
  | Conair.Runtime.Engine.M_ref _ -> Alcotest.fail "expected the block engine"

let expect_success (r : Conair.run) =
  match r.outcome with
  | Conair.Runtime.Outcome.Success -> ()
  | o -> Alcotest.failf "expected success, got %a" Conair.Runtime.Outcome.pp o

let expect_failure_kind kind (r : Conair.run) =
  match r.outcome with
  | Conair.Runtime.Outcome.Failed f when f.kind = kind -> ()
  | o ->
      Alcotest.failf "expected %a failure, got %a" Instr.pp_failure_kind kind
        Conair.Runtime.Outcome.pp o

let expect_hang (r : Conair.run) =
  match r.outcome with
  | Conair.Runtime.Outcome.Hang _ -> ()
  | o -> Alcotest.failf "expected hang, got %a" Conair.Runtime.Outcome.pp o

(* --- Fixture programs --------------------------------------------- *)

(* A single-threaded program exercising arithmetic, the heap, stack slots
   and calls — no concurrency, no bug. *)
let straightline_program () =
  B.build ~main:"main" @@ fun b ->
  B.global b "sum" (Value.Int 0);
  (B.func b "add_twice" ~params:[ "x" ] @@ fun f ->
   B.label f "entry";
   B.add f "y" (B.reg "x") (B.reg "x");
   B.ret f (Some (B.reg "y")));
  B.func b "main" ~params:[] @@ fun f ->
  B.label f "entry";
  B.move f "a" (B.int 21);
  B.call f ~into:"d" "add_twice" [ B.reg "a" ];
  B.store f (Instr.Global "sum") (B.reg "d");
  B.load f "s" (Instr.Global "sum");
  B.assert_ f (B.reg "s") ~msg:"sum is non-zero";
  B.output f "sum=%v" [ B.reg "s" ];
  B.exit_ f

(* Fig 9 (FFT) shape: thread 1 reads a shared timestamp too early; the
   oracle assert turns the wrong output into a detectable failure. *)
let order_violation_program ~buggy () =
  B.build ~main:"main" @@ fun b ->
  B.global b "end_time" (Value.Int 0);
  (B.func b "reporter" ~params:[] @@ fun f ->
   B.label f "entry";
   if not buggy then B.sleep f 40;
   B.load f "tmp" (Instr.Global "end_time");
   B.binop f "ok" Instr.Gt (B.reg "tmp") (B.int 0);
   B.assert_ f ~oracle:true (B.reg "ok") ~msg:"end_time must be positive";
   B.output f "end=%v" [ B.reg "tmp" ];
   B.ret f None);
  (B.func b "timer" ~params:[] @@ fun f ->
   B.label f "entry";
   if buggy then B.sleep f 40;
   B.store f (Instr.Global "end_time") (B.int 99);
   B.ret f None);
  B.func b "main" ~params:[] @@ fun f ->
  B.label f "entry";
  B.spawn f "t1" "reporter" [];
  B.spawn f "t2" "timer" [];
  B.join f (B.reg "t1");
  B.join f (B.reg "t2");
  B.exit_ f

(* Fig 10 (Mozilla XPCOM) shape: the dereference happens in a callee whose
   region is locally unrecoverable; recovery must be inter-procedural. *)
let interproc_segfault_program ~buggy () =
  B.build ~main:"main" @@ fun b ->
  B.global b "mThd" Value.Null;
  (B.func b "get_state" ~params:[ "thd" ] @@ fun f ->
   B.label f "entry";
   B.load_idx f "st" (B.reg "thd") (B.int 0);
   B.ret f (Some (B.reg "st")));
  (B.func b "getter" ~params:[] @@ fun f ->
   B.label f "entry";
   if not buggy then B.sleep f 80;
   B.load f "p" (Instr.Global "mThd");
   B.call f ~into:"tmp" "get_state" [ B.reg "p" ];
   B.output f "state=%v" [ B.reg "tmp" ];
   B.ret f None);
  (B.func b "initer" ~params:[] @@ fun f ->
   B.label f "entry";
   if buggy then B.sleep f 60;
   B.alloc f "obj" (B.int 2);
   B.store_idx f (B.reg "obj") (B.int 0) (B.int 7);
   B.store f (Instr.Global "mThd") (B.reg "obj");
   B.ret f None);
  B.func b "main" ~params:[] @@ fun f ->
  B.label f "entry";
  B.spawn f "t1" "getter" [];
  B.spawn f "t2" "initer" [];
  B.join f (B.reg "t1");
  B.join f (B.reg "t2");
  B.exit_ f

(* Fig 11 (HawkNL) shape: two threads acquire two locks in opposite orders.
   Thread 2's outer region contains the first acquisition, so ConAir can
   time out on the inner lock, release the outer one and retry. *)
let deadlock_program ~buggy () =
  B.build ~main:"main" @@ fun b ->
  B.mutex b "nlock";
  B.mutex b "slock";
  B.global b "n_sockets" (Value.Int 3);
  (B.func b "closer" ~params:[] @@ fun f ->
   B.label f "entry";
   B.lock f (B.mutex_ref "nlock");
   if buggy then B.sleep f 30;
   (* driver->Close(): a destroying operation between the two locks *)
   B.store f (Instr.Global "n_sockets") (B.int 2);
   B.lock f (B.mutex_ref "slock");
   B.unlock f (B.mutex_ref "slock");
   B.unlock f (B.mutex_ref "nlock");
   B.ret f None);
  (B.func b "shutdown" ~params:[] @@ fun f ->
   B.label f "entry";
   if not buggy then B.sleep f 80;
   B.lock f (B.mutex_ref "slock");
   B.load f "n" (Instr.Global "n_sockets");
   B.binop f "has" Instr.Gt (B.reg "n") (B.int 0);
   B.branch f (B.reg "has") "do_lock" "out";
   B.label f "do_lock";
   B.lock f (B.mutex_ref "nlock");
   B.unlock f (B.mutex_ref "nlock");
   B.jump f "out";
   B.label f "out";
   B.unlock f (B.mutex_ref "slock");
   B.ret f None);
  B.func b "main" ~params:[] @@ fun f ->
  B.label f "entry";
  B.spawn f "t1" "closer" [];
  B.spawn f "t2" "shutdown" [];
  B.join f (B.reg "t1");
  B.join f (B.reg "t2");
  B.exit_ f
