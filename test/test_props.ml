(* Property-based tests (QCheck, registered as alcotest cases).

   The headline properties:

   - P1  semantic transparency: hardening never changes the behaviour of a
         program that does not fail (same outputs, same result);
   - P2  region-walk safety: on every entry-to-site path, a reexecution
         point follows the last idempotency-destroying instruction — the
         invariant that makes rollback correct;
   - P3  recovery: randomly generated racy readers always recover under
         ConAir, with zero rollback-safety violations and the right output;
   - P4  the interpreter's arithmetic agrees with a reference evaluator;
   - P5  the heap model agrees with a reference map model;
   - P6  scheduling determinism: a fixed seed reproduces a run exactly. *)

open Conair.Ir
open Conair.Analysis
module Outcome = Conair.Runtime.Outcome
module Machine = Conair.Runtime.Machine
module Engine = Conair.Runtime.Engine
module Sched = Conair.Runtime.Sched
module Heap = Conair.Runtime.Heap

let qtest ?(count = 100) name gen print prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name (QCheck.make ~print gen) prop)

let config = { Machine.default_config with fuel = 200_000 }

(* --- P4: arithmetic agrees with the reference ----------------------- *)

let arith_reference =
  qtest "interpreter arithmetic matches reference" Gen.arith_spec_gen
    Gen.arith_spec_print (fun ops ->
      QCheck.assume (ops <> []);
      let p, expected = Gen.arith_program ops in
      let r = Conair.execute ~config p in
      Outcome.is_success r.outcome
      && r.outputs = [ string_of_int expected ])

(* --- P1: semantic transparency -------------------------------------- *)

let transparency_straightline =
  qtest "hardening preserves non-failing straight-line programs"
    Gen.arith_spec_gen Gen.arith_spec_print (fun ops ->
      QCheck.assume (ops <> []);
      let p, _ = Gen.arith_program ops in
      let original = Conair.execute ~config p in
      let h = Conair.harden_exn p Conair.Survival in
      let hardened = Conair.execute_hardened ~config h in
      original.outputs = hardened.outputs
      && Outcome.is_success hardened.outcome
      && hardened.stats.rollbacks = 0)

let transparency_racy_clean =
  (* With the writer made instant, the racy programs do not fail; the
     hardened run must match the original exactly. *)
  qtest "hardening preserves clean racy programs" Gen.racy_spec_gen
    Gen.racy_spec_print (fun s ->
      let s = { s with Gen.writer_delay = 0 } in
      let p = Gen.racy_program s in
      let original = Conair.execute ~config p in
      (* transparency is only claimed for runs where the original does not
         fail; when it does fail, recovery legitimately changes the result *)
      QCheck.assume (Outcome.is_success original.outcome);
      let h = Conair.harden_exn p Conair.Survival in
      let hardened = Conair.execute_hardened ~config h in
      original.outputs = hardened.outputs)

(* --- P2: region-walk safety ------------------------------------------ *)

let find_assert_site p =
  List.find
    (fun (s : Site.t) -> s.kind = Instr.Wrong_output || s.kind = Instr.Assert_fail)
    (List.filter
       (fun (s : Site.t) -> s.msg = "the site")
       (Find_sites.survival p))

let region_safety =
  qtest ~count:300 "a point follows the last destroying op on every path"
    Gen.cfg_spec_gen Gen.cfg_spec_print (fun spec ->
      let p = Gen.cfg_program spec in
      let f = Program.func_exn p (Ident.Fname.v "main") in
      let site = find_assert_site p in
      let cfg = Cfg.of_func f in
      let region = Region.of_site cfg site in
      let paths = Gen.paths_to_site f ~site_iid:site.iid ~cap:400 in
      List.for_all
        (fun path ->
          let last_destroying =
            List.fold_left
              (fun acc (i : Instr.t) ->
                if Instr.is_destroying i then Some i.iid else acc)
              None path
          in
          match last_destroying with
          | Some d ->
              List.exists
                (Region.point_equal (Region.After d))
                region.points
          | None ->
              List.exists
                (Region.point_equal (Region.Entry (Ident.Fname.v "main")))
                region.points)
        paths)

let region_points_follow_destroying =
  qtest ~count:300 "After-points only follow destroying instructions"
    Gen.cfg_spec_gen Gen.cfg_spec_print (fun spec ->
      let p = Gen.cfg_program spec in
      let f = Program.func_exn p (Ident.Fname.v "main") in
      let site = find_assert_site p in
      let region = Region.of_site (Cfg.of_func f) site in
      List.for_all
        (function
          | Region.Entry _ -> true
          | Region.After iid -> (
              match Program.find_instr p iid with
              | Some (_, b, i) -> Instr.is_destroying b.Block.instrs.(i)
              | None -> false))
        region.points)

let region_contains_no_destroying =
  qtest ~count:300 "region instructions are never destroying"
    Gen.cfg_spec_gen Gen.cfg_spec_print (fun spec ->
      let p = Gen.cfg_program spec in
      let f = Program.func_exn p (Ident.Fname.v "main") in
      let site = find_assert_site p in
      let region = Region.of_site (Cfg.of_func f) site in
      Region.Iid_set.for_all
        (fun iid ->
          match Program.find_instr p iid with
          | Some (_, b, i) -> not (Instr.is_destroying b.Block.instrs.(i))
          | None -> false)
        region.region_iids)

let region_deterministic =
  qtest ~count:150 "the region walk is deterministic" Gen.cfg_spec_gen
    Gen.cfg_spec_print (fun spec ->
      let p = Gen.cfg_program spec in
      let f = Program.func_exn p (Ident.Fname.v "main") in
      let site = find_assert_site p in
      let r1 = Region.of_site (Cfg.of_func f) site in
      let r2 = Region.of_site (Cfg.of_func f) site in
      List.length r1.points = List.length r2.points
      && List.for_all2 Region.point_equal r1.points r2.points
      && Region.Iid_set.equal r1.region_iids r2.region_iids)

(* --- P3: racy programs always recover --------------------------------- *)

let racy_recovers =
  qtest ~count:150 "racy readers recover under ConAir" Gen.racy_spec_gen
    Gen.racy_spec_print (fun s ->
      let p = Gen.racy_program s in
      let h = Conair.harden_exn p Conair.Survival in
      let r = Conair.execute_hardened ~config h in
      Outcome.is_success r.outcome
      && r.outputs = [ string_of_int s.expected ]
      && r.stats.tracecheck_violations = 0)

let racy_recovers_random_schedules =
  qtest ~count:100 "racy readers recover under random schedules"
    QCheck.Gen.(pair Gen.racy_spec_gen (int_range 0 1000))
    (fun (s, seed) ->
      Printf.sprintf "%s seed=%d" (Gen.racy_spec_print s) seed)
    (fun (s, seed) ->
      let p = Gen.racy_program s in
      let h = Conair.harden_exn p Conair.Survival in
      let config = { config with policy = Sched.Random seed } in
      let r = Conair.execute_hardened ~config h in
      Outcome.is_success r.outcome
      && r.outputs = [ string_of_int s.expected ]
      && r.stats.tracecheck_violations = 0)

(* --- P5: heap model vs reference --------------------------------------- *)

let heap_reference =
  qtest ~count:200 "heap agrees with a reference model" Gen.heap_ops_gen
    Gen.heap_ops_print (fun ops ->
      let h = Heap.create () in
      (* reference: block index -> (live, cells) *)
      let reference : (int, bool ref * int array) Hashtbl.t =
        Hashtbl.create 16
      in
      let ptrs = ref [] in
      (* allocation order, oldest first *)
      let nth i =
        let l = List.rev !ptrs in
        if l = [] then None else Some (List.nth l (i mod List.length l))
      in
      List.for_all
        (fun op ->
          match op with
          | Gen.H_alloc n ->
              let p = Heap.alloc h n in
              ptrs := p :: !ptrs;
              Hashtbl.replace reference p.Value.block
                (ref true, Array.make n 0);
              true
          | Gen.H_free i -> (
              match nth i with
              | None -> true
              | Some p ->
                  let live, _ = Hashtbl.find reference p.Value.block in
                  let expect_ok = !live in
                  let got = Heap.free h (Value.Ptr p) in
                  if expect_ok then begin
                    live := false;
                    got = Ok ()
                  end
                  else Result.is_error got)
          | Gen.H_store (i, o, v) -> (
              match nth i with
              | None -> true
              | Some p ->
                  let live, cells = Hashtbl.find reference p.Value.block in
                  let ok = !live && o < Array.length cells in
                  let got = Heap.store h (Value.Ptr p) o (Value.Int v) in
                  if ok then begin
                    cells.(o) <- v;
                    got = Ok ()
                  end
                  else Result.is_error got)
          | Gen.H_load (i, o) -> (
              match nth i with
              | None -> true
              | Some p ->
                  let live, cells = Hashtbl.find reference p.Value.block in
                  let ok = !live && o < Array.length cells in
                  let got = Heap.load h (Value.Ptr p) o in
                  if ok then got = Ok (Value.Int cells.(o))
                  else Result.is_error got))
        ops)

(* --- P6: determinism ---------------------------------------------------- *)

let determinism =
  qtest ~count:60 "a seed reproduces a run exactly"
    QCheck.Gen.(pair Gen.racy_spec_gen (int_range 0 500))
    (fun (s, seed) ->
      Printf.sprintf "%s seed=%d" (Gen.racy_spec_print s) seed)
    (fun (s, seed) ->
      let p = Gen.racy_program s in
      let h = Conair.harden_exn p Conair.Survival in
      let config = { config with policy = Sched.Random seed } in
      let once () =
        let r = Conair.execute_hardened ~config h in
        ( Outcome.to_string r.outcome,
          r.outputs,
          r.stats.steps,
          r.stats.rollbacks,
          r.stats.checkpoints )
      in
      once () = once ())

(* --- Value-level properties --------------------------------------------- *)

let value_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun n -> Value.Int n) (int_range (-1000) 1000));
        (2, map (fun b -> Value.Bool b) bool);
        (2, map2 (fun b o -> Value.Ptr { block = b; offset = o })
             (int_range 0 50) (int_range 0 10));
        (1, return Value.Null);
        (1, map (fun n -> Value.Str (string_of_int n)) (int_range 0 99));
      ])

let value_equal_reflexive =
  qtest ~count:200 "value equality is reflexive" value_gen Value.to_string
    (fun v -> Value.equal v v)

let value_equal_symmetric =
  qtest ~count:200 "value equality is symmetric"
    (QCheck.Gen.pair value_gen value_gen)
    (fun (a, b) -> Value.to_string a ^ " / " ^ Value.to_string b)
    (fun (a, b) -> Value.equal a b = Value.equal b a)

(* --- text-format round-trips on random programs ------------------------- *)

let emit_parse_roundtrip =
  qtest ~count:150 "emit/parse round-trips random programs"
    QCheck.Gen.(pair Gen.arith_spec_gen Gen.racy_spec_gen)
    (fun (a, r) ->
      Printf.sprintf "%s / %s" (Gen.arith_spec_print a)
        (Gen.racy_spec_print r))
    (fun (a, r) ->
      QCheck.assume (a <> []);
      let check p =
        let text1 = Conair.Ir.Emit.program p in
        match Conair.Ir.Parse.program text1 with
        | Error _ -> false
        | Ok p2 -> Conair.Ir.Emit.program p2 = text1
      in
      check (fst (Gen.arith_program a)) && check (Gen.racy_program r))

let hardened_roundtrip_behaves =
  qtest ~count:60 "hardened round-tripped programs behave identically"
    Gen.racy_spec_gen Gen.racy_spec_print (fun s ->
      let p = Gen.racy_program s in
      let h = Conair.harden_exn p Conair.Survival in
      match Conair.Ir.Parse.program (Conair.Ir.Emit.program h.hardened.program) with
      | Error _ -> false
      | Ok p2 ->
          let meta = Conair.Runtime.Machine.meta_of_harden h.hardened in
          let m1, o1 =
            Engine.run_program ~config ~meta Engine.Block h.hardened.program
          in
          let m2, o2 = Engine.run_program ~config ~meta Engine.Block p2 in
          o1 = o2 && Engine.outputs m1 = Engine.outputs m2)

(* --- extension properties ------------------------------------------------ *)

let annotate_transparent =
  qtest ~count:80 "null-check annotation preserves non-failing runs"
    Gen.racy_spec_gen Gen.racy_spec_print (fun s ->
      let p = Gen.racy_program s in
      let p', _ = Conair.Transform.Annotate.add_null_checks p in
      let r0 = Conair.execute ~config p in
      let r1 = Conair.execute ~config p' in
      (* the annotation may catch a failure *earlier* (as an assert rather
         than a segfault), but never changes a successful run *)
      (not (Outcome.is_success r0.outcome))
      || (Outcome.is_success r1.outcome && r0.outputs = r1.outputs))

let prune_safe_transparent =
  qtest ~count:80 "safe-site pruning preserves hardened behaviour"
    Gen.racy_spec_gen Gen.racy_spec_print (fun s ->
      let p = Gen.racy_program s in
      let h0 = Conair.harden_exn p Conair.Survival in
      let h1 =
        Conair.harden_exn
          ~analysis:
            { Conair.Analysis.Plan.default_options with prune_safe = true }
          p Conair.Survival
      in
      let r0 = Conair.execute_hardened ~config h0 in
      let r1 = Conair.execute_hardened ~config h1 in
      Outcome.is_success r0.outcome = Outcome.is_success r1.outcome
      && r0.outputs = r1.outputs)

let wait_graph_equivalent_without_deadlocks =
  qtest ~count:80 "wait-graph detection is inert without lock cycles"
    Gen.racy_spec_gen Gen.racy_spec_print (fun s ->
      let p = Gen.racy_program s in
      let h = Conair.harden_exn p Conair.Survival in
      let run detection =
        let config =
          { config with Machine.deadlock_detection = detection }
        in
        let r = Conair.execute_hardened ~config h in
        (Outcome.is_success r.outcome, r.outputs, r.stats.steps)
      in
      run Machine.Timeout_based = run Machine.Wait_graph)

let lowering_transparent =
  qtest ~count:80 "own-slot spill lowering preserves program results"
    Gen.arith_spec_gen Gen.arith_spec_print (fun ops ->
      QCheck.assume (ops <> []);
      let p, expected = Gen.arith_program ops in
      let lowered = Conair.Transform.Lower.spill p in
      let config = { config with Machine.verify_rollbacks = false } in
      let r = Conair.execute ~config lowered in
      Outcome.is_success r.outcome && r.outputs = [ string_of_int expected ])

let lowered_hardened_still_recovers =
  qtest ~count:60 "hardened-then-lowered racy programs still recover"
    Gen.racy_spec_gen Gen.racy_spec_print (fun s ->
      let p = Gen.racy_program s in
      let h = Conair.harden_exn p Conair.Survival in
      let lowered = Conair.Transform.Lower.spill h.hardened.program in
      let config = { config with Machine.verify_rollbacks = false } in
      let meta = Machine.meta_of_harden h.Conair.hardened in
      let m, outcome = Engine.run_program ~config ~meta Engine.Block lowered in
      Outcome.is_success outcome
      && Engine.outputs m = [ string_of_int s.expected ])

let suites =
  [
    ( "properties",
      [
        arith_reference;
        emit_parse_roundtrip;
        hardened_roundtrip_behaves;
        annotate_transparent;
        prune_safe_transparent;
        wait_graph_equivalent_without_deadlocks;
        lowering_transparent;
        lowered_hardened_still_recovers;
        transparency_straightline;
        transparency_racy_clean;
        region_safety;
        region_points_follow_destroying;
        region_contains_no_destroying;
        region_deterministic;
        racy_recovers;
        racy_recovers_random_schedules;
        heap_reference;
        determinism;
        value_equal_reflexive;
        value_equal_symmetric;
      ] );
  ]
