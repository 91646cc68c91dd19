(* Tests for the Mir concrete syntax: emit/parse round-trips on every
   benchmark (original and hardened), parse-error reporting, and the
   parsed program behaving identically to the built one. *)

open Conair.Ir
open Test_util
module Spec = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry

let parse_exn src =
  match Parse.program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %a" Parse.pp_error e

(* Round-trip: parse(emit p) must serialize back to the same text, and the
   parsed program must validate. *)
let roundtrip_program name p =
  let text1 = Emit.program p in
  let p2 = parse_exn text1 in
  check_valid p2;
  let text2 = Emit.program p2 in
  Alcotest.(check string) (name ^ ": emit/parse round-trip") text1 text2

let roundtrip_benchmarks () =
  List.iter
    (fun (s : Spec.t) ->
      let inst = s.make ~variant:Spec.Buggy ~oracle:true in
      roundtrip_program s.info.name inst.program)
    Registry.all

let roundtrip_hardened () =
  (* Hardened programs contain every pseudo-instruction (checkpoints,
     guards, timed locks); they must round-trip too. *)
  List.iter
    (fun (s : Spec.t) ->
      let inst = s.make ~variant:Spec.Buggy ~oracle:true in
      let h = Conair.harden_exn inst.program Conair.Survival in
      roundtrip_program (s.info.name ^ " hardened") h.hardened.program)
    Registry.all

let parsed_program_runs_identically () =
  let p = order_violation_program ~buggy:true () in
  let p2 = parse_exn (Emit.program p) in
  let h1 = Conair.harden_exn p Conair.Survival in
  let h2 = Conair.harden_exn p2 Conair.Survival in
  let r1 = run_hardened h1 and r2 = run_hardened h2 in
  Alcotest.(check (list string)) "same outputs" r1.outputs r2.outputs;
  Alcotest.(check int) "same steps" r1.stats.steps r2.stats.steps;
  Alcotest.(check int) "same rollbacks" r1.stats.rollbacks r2.stats.rollbacks

let handwritten_source_parses () =
  let src =
    {|
# a tiny demo: reader spawns, waits, reads
global flag = 0
mutex m
main @main

func @reader() {
entry:
  %v = load $flag
  assert %v, "flag must be set"
  output "flag=%v", %v
  return
}

func @main() {
entry:
  lock &m
  store $flag, 1
  unlock &m
  %t = spawn @reader()
  join %t
  exit
}
|}
  in
  let p = parse_exn src in
  check_valid p;
  let r = run p in
  expect_success r;
  Alcotest.(check (list string)) "output" [ "flag=1" ] r.outputs

let parse_errors_have_lines () =
  let cases =
    [
      ("main @main\nfunc @main() {\nentry:\n  %x = frobnicate 1\n}", 4);
      ("main @main\nfunc @main() {\nentry:\n  store $g\n}", 4);
      ("global g = \nmain @main", 1);
      ("main @main\nfunc @main() {\n}", 3);
      (* integer literals that do not fit an int: a global initializer,
         an operand, a negated literal *)
      ("global x = 99999999999999999999999\nmain @main", 1);
      ( "main @main\nfunc @main() {\nentry:\n  %x = add 1, \
         99999999999999999999999\n  exit\n}",
        4 );
      ("main @main\nglobal y = -9223372036854775809", 2);
    ]
  in
  List.iter
    (fun (src, expected_line) ->
      match Parse.program src with
      | Ok _ -> Alcotest.failf "expected a parse error for %S" src
      | Error e ->
          Alcotest.(check int)
            (Printf.sprintf "error line for %S" src)
            expected_line e.line)
    cases;
  (* missing main declaration *)
  match Parse.program "global g = 1" with
  | Ok _ -> Alcotest.fail "missing main accepted"
  | Error _ -> ()

let negative_ints_and_escapes () =
  let src =
    "global g = -42\nmain @main\nfunc @main() {\nentry:\n  output \
     \"a\\\"b\\n\", -7\n  exit\n}"
  in
  let p = parse_exn src in
  (match List.assoc "g" p.globals with
  | Value.Int (-42) -> ()
  | v -> Alcotest.failf "bad global value %a" Value.pp v);
  roundtrip_program "negatives and escapes" p

let suites =
  [
    ( "text-format",
      [
        case "benchmarks round-trip" roundtrip_benchmarks;
        case "hardened programs round-trip" roundtrip_hardened;
        case "parsed program runs identically" parsed_program_runs_identically;
        case "hand-written source parses and runs" handwritten_source_parses;
        case "parse errors carry line numbers" parse_errors_have_lines;
        case "negative ints and string escapes" negative_ints_and_escapes;
      ] );
  ]
