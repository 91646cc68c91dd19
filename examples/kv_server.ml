(* A mini key-value server written in Mir, hardened with ConAir — the
   adoption scenario the paper targets: you ship the hardened binary, a
   hidden order violation fires in production, and the server silently
   recovers instead of crashing.

   The server has a writer thread applying a batch of PUTs and a reader
   thread serving GETs; the reader may consult the shared index pointer
   before the writer has published it (an order violation -> segfault).
   The run prints the recovery trace so you can watch the rollback.

   Run with:  dune exec examples/kv_server.exe *)

open Conair.Ir
module B = Builder
module Span = Conair.Obs.Span
module Outcome = Conair.Runtime.Outcome

let program =
  B.build ~main:"main" @@ fun b ->
  B.global b "index" Value.Null;
  B.global b "requests_served" (Value.Int 0);
  Conair_bugbench.Mirlib.add_table_funcs b;
  Conair_bugbench.Mirlib.add_compute_kernel b;
  (* The writer: build the index, apply the PUT batch, publish. *)
  (B.func b "writer" ~params:[] @@ fun f ->
   B.label f "entry";
   B.call f ~into:"idx" "table_new" [ B.int 32 ];
   B.move f "k" (B.int 0);
   B.label f "puts";
   B.lt f "more" (B.reg "k") (B.int 10);
   B.branch f (B.reg "more") "put" "publish";
   B.label f "put";
   B.mul f "v" (B.reg "k") (B.reg "k");
   B.call f "table_put" [ B.reg "idx"; B.int 32; B.reg "k"; B.reg "v" ];
   B.call f ~into:"w" "compute_kernel" [ B.int 40 ];
   B.add f "k" (B.reg "k") (B.int 1);
   B.jump f "puts";
   B.label f "publish";
   B.store f (Instr.Global "index") (B.reg "idx");
   B.ret f None);
  (* The reader: serve GET 7 — possibly before the index exists. *)
  (B.func b "reader" ~params:[] @@ fun f ->
   B.label f "entry";
   B.load f "idx" (Instr.Global "index");
   B.load_idx f "v" (B.reg "idx") (B.int 7);
   B.store f (Instr.Global "requests_served") (B.int 1);
   B.output f "GET 7 -> %v" [ B.reg "v" ];
   B.ret f None);
  B.func b "main" ~params:[] @@ fun f ->
  B.label f "entry";
  B.spawn f "t1" "reader" [];
  B.spawn f "t2" "writer" [];
  B.join f (B.reg "t1");
  B.join f (B.reg "t2");
  B.exit_ f

let () =
  print_endline "=== Unhardened server, unlucky schedule ===";
  let r = Conair.execute program in
  Format.printf "outcome: %a@." Outcome.pp r.outcome;

  print_endline "\n=== Hardened server, same schedule (with recovery trace) ===";
  let h = Conair.harden_exn program Conair.Survival in
  let rr = Conair.run_observed h in
  Format.printf "outcome: %a@." Outcome.pp rr.run.outcome;
  List.iter (Format.printf "served:  %s@.") rr.run.outputs;
  Format.printf "@[<v 2>recovery trace:@ %a@]@." Span.pp_recovery_summary
    rr.spans
