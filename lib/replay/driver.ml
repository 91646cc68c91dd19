(* Package a recorded run into a schedule log; replay a log on any
   engine with divergence detection; verify a replay against the
   recorded trailer. *)

open Conair_ir
open Conair_runtime
module Log = Schedule_log

(** What both engines report about a finished execution. *)
type result_bundle = {
  rb_outcome : Outcome.t;
  rb_outputs : string list;
  rb_stats : Stats.t;
  rb_steps : int;
}

type divergence = {
  dv_decision : int;  (** ordinal of the disagreeing decision *)
  dv_step : int;  (** machine virtual time when it was detected *)
  dv_expected : int option;  (** recorded tid; [None] = log exhausted *)
  dv_actual : int list;  (** the eligible set the replay offered *)
  dv_reason : string;
}

type error =
  | Program_mismatch of { expected_md5 : string; got_md5 : string }
  | No_program of string
  | Diverged of divergence

let error_to_string = function
  | Program_mismatch { expected_md5; got_md5 } ->
      Printf.sprintf
        "program mismatch: log records MD5 %s, supplied program has %s"
        expected_md5 got_md5
  | No_program e -> e
  | Diverged d ->
      Printf.sprintf
        "diverged at decision %d (step %d): %s — recorded %s, eligible [%s]"
        d.dv_decision d.dv_step d.dv_reason
        (match d.dv_expected with
        | Some tid -> "tid " ^ string_of_int tid
        | None -> "end of log")
        (String.concat "; " (List.map string_of_int d.dv_actual))

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

(* Package a finished run from the ring that observed it: the header,
   the ring's window of the decision stream — the whole stream for an
   unbounded ring — and the trailer, read off the finished machine. The
   log's replays in this process run the recorded program itself. *)
let log_of_run ~config ?meta ~ident ~program ring m outcome =
  let text = Emit.program program in
  let stats = Engine.stats m in
  let log =
    {
      Log.ident;
      engine = Engine.name (Engine.engine_of m);
      config;
      program_md5 = Log.digest text;
      program_text = Some text;
      fail_blocks = Log.fail_blocks_of_meta meta;
      decisions = Flight_ring.tail ring;
      preemptions = Flight_ring.tail_preemptions ring;
      steps = Engine.steps m;
      instrs = stats.Stats.instrs;
      rollbacks = stats.Stats.rollbacks;
      outcome;
      outputs = Engine.outputs m;
    }
  in
  Log.remember_program log program;
  log

let result_of m outcome =
  {
    rb_outcome = outcome;
    rb_outputs = Engine.outputs m;
    rb_stats = Engine.stats m;
    rb_steps = Engine.steps m;
  }

(* ------------------------------------------------------------------ *)
(* Replaying                                                           *)
(* ------------------------------------------------------------------ *)

(* Resolve the program to execute: the supplied one (verified against the
   recorded MD5) or the log's embedded one. *)
let resolve_program ?program (log : Log.t) =
  match program with
  | Some p ->
      let got = Log.digest_program p in
      if got <> log.Log.program_md5 then
        Error (Program_mismatch { expected_md5 = log.Log.program_md5; got_md5 = got })
      else Ok p
  | None -> (
      match Log.program log with
      | Ok p -> Ok p
      | Error e -> Error (No_program e))

let resolve_meta ?meta (log : Log.t) =
  match meta with Some _ -> meta | None -> Log.machine_meta log

let exhausted_reason = function
  | None -> "the execution needs more decisions than were recorded"
  | Some _ -> "the recorded thread is not eligible"

let replay ?(engine = Engine.default) ?program ?meta (log : Log.t) =
  match resolve_program ?program log with
  | Error e -> Error e
  | Ok program -> (
      let meta = resolve_meta ?meta log in
      let config = log.Log.config in
      let h = Feed.strict log.Log.decisions in
      let m =
        Engine.create ~config ?meta ~feed:(Feed.strict_feed h) engine program
      in
      match Engine.run m with
      | outcome ->
          let pos = Feed.position h in
          if pos < Array.length log.Log.decisions then
            Error
              (Diverged
                 {
                   dv_decision = pos;
                   dv_step = Engine.steps m;
                   dv_expected = Some log.Log.decisions.(pos);
                   dv_actual = [];
                   dv_reason =
                     "the execution finished before consuming the recorded \
                      schedule";
                 })
          else Ok (result_of m outcome)
      | exception Feed.Diverged d ->
          Error
            (Diverged
               {
                 dv_decision = d.Feed.at;
                 dv_step = Engine.steps m;
                 dv_expected = d.Feed.expected;
                 dv_actual = d.Feed.eligible;
                 dv_reason = exhausted_reason d.Feed.expected;
               }))

(* Directed replay of a log's schedule against a *different* program —
   the fix synthesizer's validation gate: the candidate patch changes
   the program text (so strict replay's MD5 check and decision stream
   are both off the table), but the recorded failure's context switches
   can still be forced at the same per-thread decision counts. The
   directed feed is divergence-safe by construction: between directives
   the current thread keeps running, and when it cannot (say the patch
   made it block on a new lock) control falls to the next eligible
   thread in round-robin order — exactly what "the recorded failing
   schedule now passes or diverges safely" means. *)
let replay_directed ?(engine = Engine.default) ?meta ~program (log : Log.t) =
  let config = log.Log.config in
  let fixed, cand =
    Feed.directives_of ~decisions:log.Log.decisions
      ~preemptions:log.Log.preemptions
  in
  let m =
    Engine.create ~config ?meta
      ~feed:(Feed.directed (Feed.merge_directives fixed cand))
      engine program
  in
  result_of m (Engine.run m)

let check (log : Log.t) (b : result_bundle) =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if b.rb_outcome <> log.Log.outcome then
    err "outcome mismatch: recorded %s, replayed %s"
      (Outcome.to_string log.Log.outcome)
      (Outcome.to_string b.rb_outcome)
  else if b.rb_outputs <> log.Log.outputs then err "output mismatch"
  else if b.rb_steps <> log.Log.steps then
    err "step-count mismatch: recorded %d, replayed %d" log.Log.steps
      b.rb_steps
  else if b.rb_stats.Stats.instrs <> log.Log.instrs then
    err "instruction-count mismatch: recorded %d, replayed %d" log.Log.instrs
      b.rb_stats.Stats.instrs
  else if b.rb_stats.Stats.rollbacks <> log.Log.rollbacks then
    err "rollback-count mismatch: recorded %d, replayed %d" log.Log.rollbacks
      b.rb_stats.Stats.rollbacks
  else Ok ()

let check_run log m outcome = check log (result_of m outcome)
