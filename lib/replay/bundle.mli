(** Flight-recorder bundles as replay artifacts.

    {!capture} runs a program with a flight ring attached and packages
    the ring plus the machine's post-mortem state as a
    {!Conair_obs.Flight.t} diagnostic bundle. {!recover_log} re-runs a
    bundle's embedded program under its embedded config with the full
    recorder attached, verifies the re-run against the recorded tail
    (decision suffix, preemption ordinals, trailer — any disagreement
    rejects the bundle) and returns an ordinary schedule log, after which
    strict replay, directed replay and minimization apply unchanged. *)

open Conair_ir
open Conair_runtime

val capture :
  ?engine:Engine.t ->
  ?config:Machine.config ->
  ?meta:Machine.meta ->
  ?cap:int ->
  ?embed_program:bool ->
  ?reason:string ->
  ident:Schedule_log.ident ->
  Program.t ->
  Engine.machine * Outcome.t * Conair_obs.Flight.t
(** Run [program] to completion with a flight ring of [cap] decisions
    (default {!Flight_ring.default_capacity}) attached as its observer,
    and build the diagnostic bundle. [engine] defaults to [Fast],
    [config] to {!Machine.default_config}, [embed_program] to [true],
    [reason] to ["requested"]. The finished machine is returned so the
    caller can inspect further state. *)

val recover_log :
  ?engine:Engine.t -> Conair_obs.Flight.t -> (Schedule_log.t, string) result
(** Regenerate a full schedule log from a bundle by deterministic re-run.
    [engine] defaults to the bundle's recorded engine. Fails when the
    bundle carries no program, the embedded text's MD5 mismatches, or
    the re-run's decision suffix / tail preemptions / trailer disagree
    with what the ring retained. *)
