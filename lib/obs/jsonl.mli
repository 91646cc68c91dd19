(** Streaming JSONL (one JSON object per line) serialization of the
    runtime's observation stream.

    The event encoding is canonical: every engine feeds the same
    {!Conair_runtime.Event.t} values to {!observer}, so the differential
    guarantee of [test_fast_exec] extends to the serialized telemetry —
    byte-identical event logs from identical streams.

    A log starts with one [meta] record (["type": "meta"]) describing the
    run, followed by one ["type": "event"] record per trace event, in
    occurrence order. *)

open Conair_runtime

(** The caller's identification of the run being logged. *)
type run_meta = {
  app : string;  (** benchmark/app name, or a caller-chosen label *)
  variant : string;  (** e.g. "buggy" / "clean"; "" omits the field *)
  seed : int option;  (** random-scheduler seed, when one was used *)
}

val run_meta : ?variant:string -> ?seed:int -> string -> run_meta

val failure_kind_name : Conair_ir.Instr.failure_kind -> string
(** ["assert"], ["wrong-output"], ["segfault"] or ["deadlock"]: the
    failure-kind vocabulary of every JSON document. *)

val config_json : Machine.config -> Json.t
(** The execution-affecting knobs (policy, fuel, max_retries, deadlock
    detection, perturbation) as a JSON object. *)

val policy_of_json : Json.t -> (Sched.policy, string) result

val config_of_json : Json.t -> (Machine.config, string) result
(** Decode a {!config_json} object; fields absent from the object keep
    their [Machine.default_config] value, so older logs stay loadable.
    The inverse of {!config_json} — the foundation of the self-contained
    schedule logs of [Conair_replay]. *)

val meta_fields :
  engine:Engine.t -> hardened:bool -> run_meta -> (string * Json.t) list
(** [app], [variant] (when not [""]), [seed] (when given), [engine] and
    [hardened]: the identification both the meta record and the run
    report start with. [engine] is the engine the run executed on;
    [hardened] says whether a mode hardened the program first. *)

val meta_json :
  ?config:Machine.config ->
  engine:Engine.t ->
  hardened:bool ->
  run_meta ->
  Json.t
(** The header record: [{"type":"meta","app":...,"variant":...,"seed":...,
    "engine":...,"hardened":...,"config":{...}}]. The config subobject
    captures the remaining knobs that affect execution (scheduling policy
    and its seed, fuel, max_retries, deadlock detection...), making the
    log self-describing. *)

(** A record writer: [write] receives each record as it is produced.
    The channel and buffer writers encode each one compactly as one
    line. *)
type writer = { write : Json.t -> unit }

val channel_writer : out_channel -> writer
val buffer_writer : Buffer.t -> writer

val observer : ?meta:Json.t -> writer -> Event.observer
(** Write [meta] (a {!meta_json} record) at once, when given, then
    encode each event of the run to its records as it happens, as
    [{"type":"event","ev":<name>,"step":...,"tid":...,...}]:

    - a {!Event.Step} is a ["schedule"], preceded by a ["wake"] when the
      thread was a sleeper; a {!Event.Wake} is a ["wake"] of the woken
      thread;
    - a {!Event.Request} or {!Event.Wait} is a ["block"] (a wait's
      ["lock"] is ["event:"] and the event name);
    - a forced {!Event.Release} is a ["compensate_lock"];
    - a {!Event.Failed} of a hardened site ([site_id >= 0]) is a
      ["fail_stop"];
    - spawns, thread exits, outputs, checkpoints, failure detections,
      rollbacks, freed blocks and recoveries keep their own names.

    Decisions, acquisitions, plain releases, joins, idle ticks, accesses
    and unhardened failures write nothing. Consumes sync and per-step
    events. *)
