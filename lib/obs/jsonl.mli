(** Streaming JSONL (one JSON object per line) serialization of the
    runtime's trace stream.

    The event encoding is canonical: both engines ([Machine] and
    [Ref_machine]) feed the same {!Conair_runtime.Trace.event} values
    through {!event_json}, so the differential guarantee of
    [test_fast_exec] extends to the serialized telemetry — byte-identical
    event logs from byte-identical traces.

    A log starts with one [meta] record (["type": "meta"]) describing the
    run, followed by one ["type": "event"] record per trace event, in
    occurrence order. *)

open Conair_runtime

(** Identification of the run being logged, written as the first line. *)
type run_meta = {
  app : string;  (** benchmark/app name, or a caller-chosen label *)
  variant : string;  (** e.g. "buggy" / "clean"; "" omits the field *)
  seed : int option;  (** random-scheduler seed, when one was used *)
  engine : string;  (** "fast" ([Machine]) or "ref" ([Ref_machine]) *)
  hardened : bool;  (** whether the run executes a hardened program *)
}

val run_meta :
  ?variant:string -> ?seed:int -> ?engine:string -> ?hardened:bool ->
  string -> run_meta
(** [engine] defaults to ["fast"], [hardened] to [false]. *)

val config_json : Machine.config -> Json.t
(** The execution-affecting knobs (policy, fuel, max_retries, deadlock
    detection, perturbation) as a JSON object. *)

val policy_of_json : Json.t -> (Sched.policy, string) result

val config_of_json : Json.t -> (Machine.config, string) result
(** Decode a {!config_json} object; fields absent from the object keep
    their [Machine.default_config] value, so older logs stay loadable.
    The inverse of {!config_json} — the foundation of the self-contained
    schedule logs of [Conair_replay]. *)

val meta_json : ?config:Machine.config -> run_meta -> Json.t
(** The header record: [{"type":"meta","app":...,"variant":...,"seed":...,
    "engine":...,"hardened":...,"config":{...}}]. The config subobject
    captures the remaining knobs that affect execution (scheduling policy
    and its seed, fuel, max_retries, deadlock detection...), making the
    log self-describing. *)

val event_json : Trace.event -> Json.t
(** One trace event as [{"type":"event","ev":<name>,"step":...,...}]. *)

val event_line : Trace.event -> string
(** [event_json] encoded compactly — one JSONL line, no newline. *)

(** A line-oriented writer: [write] receives complete JSON lines
    (newline excluded). Writers for channels and buffers are provided. *)
type writer = { write : string -> unit }

val channel_writer : out_channel -> writer
val buffer_writer : Buffer.t -> writer

val write_json : writer -> Json.t -> unit
(** Encode compactly and emit as one line. *)

val sink :
  ?config:Machine.config ->
  ?meta:run_meta ->
  ?store:bool ->
  writer ->
  Trace.sink
(** A trace sink that streams every event to [writer] as it is recorded.
    When [meta] is given, the header record is written immediately.
    [store] defaults to [false]: streaming does not retain events in
    memory unless asked (pass [~store:true] to also keep them for span
    building after the run). Attach to a run with [Trace.observer]. *)

val events_to_lines : ?config:Machine.config -> ?meta:run_meta ->
  Trace.event list -> string list
(** Batch serialization of an already-collected event list — the same
    lines [sink] would have streamed. *)
