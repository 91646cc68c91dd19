(** The flight bundle: a schedule log's window plus the machine's
    post-mortem state — the self-contained JSON document dumped from a
    flight-recorder ring when a run fails, or on explicit request.

    A bundle is a {!Schedule_log.t} whose [decisions] are the retained
    tail of the run's decision stream and whose [preemptions] are the
    absolute ordinals of the preemptive switches inside it, plus the
    window's start, why it was dumped, per-thread status and held
    locksets, the recent sync/recovery events and the recovery-episode
    spans. Header, tail chunks and trailer go through the schedule log's
    encoders and decoder. Both engines produce byte-identical
    bundles on the same run, modulo the ["engine"] field itself.

    Because runs are deterministic from (program, config, engine), the
    bundle doubles as a regeneration recipe: {!recover_log} re-runs it
    into a full schedule log verified against the window, after which
    strict replay, directed replay and minimization apply unchanged. *)

open Conair_runtime

(** One retained sync/recovery event of the ring ({!Flight_ring.events}). *)
type event = {
  bv_kind : string;
      (** ["acquire"], ["block"], ["release"], ["spawn"], ["rollback"],
          ["recovered"] or ["fail"] *)
  bv_step : int;
  bv_tid : int;
  bv_arg : int;  (** site id / child tid / wait flavor; [-1] unused *)
  bv_detail : string;  (** lock/event name or failure message; may be "" *)
}

(** One recovery-episode span (from {!Stats.episode}). *)
type episode = {
  be_site : int;
  be_tid : int;
  be_start : int;
  be_end : int;
  be_retries : int;
}

type t = {
  window : Schedule_log.t;
      (** the run's header and trailer; [decisions] is the retained tail,
          [preemptions] its preemptive switches as absolute ordinals *)
  first : int;  (** absolute ordinal of the first retained decision *)
  reason : string;  (** why the bundle was dumped *)
  threads : (int * string * string list) list;
      (** (tid, status, held locks) per thread, ascending tid *)
  events : event list;  (** oldest first *)
  episodes : episode list;  (** chronological *)
}

val total : t -> int
(** Decisions in the whole run: [first] + the retained count. *)

val flight :
  ?cap:int -> ?reason:string -> ident:Schedule_log.ident -> unit -> t Capture.t
(** The flight-recorder lens: a ring of [cap] decisions (default
    {!Flight_ring.default_capacity}) rides the run, and the finished run
    is packaged as a bundle under [ident], written as given. [reason]
    defaults to ["requested"]. The ring observes decisions and sync
    events only, which keeps the block engine on its compiled phases. *)

val recover_log : ?engine:Engine.t -> t -> (Schedule_log.t, string) result
(** Regenerate a full schedule log from a bundle by deterministic re-run
    under {!Capture.record}. [engine] defaults to the bundle's recorded
    engine. Fails when the bundle carries no program, the embedded
    text's MD5 mismatches, or the re-run's decision stream, preemption
    ordinals or trailer disagree with the window. *)

val to_json : t -> Conair_obs.Json.t
val to_string : t -> string

val of_json : Conair_obs.Json.t -> (t, string) result
(** Decode and check a bundle: everything {!Schedule_log.decode}
    enforces, plus [total = first + retained], a non-empty reason and
    well-formed thread, event and episode rows. *)

val of_string : string -> (t, string) result

val save : t -> string -> unit
(** Write as a single JSON line plus newline. *)

val load : string -> (t, string) result
