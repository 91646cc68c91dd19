(** A structured execution trace: scheduling and recovery activity as
    typed events, read off the observation stream ({!Event}). Opt-in
    (attach {!observer} to a run); used by tests to assert event
    ordering and by the CLI's [--trace] to print a recovery audit
    trail. *)

type event =
  | Ev_schedule of { step : int; tid : int }
  | Ev_block of { step : int; tid : int; lock : string }
  | Ev_wake of { step : int; tid : int }
  | Ev_spawn of { step : int; parent : int; child : int }
  | Ev_thread_done of { step : int; tid : int }
  | Ev_output of { step : int; tid : int; text : string }
  | Ev_checkpoint of { step : int; tid : int; ckpt_id : int }
  | Ev_failure_detected of {
      step : int;
      tid : int;
      site_id : int;
      kind : Conair_ir.Instr.failure_kind;
    }
  | Ev_rollback of { step : int; tid : int; site_id : int; retry : int }
  | Ev_compensate_lock of { step : int; tid : int; lock : string }
  | Ev_compensate_block of { step : int; tid : int; block : int }
  | Ev_recovered of { step : int; tid : int; site_id : int }
  | Ev_fail_stop of { step : int; tid : int; site_id : int }

val pp_event : Format.formatter -> event -> unit

type sink

val create : ?emit:(event -> unit) -> ?store:bool -> unit -> sink
(** A sink retains events in memory by default. [emit] installs a
    listener called synchronously on every event as it is recorded — the
    streaming-telemetry hook (e.g. a JSONL file writer or a live metrics
    feed; compose several by closing over both). [~store:false] keeps
    nothing in memory, so an arbitrarily long run can stream its full
    event log in constant space. *)

val record : sink -> event -> unit

val observer : sink -> Event.observer
(** Attach the sink to a run: the trace is a fold over the observation
    stream, recording every trace event as it happens. Consumes per-step
    and sync events. *)

val events : sink -> event list
(** In occurrence order. Empty when the sink was created with
    [~store:false]. *)

val length : sink -> int
(** Events recorded so far (counted even under [store:false]). *)

val pp : Format.formatter -> sink -> unit

val recovery_events : sink -> event list
(** Only the recovery story (detections, rollbacks, compensations,
    recoveries, fail-stops, checkpoints). *)

val pp_recovery_summary : Format.formatter -> sink -> unit
(** The recovery story without the (noisy) checkpoint events. *)
