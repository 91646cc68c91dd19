(** Execution statistics: the raw material of Tables 3, 5, 6 and 7. *)

(** One completed recovery: from the first rollback for a failure until
    the thread made it past the failure site. *)
type episode = {
  ep_site_id : int;
  ep_tid : int;
  ep_start : int;
  ep_end : int;
  ep_retries : int;
}

val episode_duration : episode -> int

type t = {
  mutable steps : int;  (** scheduler steps, including idle ticks *)
  mutable instrs : int;  (** instructions actually executed *)
  mutable idle : int;
  mutable checkpoints : int;  (** dynamic reexecution points (Table 5) *)
  mutable rollbacks : int;
  mutable compensated_locks : int;
  mutable compensated_blocks : int;
  mutable episodes : episode list;  (** newest first *)
  mutable tracecheck_violations : int;
  mutable outputs : int;
  mutable ckpt_dense : int array;
      (** executions per checkpoint id, for the ids below a cap that
          hardening's never reach — Table 6's dynamic split; read it
          through {!ckpt_hits} *)
  ckpt_far : (int, int) Hashtbl.t;  (** the same, for any other id *)
}

val create : unit -> t

val episodes_chronological : t -> episode list
(** [episodes] in execution order (the field itself is an accumulation
    list, newest first). Every user-facing consumer — pretty-printing,
    reports, span building — should read episodes through this. *)

val hit_checkpoint : t -> int -> unit
val ckpt_hits_of : t -> int -> int

val ckpt_hits : t -> (int * int) list
(** Every checkpoint id hit at least once with its count, ascending
    id. *)

val total_retries : t -> int

val max_recovery_time : t -> int
(** Duration of the longest recovery episode — Table 7's "Recovery Time"
    in virtual steps. *)

val mean_recovery_time : t -> float
(** Mean recovery-episode duration in virtual steps; [0.] with no
    episodes. *)

val pp : Format.formatter -> t -> unit

val pp_episode : Format.formatter -> episode -> unit

val pp_episodes : Format.formatter -> t -> unit
(** The completed recovery episodes, one per line, in execution order. *)
