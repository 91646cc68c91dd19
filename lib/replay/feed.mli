(** Scheduler feeds ({!Conair_runtime.Sched.set_feed}): force a machine
    through a recorded or synthesized schedule. *)

open Conair_runtime

type divergence_info = {
  at : int;  (** decision ordinal where replay and recording disagree *)
  expected : int option;
      (** the recorded tid, or [None] when the log is exhausted *)
  eligible : int list;  (** what the replayed execution offered instead *)
}

exception Diverged of divergence_info

(** {1 Strict replay} *)

type strict = { decisions : int array; mutable pos : int }

val strict : ?start:int -> int array -> strict

val strict_decide : strict -> eligible:int list -> int
(** The feed function: returns the next recorded decision.
    @raise Diverged when it is not eligible or the log is exhausted. *)

val attach_strict : ?start:int -> Sched.t -> int array -> strict

(** {1 Directed execution}

    A sparse schedule: ordered context-switch directives over an
    otherwise serial execution. Between directives the current thread
    keeps running; when it cannot, control falls to the next eligible
    tid in round-robin order. Feeding every switch of a recorded
    round-robin run reproduces it exactly; subsets are the minimizer's
    search space. *)

type directive = {
  dr_from : int;  (** the thread being preempted *)
  dr_count : int;  (** fire once [dr_from] has run this many decisions *)
  dr_to : int;  (** the thread taking over *)
}

type directed = {
  mutable queue : directive list;
  mutable cur : int;
  counts : (int, int) Hashtbl.t;
  mutable fired : int;  (** directives consumed so far *)
}

val directed : directive list -> directed
(** Fresh feed state without touching any scheduler — pass
    [directed_decide] as a machine's [~feed] at creation. *)

val directed_decide : directed -> eligible:int list -> int
val attach_directed : Sched.t -> directive list -> directed

val directives_of :
  decisions:int array ->
  preemptions:int array ->
  (int * directive) list * (int * directive) list
(** Recast a recorded decision stream as context-switch directives,
    keyed by the decision ordinal where each switch fired: [(forced,
    preemptive)]. Forced switches (the outgoing thread blocked or
    finished) must be kept by any executor; the preemptive ones are the
    minimizer's search space. Feeding
    [merge_directives forced preemptive] back through {!directed}
    reproduces the recording exactly. *)

val merge_directives :
  (int * directive) list -> (int * directive) list -> directive list
(** Merge forced directives with a preemptive subset by original
    ordinal, dropping the keys. *)

val detach : Sched.t -> unit
