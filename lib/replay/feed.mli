(** Scheduler feeds ({!Conair_runtime.Sched.feed}): force a machine
    through a recorded or synthesized schedule. Both feeds answer the
    block engine's one-thread windows in counts, so a fed block run
    keeps its compiled phases. *)

open Conair_runtime

type divergence_info = {
  at : int;  (** decision ordinal where replay and recording disagree *)
  expected : int option;
      (** the recorded tid, or [None] when the log is exhausted *)
  eligible : int list;  (** what the replayed execution offered instead *)
}

exception Diverged of divergence_info

(** {1 Strict replay} *)

type strict
(** A position in a recorded decision stream. *)

val strict : ?start:int -> int array -> strict
(** Replay [decisions] from ordinal [start] (default [0]). *)

val position : strict -> int
(** The ordinal of the next decision to feed. *)

val strict_feed : strict -> Sched.feed
(** The feed: each decision is the next recorded one, and a window of
    [tid] takes at most the recorded run of [tid] at the position.
    @raise Diverged when the recorded thread is not eligible or the log
    is exhausted — at the same decision ordinal on every engine. *)

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

val directed : directive list -> Sched.feed
(** A fresh feed executing [directives] in order; it never raises. A
    window accepts any number of decisions: only its first can fire a
    directive, one into the window's thread. *)

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
