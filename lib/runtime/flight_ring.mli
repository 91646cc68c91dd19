(** Always-on flight recorder ring: a fixed-capacity, zero-allocation
    record of the recent scheduler decisions, preemptive switches, and
    synchronization/recovery events of one run. The events are the
    observation stream's own {!Event.t} values, kept as the engines
    built them.

    A ring is attached to a run as an observer ({!observer}) of the
    machine's decisions and sync events only, so it keeps the block
    engine on its compiled phases: a one-thread window's decisions arrive
    as one counted decision, recorded in bulk, which is what keeps
    recorder-on throughput within a few percent of recorder-off on a run
    made of windows. Where threads contend at every step, each decision
    is one event (and, in an {!unbounded} recording, often one run-length
    pair), and recording can double a run's time. The
    decision stream is exactly what a schedule log records, so the tail
    can be verified against (and regenerated into) an ordinary schedule
    log.

    The same ring type carries a full recording: an {!unbounded} ring
    keeps the whole decision stream, run-length encoded, and every
    preemption — [Conair_replay.Recorder] is a view over it. *)

type t

val default_capacity : int
val default_event_capacity : int

val create : ?cap:int -> ?events:int -> unit -> t
(** [create ()] makes a ring holding the last [cap] (default 4096)
    scheduler decisions and the last [events] (default 256) sync /
    recovery events. Raises [Invalid_argument] on non-positive sizes. *)

val unbounded : unit -> t
(** A full recording: every decision (stored as one (tid, count) pair per
    context switch, so a block-engine window stays one O(1) write)
    and every preemption ordinal, growing as the run goes. {!tail_first}
    is [0] and {!tail} / {!tail_preemptions} return the whole stream.
    Its event ring holds one event. *)

val capacity : t -> int
(** Decisions retained; [0] for an {!unbounded} recording. *)

val total : t -> int
(** Decisions ever pushed (the run's non-idle step count so far). *)

val prev : t -> int
(** The most recently chosen tid, [-1] before the first decision. *)

val observer : t -> Event.observer
(** Record a run into the ring: every {!Event.Decide} (O(1) per event,
    whatever its count; allocation-free on a bounded ring, amortized
    O(1) growth on an unbounded one), and the {!Event.Acquire},
    {!Event.Request}, {!Event.Wait}, {!Event.Release}, {!Event.Spawn},
    {!Event.Rollback}, {!Event.Recovered} and {!Event.Failed} events,
    stored as they arrive. Consumes decisions and sync events. *)

(** {1 Dump-time readers} *)

val tail_first : t -> int
(** Absolute ordinal of the first decision still in the ring. *)

val tail : t -> int array
(** The retained decision tail, oldest first. *)

val tail_preemptions : t -> int array
(** Absolute ordinals of the preemptive switches within {!tail},
    ascending. Complete for the retained tail. *)

val events : t -> Event.t list
(** Retained events, oldest first. *)

