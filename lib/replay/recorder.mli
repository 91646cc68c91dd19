(** The recorder: every scheduling decision of one run — the
    chosen-thread stream — and the preemptive ones among them (the
    previous thread was still eligible when another was chosen).

    A recorder is an unbounded {!Conair_runtime.Flight_ring}: attach
    {!observer} to the run. It observes decisions and sync events only, so a recorded
    block-engine run keeps its compiled window path. *)

open Conair_runtime

type t = Flight_ring.t

val create : unit -> t
(** [Flight_ring.unbounded ()]. *)

val observer : t -> Event.observer
(** [Flight_ring.observer]. *)

val count : t -> int
(** Decisions recorded so far. *)

val decisions : t -> int array
val preemptions : t -> int array
(** Ordinals into {!decisions} of the preemptive switches, ascending. *)
