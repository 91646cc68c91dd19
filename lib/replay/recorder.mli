(** The recorder: every scheduling decision of one run — the
    chosen-thread stream — and the preemptive ones among them (the
    previous thread was still eligible when another was chosen).

    A recorder is an unbounded {!Conair_runtime.Flight_ring}: install it
    as the run's [~flight] hook ({!Conair_runtime.Hooks.bundle}). It is
    the one hook a recorded block-engine run can carry without leaving
    the compiled window path. *)

open Conair_runtime

type t = Flight_ring.t

val create : unit -> t
(** [Flight_ring.unbounded ()]. *)

val count : t -> int
(** Decisions recorded so far. *)

val decisions : t -> int array
val preemptions : t -> int array
(** Ordinals into {!decisions} of the preemptive switches, ascending. *)
