(* The recorder: a full recording of the chosen-thread stream, as a view
   over an unbounded flight ring. The engines report every decision on
   the observation stream and classify preemptive switches as they go
   (the chosen thread differs from the previously scheduled one while
   the previous one was still eligible — the scheduler took the CPU
   away). Switches forced by the previous thread blocking, sleeping or
   finishing are reproduced for free by any schedule-respecting
   executor, so only preemptive switches are interesting to the
   minimizer.

   Observing only sync events instead of tapping the scheduler keeps a
   recorded block-engine run on its compiled window path: a window is
   one counted decision, one run-length write. *)

open Conair_runtime

type t = Flight_ring.t

let create () = Flight_ring.unbounded ()
let observer = Flight_ring.observer
let count = Flight_ring.total
let decisions = Flight_ring.tail
let preemptions = Flight_ring.tail_preemptions
