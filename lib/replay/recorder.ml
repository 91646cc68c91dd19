(* The recorder: a full recording of the chosen-thread stream, as a view
   over an unbounded flight ring. The engines push every decision into
   the run's flight slot and classify preemptive switches as they push
   (the chosen thread differs from the previously scheduled one while
   the previous one was still eligible — the scheduler took the CPU
   away). Switches forced by the previous thread blocking, sleeping or
   finishing are reproduced for free by any schedule-respecting
   executor, so only preemptive switches are interesting to the
   minimizer.

   Riding the flight slot instead of a scheduler tap keeps a recorded
   block-engine run on its compiled window path: a window is one
   run-length [push_run]. *)

open Conair_runtime

type t = Flight_ring.t

let create () = Flight_ring.unbounded ()
let count = Flight_ring.total
let decisions = Flight_ring.tail
let preemptions = Flight_ring.tail_preemptions
