(* Whole-program restart: the recovery strategy ConAir's Table 7 compares
   against. When the program fails or hangs, it is restarted from scratch;
   the inherent non-determinism of scheduling (modelled by re-seeding the
   random scheduler) eventually dodges the buggy interleaving.

   "Restart time" is all the work thrown away plus the successful rerun —
   which is why it grows with the workload while ConAir's recovery time
   does not (§6.3). *)

open Conair.Ir
module Machine = Conair.Runtime.Machine
module Engine = Conair.Runtime.Engine
module Outcome = Conair.Runtime.Outcome
module Sched = Conair.Runtime.Sched

type result = {
  outcome : Outcome.t;  (** of the final attempt *)
  attempts : int;
  total_steps : int;  (** work across all attempts, the restart cost *)
  wasted_steps : int;  (** work of the failed attempts only *)
  outputs : string list;
}

let run ?(config = Machine.default_config) ?(max_attempts = 20)
    ?(accept = fun (_ : string list) -> true) (p : Program.t) : result =
  let rec attempt k total wasted =
    let config =
      if k = 1 then config
      else
        (* A real restart never reproduces the failing run's exact timing:
           later attempts get a random schedule and perturbed sleeps. *)
        {
          config with
          policy = Sched.Random (0xbeef + k);
          perturb_timing = true;
        }
    in
    let m, outcome = Engine.run_program ~config Engine.default p in
    let stats = Engine.stats m in
    let outputs = Engine.outputs m in
    let ok = Outcome.is_success outcome && accept outputs in
    let total = total + stats.steps in
    if ok || k >= max_attempts then
      {
        outcome;
        attempts = k;
        total_steps = total;
        wasted_steps = (if ok then wasted else wasted + stats.steps);
        outputs;
      }
    else attempt (k + 1) total (wasted + stats.steps)
  in
  attempt 1 0 0
