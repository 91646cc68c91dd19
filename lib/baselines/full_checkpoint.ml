(* Traditional whole-program checkpoint/rollback recovery — the right end
   of the paper's Fig 4 design spectrum (Rx/ASSURE/Frost-style, minus the
   OS: our substrate lets us snapshot the whole machine directly).

   Every [interval] scheduler steps the entire machine state (all threads,
   heap, globals, locks) is checkpointed; on a failure or a hang the last
   snapshot is restored and execution continues under a re-seeded
   scheduler. This recovers strictly more failures than ConAir — it can
   roll back shared-memory writes and multiple threads — but pays a
   continuous checkpointing overhead proportional to state size, which is
   exactly the trade-off Fig 4 sketches. *)

open Conair.Ir
module Machine = Conair.Runtime.Machine
module Block_machine = Conair.Runtime.Block_machine
module Outcome = Conair.Runtime.Outcome
module Sched = Conair.Runtime.Sched
module Heap = Conair.Runtime.Heap

type config = {
  machine : Machine.config;
  interval : int;  (** steps between whole-program checkpoints *)
  max_restores : int;
  snapshot_cost_per_block : int;
      (** virtual cost charged per live heap block at each snapshot,
          modelling memory-state checkpointing time *)
  snapshot_cost_fixed : int;
}

let default_config =
  {
    machine = Machine.default_config;
    interval = 250;
    max_restores = 250;
    snapshot_cost_per_block = 2;
    snapshot_cost_fixed = 20;
  }

type result = {
  outcome : Outcome.t;
  outputs : string list;
  snapshots_taken : int;
  restores : int;
  run_steps : int;  (** pure execution steps *)
  checkpoint_overhead_steps : int;  (** virtual cost of the snapshots *)
  total_steps : int;  (** run + overhead: what the user experiences *)
  recovery_steps : int;  (** from first failure to final success *)
}

let run ?(config = default_config) (p : Program.t) : result =
  let bm = ref (Block_machine.create ~config:config.machine p) in
  let m () = Block_machine.machine !bm in
  let snap = ref (Machine.snapshot (m ())) in
  let snapshots = ref 1 in
  let restores = ref 0 in
  let overhead = ref (config.snapshot_cost_fixed) in
  let first_failure_step = ref None in
  let last_step = ref 0 in
  let since_snapshot = ref 0 in
  let charge_snapshot () =
    incr snapshots;
    overhead :=
      !overhead + config.snapshot_cost_fixed
      + (config.snapshot_cost_per_block * Heap.live_blocks (m ()).Machine.heap)
  in
  let rec loop () =
    if (m ()).Machine.step >= config.machine.fuel then
      Outcome.Fuel_exhausted (m ()).Machine.step
    else begin
      if Block_machine.step !bm then begin
        incr since_snapshot;
        if !since_snapshot >= config.interval then begin
          since_snapshot := 0;
          snap := Machine.snapshot (m ());
          charge_snapshot ()
        end;
        loop ()
      end
      else
        let outcome =
          Option.value ~default:Outcome.Success (m ()).Machine.outcome
        in
        match outcome with
        | Outcome.Success -> outcome
        | Outcome.Fuel_exhausted _ -> outcome
        | Outcome.Failed _ | Outcome.Hang _ ->
            if !restores >= config.max_restores then outcome
            else begin
              if !first_failure_step = None then
                first_failure_step := Some (m ()).Machine.step;
              incr restores;
              Machine.restore (m ()) !snap;
              (* Explore a different interleaving on the retried epoch,
                 with perturbed timing — the Rx-style environment change. *)
              bm :=
                Block_machine.reseed ~perturb:true !bm
                  (Sched.Random (0xcafe + !restores));
              since_snapshot := 0;
              loop ()
            end
    end
  in
  let outcome = loop () in
  last_step := (m ()).Machine.step;
  let stats = Machine.stats (m ()) in
  let recovery_steps =
    match !first_failure_step with
    | Some s when Outcome.is_success outcome -> stats.steps - s
    | Some _ | None -> 0
  in
  {
    outcome;
    outputs = Machine.outputs (m ());
    snapshots_taken = !snapshots;
    restores = !restores;
    run_steps = stats.steps;
    checkpoint_overhead_steps = !overhead;
    total_steps = stats.steps + !overhead;
    recovery_steps;
  }
