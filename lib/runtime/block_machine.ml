(* The block-compiled engine: [Machine]'s state and runtime, driven
   through [Compile]'s threaded code. It runs every execution but the
   reference's.

   The machine state IS a [Machine.t] — linked program, threads, heap,
   locks, scheduler and statistics — plus the compiled code, each block
   compiled the first time a thread enters it. A per-step loop would
   pay an eligibility scan, a scheduling decision and a dispatch per
   instruction; this driver scans eligibility once per *phase*, a
   stretch of steps over which the set of eligible threads cannot
   change, and runs the phase in a tight loop:

   - nobody eligible: the idle ticks up to the nearest time-based wake
     are taken in bulk ([idle]);
   - one eligible thread: the scheduler has no choice to make, so the
     thread's compiled code runs closure to closure without consulting
     it ([run_window]); an installed feed is asked once, up front, how
     many of these forced decisions it accepts, and told once, at the
     end, how many the window took;
   - several eligible threads: each step still asks the scheduler —
     the same [Sched.choose_idx] call over the same candidate list, so
     rng draws and cursor moves are identical, and a feed decides each
     step — and then ([run_contended]) settles one step the chosen
     thread already ran ahead of the clock, or runs its register-only
     code ahead as fused chains ([run_ahead]) and keeps all but this
     step as credit, or else retires its one instruction through its
     single-step closure.

   Between two schedulable ops a step only decides which thread runs,
   so the eligible set can be held fixed; correctness of a phase rests
   on the facts below, each enforced elsewhere:

   - A straight-line (non-schedulable) instruction cannot change any
     thread's eligibility: it touches only registers, stack slots, heap
     cells and globals, never locks, events, thread statuses or the
     thread table. An eligible thread stays eligible as time passes.
     The only way an ineligible thread becomes eligible without a
     schedulable op is time — a sleeper's deadline, a timed lock's or
     timed wait's expiry — and a phase never runs past the earliest
     such wake ([Machine.next_wake]) or the fuel.
   - A phase ends at everything else that changes the eligible set:
     a schedulable op (run through [Machine.run_thread_step]), a thread
     death, a fault or failed assert, a decided outcome.
   - Every event [Ref_machine] emits, the phases emit too, at the same
     step and in the same order. Sync events come from schedulable ops
     and from the shared [Machine] helpers the compiled code calls.
     Access events come from the compiled memory links themselves,
     where the reference emits them and at its step: a link counts its
     own step after its body ([Compile]). Per-step
     events come from this driver: with an observer of them, windows
     and contended phases retire every instruction through its
     single-step form and announce it first ([Machine.emit_step]), and
     idle ticks in bulk are announced one by one. A contended phase
     reports each decision as [step] does; a window reports its
     decisions as one counted decision, flushed through the step of any
     event emitted inside it ([Machine.emit]), so under a per-step
     observer every decision is flushed alone, as on the reference.
   - A feed sees the same decisions in the same order. Every step of
     a window is one forced decision of its thread, so a window bounded
     by the feed's answer ([Sched.feed]'s [window]) takes exactly the
     decisions the feed accepted; an answer of [0] sends that step
     through [step], whose [decide] call raises the strict feed's
     divergence at the same decision and step as on the reference. A
     divergence raised in a contended phase retires the phase's steps
     first, so the counters read what the reference leaves.
   - Code run ahead cannot be seen early. A register-only step
     ([Compile]'s [cb_local]: moves, binops, unops, nops, jumps and
     branches) reads and writes only its thread's registers and program
     point, reads no clock and emits no event but its [Step], so it
     commutes with every step of every other thread: only its place on
     the clock is observable, and that place is the decision that
     settles it. Every decision, every other instruction and every
     counter stay at their step: counters count a step when its credit
     is settled, a thread runs no other code while it holds credit, and
     a window settles its thread's credit before its code runs. A run
     ahead that enters an unboxed loop ([Compile]) runs it whole blocks
     at a time up to the run's limit and stops where the loop exits,
     which is a register-only step too. A fault stops a run-ahead just
     before the faulting instruction, which faults at its own step
     later. An observer of accesses hears none from such code, so it
     hears the reference's stream. Running ahead is off where the early
     steps could be seen: under an observer of per-step events, under a
     tap (whose runs take every step through [step]), and under a feed,
     which may read the machine it steers at each decision ([Minimize]'s
     re-recording reads where each thread stands at every switch). A
     run may end, through another thread or the fuel, while a thread
     holds credit; then only that thread's registers and program point
     are ahead, which nothing reads after the outcome
     ([thread_summaries] reports statuses and locks). An observer's
     [Event.view] can show them during the run, as the [stack] and
     [block] of a thread that is not the one of a sync or access
     event.

   A single step ([step]) is built from the same pieces: one scan, one
   decision, then one settled credit or one [step_one]. Only a
   scheduler tap, which must hear every decision with its eligible
   list, sends every step of a run through it ([hooked]); observers
   and feeds keep the phases. [Ref_machine] remains the oracle; the
   differential suite enforces bit-for-bit identity. *)

open Conair_ir

type t = { m : Machine.t; code : Compile.program }

type config = Machine.config
type meta = Machine.meta

let create ?config ?meta ?observer ?tap ?feed prog =
  let m = Machine.create ?config ?meta ?observer ?tap ?feed prog in
  { m; code = Compile.compile m.Machine.linked }

let machine bm = bm.m
let outputs bm = Machine.outputs bm.m
let stats bm = Machine.stats bm.m
let steps bm = bm.m.Machine.step
let outcome bm = bm.m.Machine.outcome
let sched bm = bm.m.Machine.sched
let thread_summaries bm = Machine.thread_summaries bm.m
let reseed ?perturb bm policy = { bm with m = Machine.reseed ?perturb bm.m policy }

(* Is a scheduler tap attached? It takes every decision with the
   eligible set as a list, which a window never builds, so a tap sends
   every step through [step]. Observers and feeds do not count: the
   phases emit every event and hand a feed every decision, a window's
   as one count. *)
let hooked (m : Machine.t) = m.Machine.sched.Sched.tap <> None

(* The fault arm of [Machine.run_thread_step], for a compiled link.
   Links raise before moving the program point (the one after-pop fault
   is compiled inline), so the faulting frame is on top with [fr.idx] at
   the faulting instruction, whose step is not yet counted. *)
let fault bm (th : Thread.t) msg =
  let m = bm.m in
  Machine.close_episode m th;
  let f = Thread.top th in
  let iid =
    let cbv = Compile.block bm.code f.Thread.func f.Thread.block in
    let iids = cbv.Compile.cb_iids in
    let idx = f.Thread.idx in
    if idx < Array.length iids then Some iids.(idx) else None
  in
  Machine.set_failure m ~kind:Instr.Seg_fault ~site_id:None ~iid
    ~tid:th.Thread.tid ~msg;
  m.Machine.step <- m.Machine.step + 1

(* [m.step] moved once per retired step (links count their own);
   schedulable ops were counted as instructions by [run_thread_step],
   the rest are compiled instructions. *)
let retire (m : Machine.t) ~from ~sched_steps =
  let retired = m.Machine.step - from in
  m.Machine.stats.Stats.steps <- m.Machine.stats.Stats.steps + retired;
  m.Machine.stats.Stats.instrs <-
    m.Machine.stats.Stats.instrs + (retired - sched_steps)

(* Retire one step of [th], the thread the scheduler chose: a
   schedulable op through [Machine.run_thread_step] (it wakes
   a sleeper and announces the step itself), anything else through its
   single-step closure after its preamble — wake a chosen sleeper and,
   under an observer of per-step events, announce the step. The caller
   floors [m.wbound], so a transfer never chains past its own step.
   [0] while the phase may go on: the step was not schedulable, ended
   nothing, and left [m.step] below [bound]; otherwise the phase ends,
   [2] after a schedulable op (an instruction [run_thread_step] counted
   already), [1] after anything else. The callers keep their count of
   schedulable steps in a local, so a phase allocates nothing. *)
let[@inline] step_one bm (th : Thread.t) bound =
  let m = bm.m in
  let fr = Thread.top th in
  let func = fr.Thread.func and blk = fr.Thread.block in
  let cbv = Compile.block bm.code func blk in
  let i = fr.Thread.idx in
  if cbv.Compile.cb_sched.(i) then begin
    Machine.run_thread_step m th;
    m.Machine.step <- m.Machine.step + 1;
    2
  end
  else begin
    let woke =
      match th.Thread.status with
      | Thread.Sleeping _ ->
          th.Thread.status <- Thread.Runnable;
          true
      | _ -> false
    in
    (match m.Machine.obs with
    | Some o when o.Event.steps -> Machine.emit_step m th ~woke
    | _ -> ());
    match (Compile.one bm.code func blk cbv).(i) m th fr with
    | 0 (* t_refresh *) ->
        if m.Machine.step < bound then 0 else 1
    | _ (* t_end, t_failed *) -> 1
    | exception Machine.Fault msg ->
        fault bm th msg;
        1
  end

(* Retire compiled code of [th] until the window closes: a schedulable
   op, a thread death, a decided outcome, a fault, or the step budget
   [bound]. The caller guarantees [m.step < bound] and that [th] is the
   only eligible thread (runnable, or a sleeper whose deadline passed).

   Under an observer of per-step events every step is announced, so the
   window retires one instruction at a time ([step_one]). Otherwise the
   normal case dispatches a chain: [cb_chain.(idx)] retires every
   instruction from [idx] onward — chaining through jumps, branches,
   calls and returns — under one call, bumping [m.step] per link as it
   goes. [cb_need.(idx)] bounds the steps the chain can consume before
   its next budget gate, and every control transfer re-checks
   [m.wbound], so the window never runs past [bound]; when the
   budget left is smaller than the next run, the single-step closures
   ([cb_one]) retire the tail one instruction at a time (their
   transfers gate on the same budget). A transfer into a block not
   compiled yet returns to this loop, whose lookup compiles it. The loop
   re-fetches the frame and block from the thread on every driver round
   trip — chains move the program point arbitrarily far. *)
let run_window bm (th : Thread.t) bound =
  let m = bm.m in
  let step0 = m.Machine.step in
  (* The window's decisions all choose [th]; none is preemptive, since
     [th] is the only eligible thread. They are reported lazily: by
     [Machine.emit] ahead of any event emitted inside the window, the
     rest below. *)
  if Machine.decisions m then begin
    m.Machine.chosen <- th.Thread.tid;
    m.Machine.run_from <- step0
  end;
  (* the steps [th] ran ahead in a contended phase come first: settling
     them runs no code *)
  let settled = min th.Thread.ahead (bound - step0) in
  th.Thread.ahead <- th.Thread.ahead - settled;
  m.Machine.step <- step0 + settled;
  let sched_steps = ref 0 in
  if m.Machine.step >= bound then ()
  else if Machine.steps m then begin
    m.Machine.wbound <- min_int;
    while
      match step_one bm th bound with
      | 0 -> true
      | 2 ->
          incr sched_steps;
          false
      | _ -> false
    do
      ()
    done
  end
  else begin
    (* a sleeper wakes exactly as [run_thread_step] would wake it (its
       step event is unobserved) *)
    th.Thread.status <- Thread.Runnable;
    m.Machine.wbound <- bound;
    let continue_ = ref true in
    while !continue_ do
      let f = Thread.top th in
      let func = f.Thread.func and blk = f.Thread.block in
      let cbv = Compile.block bm.code func blk in
      let i = f.Thread.idx in
      match
        if m.Machine.step + cbv.Compile.cb_need.(i) <= bound then
          cbv.Compile.cb_chain.(i) m th f
        else (Compile.one bm.code func blk cbv).(i) m th f
      with
      | 0 (* t_refresh *) ->
          if m.Machine.step >= bound then continue_ := false
      | 1 (* t_end *) -> continue_ := false
      | 2 (* t_sched *) ->
          (* A schedulable op at [fr.idx]: one generic step. The
             scheduler's choice is still forced (the window invariant
             holds until the op runs), so skipping [choose_idx] remains
             unobservable; the op itself may wake, block, spawn or kill
             threads, which ends the window. [run_thread_step] counts
             the instruction; the step counters are ours. *)
          Machine.run_thread_step m th;
          m.Machine.step <- m.Machine.step + 1;
          incr sched_steps;
          continue_ := false
      | _ (* t_failed *) -> continue_ := false
      | exception Machine.Fault msg ->
          fault bm th msg;
          continue_ := false
    done
  end;
  retire m ~from:step0 ~sched_steps:!sched_steps;
  let from = m.Machine.run_from in
  if from >= 0 then begin
    m.Machine.run_from <- -1;
    if m.Machine.step > from then
      Machine.emit m
        (Event.Decide
           {
             step = from;
             tid = th.Thread.tid;
             count = m.Machine.step - from;
             preemptive = false;
           })
  end

(* The longest stretch one run-ahead retires, give or take a block: it
   bounds the work a run that ends through another thread throws
   away. *)
let ahead_chunk = 256

(* Retire [th]'s register-only code ahead of the clock ([Compile]'s
   [cb_local]): whole block remainders, each one chain call that the
   floored [m.wbound] stops at its terminator, until [ahead_chunk] steps
   or a block that is not register-only from the program point. A chain
   that enters an unboxed loop runs it up to the limit, passed in
   [m.abound], and leaves it without chaining on. Only a runnable
   thread that is not recovering runs ahead: a recovering thread's
   branch may close its episode, which reads the clock. Such code reads
   no clock, so [m.step] runs along and is put back; a fault stops the
   run just before the faulting instruction (a link that can raise
   parks the program point on itself and counts its step only after
   its body), which then faults at its own step. Returns the number of
   steps retired. *)
let run_ahead bm (th : Thread.t) =
  match (th.Thread.status, th.Thread.recovering) with
  | Thread.Runnable, None ->
      let m = bm.m in
      let step0 = m.Machine.step in
      let limit = step0 + ahead_chunk in
      m.Machine.abound <- limit;
      (try
         while
           let f = Thread.top th in
           let cbv = Compile.block bm.code f.Thread.func f.Thread.block in
           let i = f.Thread.idx in
           cbv.Compile.cb_local.(i) > 0
           && begin
                ignore (cbv.Compile.cb_chain.(i) m th f);
                m.Machine.step < limit
              end
         do
           ()
         done
       with Machine.Fault _ -> ());
      m.Machine.abound <- min_int;
      let n = m.Machine.step - step0 in
      m.Machine.step <- step0;
      n
  | _ -> 0

(* Several threads — the [rn] listed in [m.ready] — are eligible, or the
   only one stands at its blocking op, or [step] asked for one decision.
   Every step makes the scheduler's decision over the fixed list (a
   tap hears it, a feed makes it) and reports it to an observer of
   decisions. Then a chosen thread with credit settles one step it
   already executed; one without runs its register-only code ahead
   ([run_ahead]), the first step retired being this decision's and the
   rest credit; anything else retires through [step_one]. A local step
   commutes with every step of every other thread, so only its place on
   the clock can be observed, and settling keeps that place. Running
   ahead ([ahead]) is off where it could be seen: under an observer of
   per-step events, under a feed, and in a single [step] (a tap's runs
   take every step there).
   The phase ends at a schedulable op, a thread death, a fault, a
   failed assert, or [bound]: the fuel or the earliest time-based wake
   of an ineligible thread, when the eligible set could grow, or the
   next step for [step]. *)
let run_contended bm rn ~bound ~ahead =
  let m = bm.m in
  m.Machine.wbound <- min_int;
  let step0 = m.Machine.step in
  let sched_steps = ref 0 in
  match
    while
      let k = Sched.choose_idx m.Machine.sched ~tid_of:Machine.ready_tid m rn in
      if Machine.decisions m then Machine.decide m k rn;
      let th = m.Machine.live.(m.Machine.ready.(k)) in
      if th.Thread.ahead > 0 then begin
        th.Thread.ahead <- th.Thread.ahead - 1;
        m.Machine.step <- m.Machine.step + 1;
        m.Machine.step < bound
      end
      else
        let n = if ahead then run_ahead bm th else 0 in
        if n > 0 then begin
          th.Thread.ahead <- n - 1;
          m.Machine.step <- m.Machine.step + 1;
          m.Machine.step < bound
        end
        else
          match step_one bm th bound with
          | 0 -> true
          | 2 ->
              incr sched_steps;
              false
          | _ -> false
    do
      ()
    done
  with
  | () -> retire m ~from:step0 ~sched_steps:!sched_steps
  | exception e ->
      (* a feed aborting the run ([decide] raised): single steps would
         have counted every step before this decision *)
      retire m ~from:step0 ~sched_steps:!sched_steps;
      raise e

(* No thread is eligible. Take the idle ticks up to the nearest
   time-based wake or [bound], whichever comes first: in bulk from
   [unhooked_step], one from [step]. An observer of per-step events
   hears one [Idle] per tick. With nobody waiting on time, declare the
   hang. Every wake lies strictly ahead, so at least one tick passes. *)
let idle (m : Machine.t) ~bound =
  let wake = Machine.next_wake m in
  if wake = max_int then
    m.Machine.outcome <-
      Some
        (Outcome.Hang
           { step = m.Machine.step; blocked = Machine.live_threads m })
  else begin
    let skip = min wake bound - m.Machine.step in
    if Machine.steps m then
      for step = m.Machine.step to m.Machine.step + skip - 1 do
        Machine.emit m (Event.Idle { step })
      done;
    m.Machine.step <- m.Machine.step + skip;
    m.Machine.stats.Stats.idle <- m.Machine.stats.Stats.idle + skip;
    m.Machine.stats.Stats.steps <- m.Machine.stats.Stats.steps + skip
  end

(* Fill [m.ready] with the indices into [m.live] of the eligible
   threads, ascending tid; returns how many there are. *)
let scan (m : Machine.t) =
  let rn = ref 0 in
  for i = 0 to m.Machine.live_n - 1 do
    if Machine.eligible m m.Machine.live.(i) then begin
      m.Machine.ready.(!rn) <- i;
      incr rn
    end
  done;
  !rn

(* One scheduler step: every step of a hooked run, the step of a feed's
   window that accepts none of its decisions, and [Engine.step]. One
   eligibility scan, then one idle tick (or the hang) or a contended
   phase of one decision, which runs nothing ahead. It leaves the fuel
   to its caller. [false] once the program has finished. *)
let step bm =
  let m = bm.m in
  match m.Machine.outcome with
  | Some _ -> false
  | None when m.Machine.live_n = 0 ->
      m.Machine.outcome <- Some Outcome.Success;
      false
  | None ->
      let rn = scan m and bound = m.Machine.step + 1 in
      if rn = 0 then idle m ~bound
      else run_contended bm rn ~bound ~ahead:false;
      m.Machine.outcome = None

(* One phase of the unhooked driver. A single eligibility scan fills
   [m.ready]; then nobody eligible idles in bulk, one eligible thread
   that can run (runnable, or a sleeper whose deadline passed) runs a
   compiled window up to the next time-based wake, and anything else is
   a contended phase over the same list. A feed bounds the window by
   the decisions it accepts and hears how many the window took; when it
   accepts none, the step is [step]'s. *)
let unhooked_step bm =
  let m = bm.m in
  let rn = scan m in
  if rn = 0 then idle m ~bound:m.Machine.config.Machine.fuel
  else
    let th = m.Machine.live.(m.Machine.ready.(0)) in
    match (rn, th.Thread.status) with
    | 1, (Thread.Runnable | Thread.Sleeping _) -> (
        (* every other thread is ineligible, so its wake lies strictly
           ahead *)
        let bound = min m.Machine.config.Machine.fuel (Machine.next_wake m) in
        match m.Machine.sched.Sched.feed with
        | None -> run_window bm th bound
        | Some f ->
            let step0 = m.Machine.step in
            let accepted = f.Sched.window th.Thread.tid in
            if accepted <= 0 then ignore (step bm)
            else begin
              run_window bm th
                (if accepted < bound - step0 then step0 + accepted else bound);
              f.Sched.took (m.Machine.step - step0)
            end)
    | _ ->
        run_contended bm rn
          ~bound:(min m.Machine.config.Machine.fuel (Machine.next_wake m))
          ~ahead:
            (Option.is_none m.Machine.sched.Sched.feed
            && not (Machine.steps m))

let run bm =
  let m = bm.m in
  let rec go () =
    if m.Machine.step >= m.Machine.config.Machine.fuel then begin
      m.Machine.outcome <- Some (Outcome.Fuel_exhausted m.Machine.step);
      Outcome.Fuel_exhausted m.Machine.step
    end
    else
      match m.Machine.outcome with
      | Some o -> o
      | None ->
          if m.Machine.live_n = 0 then begin
            m.Machine.outcome <- Some Outcome.Success;
            Outcome.Success
          end
          else begin
            if hooked m then ignore (step bm) else unhooked_step bm;
            (* an outcome decided by this step or phase stands, even if
               it also used up the fuel *)
            match m.Machine.outcome with Some o -> o | None -> go ()
          end
  in
  go ()
