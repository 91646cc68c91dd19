(* The block-compiled engine: [Machine]'s state and semantics, driven
   through [Compile]'s threaded code.

   The machine state IS a [Machine.t] — same linked program, same
   threads, heap, locks, scheduler and statistics — plus the compiled
   code. What changes is the driver: where [Machine.run] pays an
   eligibility scan, a scheduling decision and a full opcode dispatch
   per instruction, this driver recognizes the (overwhelmingly common)
   configuration in which the scheduler has no choice to make — exactly
   one eligible thread, no tap or feed installed — and retires the
   thread's current straight-line run of compiled closures in a tight
   loop, consulting nobody.

   Correctness of the window rests on three facts, each enforced
   elsewhere:

   - [Sched.choose_idx] with one eligible thread and no hooks returns
     immediately: no rng draw, no cursor movement ([sched.ml]). Skipping
     the call entirely is therefore unobservable.
   - A straight-line (non-schedulable) instruction of the running thread
     cannot change any *other* thread's eligibility: it touches only
     registers, stack slots, heap cells and globals, never locks,
     events, thread statuses or the thread table. The only time-based
     wakes are bounded below by the [horizon] computed at window entry,
     and the window never runs past it.
   - With no observer of per-step or access events ([hooked]),
     [Machine]'s observation work on straight-line code is a handful of
     matches that emit nothing, so skipping it is byte-invisible in
     every observable (traces, profiles, race reports, schedule logs,
     stats). Sync events come from schedulable ops, which the window
     runs through [Machine.run_thread_step], and from the shared
     [Machine] helpers the compiled code calls; the window's decisions
     are reported as one counted decision, flushed ahead of any event
     emitted inside the window ([Machine.emit]).

   Whenever any of this fails to hold — a per-step observer is
   installed, several threads are eligible, the one eligible thread sits
   at a schedulable op — the driver falls back to [Machine]'s own
   generic path ([Machine.step] / [Machine.run_thread_step]), or to its
   compiled-dispatch twin [generic_step], which is correct by
   construction. [Ref_machine] remains the oracle; the three-way
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
let step bm = Machine.step bm.m
let thread_summaries bm = Machine.thread_summaries bm.m

(* Does the observer consume per-step or access events, or is a
   scheduler hook attached? Those see state the window skips, so they
   send every step down the generic path. Decisions and sync events do
   not count: the window emits every one of them. *)
let hooked (m : Machine.t) =
  (match m.Machine.obs with
  | Some o -> o.Event.steps || o.Event.accesses
  | None -> false)
  || m.Machine.sched.Sched.tap <> None
  || m.Machine.sched.Sched.feed <> None

(* The earliest virtual time at which any thread other than [active]
   could become eligible on its own: sleepers wake at [until], timed
   lock/event waiters give up at [since + timeout]. Waiters without a
   timeout need another thread's action (an unlock, a notify, a death) —
   and the active thread's straight-line run performs none — so they
   cannot constrain the window. Capped at the fuel budget. *)
let horizon (m : Machine.t) (active : Thread.t) =
  let bound = ref m.Machine.config.Machine.fuel in
  for i = 0 to m.Machine.live_n - 1 do
    let th = m.Machine.live.(i) in
    if th != active then begin
      match th.Thread.status with
      | Thread.Sleeping until -> if until < !bound then bound := until
      | Thread.Blocked_lock { since; timeout = Some t; _ }
      | Thread.Blocked_event { since; timeout = Some t; _ } ->
          if since + t < !bound then bound := since + t
      | _ -> ()
    end
  done;
  !bound

(* Retire compiled code of [th] until the window closes: a schedulable
   op, a thread death, a decided outcome, a fault, or the step budget
   [bound]. The caller guarantees [m.step < bound], that [th] is the
   only eligible thread, and that the run is not [hooked].

   The normal case dispatches a chain: [cb_chain.(idx)] retires every
   instruction from [idx] onward — chaining through jumps, branches,
   calls and returns — under one call, bumping [m.step] per link as it
   goes. [cb_need.(idx)] bounds the steps the chain can consume before
   its next budget gate, and every control transfer re-checks
   [m.wbound], so the window never runs past its horizon; when the
   budget left is smaller than the next run, the single-step closures
   ([cb_one]) retire the tail one instruction at a time (their
   transfers gate on the same budget). The loop re-fetches the frame
   and block from the thread on every driver round trip — chains move
   the program point arbitrarily far. *)
let run_window bm (th : Thread.t) bound =
  let m = bm.m in
  let code = bm.code in
  m.Machine.wbound <- bound;
  let step0 = m.Machine.step in
  (* The window's decisions all choose [th]; none is preemptive, since
     [th] is the only eligible thread. They are reported lazily: by
     [Machine.emit] ahead of any event emitted inside the window, the
     rest below. *)
  if Machine.decisions m then begin
    m.Machine.chosen <- th.Thread.tid;
    m.Machine.run_from <- step0
  end;
  let sched_steps = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let f = Thread.top th in
    let cbv =
      code.(f.Thread.func.Link.lf_id).(f.Thread.block.Link.lb_index)
    in
    let i = f.Thread.idx in
    match
      if m.Machine.step + cbv.Compile.cb_need.(i) <= bound then
        cbv.Compile.cb_chain.(i) m th f
      else cbv.Compile.cb_one.(i) m th f
    with
    | 0 (* t_refresh *) | 4 (* t_single *) ->
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
        (* replicates [run_thread_step]'s fault arm. Links raise before
           moving the program point (the one after-pop fault is compiled
           inline), so the faulting frame is on top with [fr.idx] at the
           faulting instruction, whose step is not yet counted. *)
        Machine.close_episode m th;
        let f = Thread.top th in
        let iid =
          let iids =
            code.(f.Thread.func.Link.lf_id).(f.Thread.block.Link.lb_index)
              .Compile.cb_iids
          in
          let idx = f.Thread.idx in
          if idx < Array.length iids then Some iids.(idx) else None
        in
        Machine.set_failure m ~kind:Instr.Seg_fault ~site_id:None ~iid
          ~tid:th.Thread.tid ~msg;
        m.Machine.step <- m.Machine.step + 1;
        continue_ := false
  done;
  (* [m.step] moved once per retired step (chain links count their own);
     schedulable ops were counted by [run_thread_step], the rest is
     compiled instructions. *)
  let retired = m.Machine.step - step0 in
  m.Machine.stats.Stats.steps <- m.Machine.stats.Stats.steps + retired;
  m.Machine.stats.Stats.instrs <-
    m.Machine.stats.Stats.instrs + (retired - !sched_steps);
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

(* No thread is eligible. [Machine.step] would retire idle steps one at
   a time until the nearest time-based wake (idle ticks are per-step
   events, unobserved here by construction); take them in bulk, or
   declare the hang when nobody waits on time. *)
let idle (m : Machine.t) =
  let wake = ref max_int in
  for i = 0 to m.Machine.live_n - 1 do
    match m.Machine.live.(i).Thread.status with
    | Thread.Sleeping until -> if until < !wake then wake := until
    | Thread.Blocked_lock { since; timeout = Some t; _ }
    | Thread.Blocked_event { since; timeout = Some t; _ } ->
        if since + t < !wake then wake := since + t
    | _ -> ()
  done;
  if !wake = max_int then
    m.Machine.outcome <-
      Some
        (Outcome.Hang
           { step = m.Machine.step; blocked = Machine.live_threads m })
  else begin
    (* an ineligible waiter's wake time is strictly in the future *)
    let target = min !wake m.Machine.config.Machine.fuel in
    let skip = target - m.Machine.step in
    m.Machine.step <- m.Machine.step + skip;
    m.Machine.stats.Stats.idle <- m.Machine.stats.Stats.idle + skip;
    m.Machine.stats.Stats.steps <- m.Machine.stats.Stats.steps + skip
  end

(* The window fast path for [th], the only eligible thread. [false] when
   it does not apply and the caller must take a generic step: [th]
   stands at its blocking instruction (a schedulable op), or the horizon
   leaves no room. *)
let try_window bm (th : Thread.t) =
  let m = bm.m in
  match th.Thread.status with
  | Thread.Blocked_lock _ | Thread.Blocked_event _ | Thread.Blocked_join _ ->
      false
  | _ ->
      (* Runnable, or a sleeper whose deadline passed: wake it exactly
         as [run_thread_step] would (its step event is unobserved). *)
      (match th.Thread.status with
      | Thread.Sleeping _ -> th.Thread.status <- Thread.Runnable
      | _ -> ());
      let bound = horizon m th in
      if bound <= m.Machine.step then false
      else begin
        run_window bm th bound;
        true
      end

(* [Machine.step] over the [rn] eligible threads already listed in
   [m.ready], with the chosen thread's instruction dispatched through
   the compiled code instead of [exec_instr]'s interpretive match. Used
   when the window fast path does not apply (several eligible threads,
   or the one eligible thread is blocked/at a stopper) but the run is
   not [hooked] — the scheduler is still consulted for every step
   ([choose_idx] over the same candidate list, in the same order), so
   scheduling decisions, rng draws and all observables are
   byte-identical; only the opcode dispatch is cheaper. Schedulable ops
   and [L_exit] still run through [Machine.run_thread_step], and
   [m.wbound] is floored so a transfer link never chains past its own
   step. *)
let generic_step bm rn =
  let m = bm.m in
  let k =
    Sched.choose_idx m.Machine.sched
      ~tid_of:(fun j -> m.Machine.live.(m.Machine.ready.(j)).Thread.tid)
      rn
  in
  let th = m.Machine.live.(m.Machine.ready.(k)) in
  if Machine.decisions m then Machine.decide m k rn;
  let fr = Thread.top th in
  let cbv =
    bm.code.(fr.Thread.func.Link.lf_id).(fr.Thread.block.Link.lb_index)
  in
  let i = fr.Thread.idx in
  if cbv.Compile.cb_sched.(i) then begin
    Machine.run_thread_step m th;
    m.Machine.step <- m.Machine.step + 1;
    m.Machine.stats.Stats.steps <- m.Machine.stats.Stats.steps + 1
  end
  else begin
    (* [run_thread_step]'s preamble for a compiled instruction: wake a
       chosen sleeper (its step event is unobserved), count the
       instruction. *)
    (match th.Thread.status with
    | Thread.Sleeping _ -> th.Thread.status <- Thread.Runnable
    | _ -> ());
    m.Machine.stats.Stats.instrs <- m.Machine.stats.Stats.instrs + 1;
    m.Machine.wbound <- min_int;
    (match cbv.Compile.cb_one.(i) m th fr with
    | _ -> ()
    | exception Machine.Fault msg ->
        Machine.close_episode m th;
        let iid =
          let iids = cbv.Compile.cb_iids in
          if i < Array.length iids then Some iids.(i) else None
        in
        Machine.set_failure m ~kind:Instr.Seg_fault ~site_id:None ~iid
          ~tid:th.Thread.tid ~msg;
        m.Machine.step <- m.Machine.step + 1);
    m.Machine.stats.Stats.steps <- m.Machine.stats.Stats.steps + 1
  end

(* One step of the unhooked driver. A single eligibility scan — the one
   [Machine.step] makes — fills [m.ready]; then nobody eligible idles in
   bulk, one eligible thread runs a compiled window, and anything else
   (or a window that does not apply) takes a compiled generic step over
   the same list. *)
let unhooked_step bm =
  let m = bm.m in
  let rn = ref 0 in
  for i = 0 to m.Machine.live_n - 1 do
    if Machine.eligible m m.Machine.live.(i) then begin
      m.Machine.ready.(!rn) <- i;
      incr rn
    end
  done;
  if !rn = 0 then idle m
  else if not (!rn = 1 && try_window bm m.Machine.live.(m.Machine.ready.(0)))
  then generic_step bm !rn

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
          else if hooked m then
            if Machine.step m then go ()
            else Option.value ~default:Outcome.Success m.Machine.outcome
          else begin
            unhooked_step bm;
            (* like [Machine.run]: an outcome decided by this step stands,
               even if the step also used up the fuel *)
            match m.Machine.outcome with Some o -> o | None -> go ()
          end
  in
  go ()
