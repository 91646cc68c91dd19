(** The machine state and the ConAir recovery runtime the block-compiled
    engine ([Block_machine]) runs on. It has no step loop: [Compile]'s
    closures run straight-line code and control transfers, calling the
    helpers below, and the schedulable ops (lock/unlock, spawn/join,
    sleep, wait/notify, recovery, fail-stop, [exit]) run through
    {!run_thread_step}.

    [create] pre-resolves the program once through [Link] — register
    names interned to dense indices (frames hold a flat [Value.t array]),
    labels and call targets resolved to array indices, fail-arm labels
    annotated onto their blocks — and the scheduler keeps a dense
    live-thread array instead of folding the thread table.

    [Checkpoint] saves the register image into the thread's single
    checkpoint slot (an [Array.copy]), [Try_recover] compensates
    (releases locks / frees blocks acquired in the current region, §4.1)
    and rolls back within a per-site retry budget, [Timed_lock] blocks
    with a step timeout. Unhardened programs fail where hardened ones
    recover: asserts stop the program, invalid dereferences are
    segmentation faults, and a configuration with every live thread
    blocked is a hang. Semantics are bit-for-bit those of the map-based
    reference interpreter, [Ref_machine]. *)

open Conair_ir
module Label = Ident.Label

(** How a deadlock is noticed at a hardened lock site (§3.1.1: "ConAir
    can work with any deadlock-detection mechanism"): lock timeouts (the
    paper's prototype) or wait-for-graph cycle detection (recovery starts
    the moment the cycle closes). *)
type deadlock_detection = Timeout_based | Wait_graph

type config = {
  policy : Sched.policy;
  fuel : int;  (** scheduler-step budget before giving up *)
  max_retries : int;  (** per-site retry budget (paper default: 10^6) *)
  deadlock_detection : deadlock_detection;
  deadlock_backoff : int;
      (** max random sleep after a deadlock rollback (livelock avoidance) *)
  verify_rollbacks : bool;
      (** check at every rollback that no dynamically-destroying
          instruction executed since the checkpoint — the static
          analysis' safety invariant *)
  perturb_timing : bool;
      (** randomize sleep durations and stagger thread startup — the
          Rx-style environment change the baselines use on reexecution;
          never used by ConAir itself *)
  spawn_jitter : int;
      (** max random startup delay for spawned threads under
          [perturb_timing] *)
}

val default_config : config

(** Metadata from the hardening pass: fail-arm labels per site, used to
    close recovery episodes when a site is finally passed. If a label
    repeats, its first entry counts, on every engine. [create] links
    the program once per [fail_blocks] list: pass an equal list again
    and the linked image is reused. *)
type meta = { fail_blocks : (Label.t * int) list }

val meta_of_harden : Conair_transform.Harden.t -> meta

type t = {
  prog : Program.t;
  linked : Link.program;  (** [prog], pre-resolved once at [create] *)
  config : config;
  meta : meta option;
  globals : (string, Value.t) Hashtbl.t;
  heap : Heap.t;
  locks : Locks.t;
  threads : (int, Thread.t) Hashtbl.t;
  mutable next_tid : int;
  mutable step : int;  (** virtual time *)
  mutable outputs : string list;  (** newest first *)
  stats : Stats.t;
  sched : Sched.t;
  mutable outcome : Outcome.t option;
  obs : Event.observer option;
      (** the run's observer; one [match] per emit site when off *)
  view : Event.view;
  here : Thread.t option ref;
      (** the thread [view] looked up last: observers ask about the
          running thread, step after step *)
  mutable chosen : int;
      (** the previously chosen tid, kept while an observer of decisions
          is attached *)
  mutable run_from : int;
      (** inside a block-engine window: the step of the first decision
          not yet reported ({!emit}), [-1] elsewhere *)
  mutable live : Thread.t array;
      (** slots [0, live_n): the live threads, ascending tid — maintained
          at spawn and death instead of folded from [threads] per step *)
  mutable live_n : int;
  mutable ready : int array;  (** scratch: eligible indices into [live] *)
  mutable wbound : int;
      (** the running window's step budget, consulted by compiled
          control-transfer links ([Compile]) before chaining into their
          target block; owned by [Block_machine], unused here *)
  mutable abound : int;
      (** while [Block_machine] runs a thread ahead of the clock, the
          step limit of that run, [min_int] elsewhere: [Compile]'s
          unboxed loops run up to the larger of [wbound] and [abound] *)
  mutable uregs : int array;
      (** the unboxed loops' scratch register file ([Compile]), grown
          to the largest function that enters one *)
}

val create :
  ?config:config ->
  ?meta:meta ->
  ?observer:Event.observer ->
  ?tap:(chosen:int -> eligible:int list -> unit) ->
  ?feed:Sched.feed ->
  Program.t ->
  t
(** Link the program and return a machine with the main thread ready to
    run. [observer] receives the run's observation stream ({!Event});
    [tap] and [feed] go to the scheduler ({!Sched.set_tap},
    {!Sched.set_feed}). They are private to this machine, so concurrent
    in-process runs never share observation state. All are off by
    default — then the engine pays one [match] per emit site. *)

val outputs : t -> string list
(** In emission order. *)

val stats : t -> Stats.t
val thread : t -> int -> Thread.t
val live_threads : t -> int list

val thread_summaries : t -> (int * string * string list) list
(** Post-mortem view for diagnostic bundles: every thread ever spawned
    (finished ones included), ascending tid, as
    [(tid, status, held locks)] with the status rendered to an
    engine-independent string ([runnable], [sleeping:N],
    [blocked_lock:NAME], [blocked_event:NAME], [blocked_join:TID],
    [done], [failed]). *)

(** {1 Engine internals}

    The shared runtime, exported for [Compile]/[Block_machine]: compiled
    code and the driver share one set of evaluation, failure and
    recovery paths. Not intended for other callers. *)

exception Fault of string
(** An unrecovered runtime fault of the current thread. *)

val eval_reg : Thread.frame -> int -> Value.t
val eval : Thread.frame -> Link.rarg -> Value.t
val eval_args : Thread.frame -> Link.rarg array -> Value.t array
val eval_arg_list : Thread.frame -> Link.rarg array -> Value.t list
val as_int : Value.t -> int
val as_mutex : Value.t -> string
val eval_binop : Instr.binop -> Value.t -> Value.t -> Value.t
val eval_unop : Instr.unop -> Value.t -> Value.t
val render_output : string -> Value.t list -> string

val decisions : t -> bool
(** Does the observer consume scheduler decisions? *)

val steps : t -> bool
(** Does the observer consume per-step events? *)

val emit : t -> Event.t -> unit
(** Deliver an event to the observer. Inside a block-engine window
    ([run_from >= 0]) it first reports the window's decisions through
    the current step as one {!Event.Decide}. *)

val access : t -> tid:int -> iid:int -> Event.kind -> Event.addr -> unit
(** Emit an {!Event.Access} at the current step, through {!emit}:
    compiled links count their own step after their body, so [m.step]
    is the access's own time. *)

val emit_step : t -> Thread.t -> woke:bool -> unit
(** Emit the {!Event.Step} of the thread's current instruction (or
    terminator) at [m.step], as {!run_thread_step} does before executing
    it and [Block_machine] before a compiled step. *)

val ready_tid : t -> int -> int
(** [ready_tid m j]: the tid of [m.ready.(j)], the projection the
    engines pass {!Sched.choose_idx} (closed, so deciding allocates
    nothing). *)

val decide : t -> int -> int -> unit
(** [decide m k rn]: report the scheduler's choice of [m.ready.(k)]
    among the [rn] eligible threads listed in [m.ready], classifying it
    preemptive against [m.chosen]. *)

val set_failure :
  t ->
  kind:Instr.failure_kind ->
  site_id:int option ->
  iid:int option ->
  tid:int ->
  msg:string ->
  unit

val note_branch_taken :
  t -> Thread.t -> Thread.frame -> taken_idx:int -> other_idx:int -> unit

val close_episode : t -> Thread.t -> unit
val do_return : t -> Thread.t -> Value.t option -> unit
val eligible : t -> Thread.t -> bool

val next_wake : t -> int
(** The earliest step after now at which a live thread becomes eligible
    by time alone — a sleeper's deadline, a timed lock's or timed wait's
    [since + timeout] — or [max_int] when nobody waits on time. Threads
    that are eligible already contribute no wake, except a timed waiter
    on a free lock. The one wake scan: the block engine's idle ticks and
    its window and contended bounds all read it. *)

val run_thread_step : t -> Thread.t -> unit
(** Execute the schedulable op (or [exit]) [th] stands at, including the
    sleeper wake and every event it emits; not the eligibility scan, the
    decision or the step counters. Handed a compiled instruction, it
    raises [Invalid_argument]. *)

(** {1 Whole-machine snapshots}

    For the Fig 4 right-end baselines only — ConAir itself never copies
    memory state. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Restore state but not time: virtual time is wall-clock and keeps
    moving forward, so sleep deadlines captured in the snapshot retain
    their meaning across restores. A snapshot can be restored any number
    of times. *)

val reseed : ?perturb:bool -> t -> Sched.policy -> t
(** Swap the scheduling policy (and optionally enable timing
    perturbation) — how baselines explore a different interleaving after
    a rollback or restart. *)
