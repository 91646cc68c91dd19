(** The runtime's observation stream: one typed event per observable
    occurrence, delivered to the run's one {!observer}.

    Every engine emits each occurrence once, at the point it happens,
    carrying names (lock names, virtual time, thread ids, instruction
    ids), never link-time indices, so the two engines feed
    byte-identical streams. Context that costs something to build — the
    call stack, the current block label, the held lockset — is not in
    the event: an observer asks the machine's {!view} for it, and only
    the observers that need it pay for it.

    Events fall into four classes, and an observer declares which ones
    it consumes:

    - {b decisions}: the scheduler's choices, {!Decide}. The block
      engine reports a compiled window's decisions as one {!Decide} with
      a count, which keeps the window O(1).
    - {b sync}: synchronization, thread lifecycle and recovery. Every
      engine emits these on an interpretive path or from a helper
      shared by all of them, so the block engine emits them from its
      compiled windows too.
    - {b per-step}: one {!Step} per executed instruction, idle ticks,
      outputs and checkpoints.
    - {b access}: every attempted memory access.

    Decisions are a class of their own because an interpretive engine
    makes one per step: an observer of synchronization that ignores
    them does not pay for them. The block engine emits every class from
    its compiled phases: access events from its memory links, per-step
    events from its driver, which then retires one instruction at a
    time. *)

(** The address classes of the Mir memory model. *)
type addr =
  | A_global of string  (** a named global *)
  | A_slot of int * string
      (** a stack slot, keyed by owning thread: thread-private by
          construction, included so the schema covers every access *)
  | A_cell of int * int  (** one heap cell: block id, absolute offset *)
  | A_block of int
      (** a whole heap block, as freed by [Free] — conflicts with every
          access to any cell of the block *)

type kind = Read | Write

type t =
  (* -- decisions -- *)
  | Decide of { step : int; tid : int; count : int; preemptive : bool }
      (** [count] consecutive scheduler decisions for [tid], at virtual
          times [step] to [step + count - 1]. [preemptive]: the first one
          took the CPU from a previously chosen thread that was still
          eligible; the rest re-choose [tid] and never are. *)
  (* -- sync -- *)
  | Acquire of { step : int; tid : int; iid : int; lock : string }
      (** [tid] acquired [lock]; its held set now includes it. *)
  | Request of { step : int; tid : int; iid : int; lock : string }
      (** [tid] found [lock] held and blocks — once per blocking
          episode, at the transition to blocked. *)
  | Release of { step : int; tid : int; lock : string; forced : bool }
      (** [tid] released [lock]: by [Unlock], or [forced] by the
          recovery's compensation (§4.1). *)
  | Wait of { step : int; tid : int; event : string }
      (** [tid] blocks on [event] — once per blocking episode. *)
  | Wake of { step : int; waker : int; woken : int }
      (** [waker]'s notify woke [woken] from its wait. *)
  | Spawn of { step : int; parent : int; child : int }
  | Join of { step : int; tid : int; joined : int }
      (** [tid]'s join on [joined] completed. *)
  | Thread_done of { step : int; tid : int }
  | Failure_detected of {
      step : int;
      tid : int;
      site_id : int;
      kind : Conair_ir.Instr.failure_kind;
    }  (** a hardened site's recovery check was reached *)
  | Rollback of { step : int; tid : int; site_id : int; retry : int }
      (** [tid] rolls back to its checkpoint; the steps it retired since
          are wasted work charged to [site_id]. *)
  | Compensate_block of { step : int; tid : int; block : int }
      (** the compensation freed heap block [block] *)
  | Recovered of { step : int; tid : int; site_id : int }
  | Failed of { step : int; tid : int; site_id : int; msg : string }
      (** the run failed in [tid]: the fail-stop of [site_id], or an
          unhardened failure (assert, fault) when [site_id] is [-1] *)
  (* -- per-step -- *)
  | Step of { step : int; tid : int; iid : int; ckpt : bool; woke : bool }
      (** [tid] is about to execute the instruction [iid] ([-1] at a
          terminator); [ckpt] when it is a [Checkpoint]; [woke] when the
          thread was a sleeper that wakes to run it. *)
  | Idle of { step : int }  (** virtual time passed, nobody eligible *)
  | Output of { step : int; tid : int; text : string }
  | Checkpoint of { step : int; tid : int; ckpt_id : int }
  (* -- access -- *)
  | Access of { step : int; tid : int; iid : int; kind : kind; addr : addr }
      (** an attempted memory access, reported before the memory
          operation, so faulting accesses are seen too *)

(** What an observer may ask the machine about a thread at the moment
    of an event — built only when asked. Under an observer that takes
    no per-step events and without a feed, the block engine's contended
    phases run a thread's register-only code ahead of the clock, so
    [stack] and [block] are exact only for the thread of a sync or
    access event (which holds no steps run ahead); for any other
    thread, and at a {!Decide}, they may show a later position.
    [locks], which such code never changes, is exact for every
    thread. *)
type view = {
  stack : int -> string list;
      (** the thread's call stack as function names, innermost first *)
  block : int -> string;  (** the label of the thread's current block *)
  locks : int -> string list;  (** the locks the thread holds, sorted *)
}

type observer = {
  decisions : bool;
  sync : bool;
  steps : bool;
  accesses : bool;
  on : view -> t -> unit;
}

val observer :
  ?decisions:bool ->
  ?sync:bool ->
  ?steps:bool ->
  ?accesses:bool ->
  (view -> t -> unit) ->
  observer
(** An observer of the classes it names (each defaults to [false]). *)

val combine : observer list -> observer
(** One observer feeding each of the given ones the events of the
    classes it consumes, in list order. *)
