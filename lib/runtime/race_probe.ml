(* The engine-side half of the dynamic race/deadlock detector.

   Like [Profile], this module is deliberately tiny: it only defines the
   *probe* record a machine calls into. The machine holds a
   [probe option] and pays one [match] per memory/synchronization
   operation when no detector is installed; the analyses that give the
   events meaning (vector-clock happens-before, lockset, lock-order
   graph) live upstack in [Conair_race], which keeps the runtime free of
   a dependency on the detector.

   Events carry *names* (function qualified names, block label names,
   lock names), never link-time indices: the reference interpreter has
   no [Link] pass, and the cross-engine differential test demands both
   engines feed byte-identical events. Locksets are passed sorted so the
   stream does not depend on hash-table iteration order.

   Addresses are classified, not flat: a detector needs to know that a
   [Free] conflicts with every cell of the freed block, and that stack
   slots are thread-private. Virtual time ([step]) makes the event
   stream — and therefore any report derived from it — exactly as
   deterministic as the execution itself. *)

(** The address classes of the Mir memory model. *)
type addr =
  | A_global of string  (** a named global *)
  | A_slot of int * string
      (** a stack slot, keyed by owning thread: thread-private by
          construction, included so the event schema covers every access *)
  | A_cell of int * int  (** one heap cell: block id, absolute offset *)
  | A_block of int
      (** a whole heap block — emitted by [Free], which conflicts with
          every access to any cell of the block *)

type kind = Read | Write

type probe = {
  rp_access :
    (step:int ->
    tid:int ->
    iid:int ->
    stack:string list ->
    block:string ->
    kind:kind ->
    addr:addr ->
    locks:string list ->
    unit)
    option;
      (** Thread [tid] is about to access [addr]. Emitted after the
          operands are evaluated and *before* the memory operation, so
          attempted accesses that fault (use-after-free, out-of-bounds)
          are still seen. [stack]: call stack as function names,
          innermost first. [block]: current block label. [locks]: the
          lockset held by [tid], sorted. [None] for an observer of
          synchronization only: the other callbacks all fire at
          schedulable operations, which every engine executes
          interpretively, so such a probe does not push the block
          engine off its compiled window path. *)
  rp_acquire :
    step:int -> tid:int -> iid:int -> lock:string -> locks:string list -> unit;
      (** [tid] successfully acquired [lock]. [locks] is the held set
          *after* the acquisition (it includes [lock]), sorted. *)
  rp_request :
    step:int -> tid:int -> iid:int -> lock:string -> locks:string list -> unit;
      (** [tid] wants [lock] but found it held and is blocking — emitted
          once per blocking episode, at the transition to blocked (the
          same guard as the [Ev_block] trace event). [locks] is the held
          set, sorted; a request for a lock in its own held set is a
          self-deadlock. Blocked acquisitions matter: in a hanging run
          the deadlock cycle exists only among *requests*, never among
          completed acquisitions. *)
  rp_release : step:int -> tid:int -> lock:string -> unit;
      (** [tid] released [lock] — by [Unlock] or by the recovery
          compensation's forced release (the detector must see both, or
          its lockset tracking drifts from the machine's). *)
  rp_spawn : step:int -> parent:int -> child:int -> unit;
      (** [parent] spawned [child]: a happens-before edge. *)
  rp_join : step:int -> tid:int -> joined:int -> unit;
      (** [tid]'s join on [joined] completed: a happens-before edge from
          everything [joined] did. *)
  rp_wake : step:int -> waker:int -> woken:int -> unit;
      (** [waker]'s notify woke [woken] from its wait: a happens-before
          edge. *)
}
