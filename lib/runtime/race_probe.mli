(** The engine-side probe of the dynamic race/deadlock detector.

    A machine holds a [probe option] (see [Machine.set_race] /
    [Ref_machine.set_race]) and invokes the callbacks as it executes —
    one [match] per memory/synchronization operation when off, mirroring
    [Trace.sink] and [Profile]. The analyses (vector-clock
    happens-before, Eraser-style lockset, lock-order graph) live in
    [Conair_race]; this module only defines the callback record so the
    runtime need not depend on the detector.

    Events carry names (function qnames, block labels, lock names) and
    sorted locksets, never indices or hash order, so the fast and
    reference engines feed byte-identical streams; everything is in
    virtual time, so reports are exactly as deterministic as the
    execution itself. *)

(** The address classes of the Mir memory model. *)
type addr =
  | A_global of string  (** a named global *)
  | A_slot of int * string  (** a stack slot, keyed by owning thread *)
  | A_cell of int * int  (** one heap cell: block id, absolute offset *)
  | A_block of int  (** a whole heap block, as freed by [Free] *)

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
      (** An attempted memory access, emitted before the memory
          operation (faulting accesses are still seen). [stack] is
          innermost-first function names; [locks] the held lockset,
          sorted. [None] for an observer of synchronization only: every
          other callback fires at a schedulable operation, so such a
          probe leaves the block engine on its compiled window path
          ([Block_machine]) and costs the straight-line code nothing. *)
  rp_acquire :
    step:int -> tid:int -> iid:int -> lock:string -> locks:string list -> unit;
      (** Successful acquisition; [locks] includes [lock]. *)
  rp_request :
    step:int -> tid:int -> iid:int -> lock:string -> locks:string list -> unit;
      (** The thread found [lock] held and is blocking — emitted once
          per blocking episode, at the transition to blocked. *)
  rp_release : step:int -> tid:int -> lock:string -> unit;
      (** Release by [Unlock] or by the recovery compensation. *)
  rp_spawn : step:int -> parent:int -> child:int -> unit;
  rp_join : step:int -> tid:int -> joined:int -> unit;
  rp_wake : step:int -> waker:int -> woken:int -> unit;
}
