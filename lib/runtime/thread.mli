(** Per-thread interpreter state: the call stack, the single checkpoint
    slot (the thread-local jmp_buf of Fig 6 — only the most recent
    reexecution point is kept), per-site retry counters, and the
    resource-acquisition log behind the §4.1 compensation.

    Frames run the pre-resolved ([Link]ed) program: registers live in a
    flat [Value.t array] indexed by the function's interning, with
    [undef] marking never-written slots. *)

open Conair_ir
module Reg = Ident.Reg
module Label = Ident.Label

val undef : Value.t
(** The "undefined register" sentinel. Compare with physical equality
    ([==]): only this exact allocation means "never written". *)

type frame = {
  func : Link.lfunc;
  mutable block : Link.lblock;
  mutable idx : int;  (** next instruction; [= length] means terminator *)
  mutable regs : Value.t array;  (** indexed by the function's interning *)
  mutable stack_vars : (string, Value.t) Hashtbl.t option;
      (** named frame slots, allocated on first write; [None] reads as an
          empty table *)
  ret_reg : int option;  (** caller's register index for the return value *)
}

(** The saved register image + program point. Resumption happens after
    the [Checkpoint] instruction (like returning from [setjmp] via
    [longjmp]); the region counter is not re-incremented, so resources
    re-acquired during a retry keep their region tag. The resume block is
    kept by label and re-resolved at rollback against the frame's own
    function (cross-function checkpoints restore registers by name). *)
type checkpoint = {
  ck_depth : int;  (** call-stack depth at save time *)
  ck_func : Link.lfunc;  (** the interning of [ck_regs] *)
  ck_block : Label.t;
  ck_idx : int;
  ck_regs : Value.t array;  (** a private copy, never aliased by a frame *)
  ck_counter : int;
  ck_step : int;  (** when taken, for the rollback-safety verifier *)
}

type status =
  | Runnable
  | Sleeping of int  (** until this step *)
  | Blocked_lock of { name : string; since : int; timeout : int option }
  | Blocked_event of { name : string; since : int; timeout : int option }
  | Blocked_join of int
  | Done
  | Failed

(** A resource acquired inside the current reexecution region, to release
    if it rolls back (§4.1). *)
type resource = R_lock of string | R_block of int

type recovering = { rec_site : int; rec_start : int; rec_retries_before : int }

type t = {
  tid : int;
  mutable stack : frame list;  (** top first *)
  mutable stack_depth : int;  (** invariant: [= List.length stack] *)
  mutable status : status;
  mutable checkpoint : checkpoint option;
  mutable region_counter : int;
  retries : (int, int) Hashtbl.t;  (** site_id → rollbacks so far *)
  mutable acq_log : (resource * int) list;  (** resource, region tag *)
  mutable last_pruned_region : int;  (** region tag the log was last pruned to *)
  mutable last_destroy_step : int;
  mutable recovering : recovering option;
  mutable ahead : int;
      (** Credit: the number of steps of its own code the thread has
          executed beyond the machine's clock. Only the block engine's
          contended phases run a thread ahead, and only through
          register-only code ([Compile]'s [cb_local]), so while it is
          positive the thread's registers and program point are that
          many steps ahead of every other observable and nothing else
          about it is: each later step the scheduler gives the thread
          consumes one credit instead of running code. Always [0] on the
          other engines, and whenever the thread runs anything that is
          not register-only. *)
}

val make_frame :
  Link.lfunc -> args:Value.t array -> ret_reg:int option -> frame
(** @raise Invalid_argument on an arity mismatch. *)

val stack_tbl : frame -> (string, Value.t) Hashtbl.t
(** The frame's named-slot table, allocating it on first use. *)

val create : tid:int -> Link.lfunc -> args:Value.t array -> t

val top : t -> frame
(** @raise Invalid_argument on an empty stack. *)

val depth : t -> int
(** O(1): reads the maintained counter. *)

val push_frame : t -> frame -> unit
val pop_frame : t -> frame
(** @raise Invalid_argument on an empty stack. *)

val retries_of : t -> int -> int
val bump_retries : t -> int -> unit

val log_acquisition : t -> resource -> unit
(** Log under the current region tag; entries from older regions are
    dropped the first time the log is touched after the region advances
    (not on every append). *)

val current_region_acquisitions :
  t -> (resource * int) list * (resource * int) list
(** Partition the log into (current region, the rest). *)

val is_live : t -> bool
