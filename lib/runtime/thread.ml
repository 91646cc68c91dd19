(* Per-thread interpreter state over the pre-resolved ([Link]ed) program:
   frames hold a flat register array indexed by the function's interned
   register indices, the call stack's depth is maintained as a counter
   (not recomputed by [List.length]), and the acquisition log is pruned
   only when the reexecution region actually advances. *)

open Conair_ir
module Reg = Ident.Reg
module Label = Ident.Label

(* The "undefined register" sentinel. A register-array slot holding this
   exact allocation (physical equality) has never been written; a program
   that computes [Int min_int] gets a *different* allocation, so user
   values can never be mistaken for it. *)
let undef : Value.t = Value.Int min_int

type frame = {
  func : Link.lfunc;
  mutable block : Link.lblock;
  mutable idx : int;  (** next instruction index; [= length] means terminator *)
  mutable regs : Value.t array;  (** indexed by the function's interning *)
  mutable stack_vars : (string, Value.t) Hashtbl.t option;
      (** named frame slots, allocated on first write: most frames never
          touch one, and calls are hot enough that the empty table was a
          measurable cost *)
  ret_reg : int option;  (** caller's register index for the return value *)
}

(** The saved register image + program point (setjmp analogue). Resumption
    happens *after* the [Checkpoint] instruction, like returning from
    [setjmp] via [longjmp]: the region counter is not incremented again, so
    resources re-acquired during the retry keep the same region tag.

    The resume block is remembered by *label*, not index: applicability
    and rollback re-resolve it against whatever function the frame at the
    checkpoint's depth currently runs — the original map-based semantics,
    which the robustness tests pin down with same-label cross-function
    shapes. [ck_func] remembers which interning [ck_regs] is indexed by,
    for the rare cross-function restore. *)
type checkpoint = {
  ck_depth : int;  (** call-stack depth at save time *)
  ck_func : Link.lfunc;  (** the interning of [ck_regs] *)
  ck_block : Label.t;
  ck_idx : int;  (** resume index (just past the checkpoint) *)
  ck_regs : Value.t array;  (** a private copy, never aliased by a frame *)
  ck_counter : int;
  ck_step : int;  (** when it was taken, for the rollback-safety verifier *)
}

type status =
  | Runnable
  | Sleeping of int  (** until this step *)
  | Blocked_lock of { name : string; since : int; timeout : int option }
  | Blocked_event of { name : string; since : int; timeout : int option }
  | Blocked_join of int
  | Done
  | Failed

(** A resource acquired inside the current reexecution region, to be
    released if the region rolls back (§4.1). *)
type resource = R_lock of string | R_block of int

type recovering = { rec_site : int; rec_start : int; rec_retries_before : int }

type t = {
  tid : int;
  mutable stack : frame list;  (** top of stack first *)
  mutable stack_depth : int;  (** invariant: [= List.length stack] *)
  mutable status : status;
  mutable checkpoint : checkpoint option;
  mutable region_counter : int;
  retries : (int, int) Hashtbl.t;  (** site_id -> rollbacks so far *)
  mutable acq_log : (resource * int) list;  (** resource, region tag *)
  mutable last_pruned_region : int;  (** region tag the log was last pruned to *)
  mutable last_destroy_step : int;
  mutable recovering : recovering option;
  mutable ahead : int;
      (** steps of its own register-only code the thread has executed
          beyond the machine's clock ([Block_machine]'s run-ahead) *)
}

let make_frame (func : Link.lfunc) ~args ~ret_reg =
  if Array.length args <> func.Link.lf_nparams then
    invalid_arg
      (Format.asprintf "call to %a: arity mismatch" Ident.Fname.pp
         func.Link.lf_name);
  let regs = Array.make (max 1 func.Link.lf_nregs) undef in
  (* Assign through the param index table so duplicate parameter names
     keep the map semantics (the last binding wins). *)
  Array.iteri (fun i a -> regs.(func.Link.lf_param_index.(i)) <- a) args;
  {
    func;
    block = func.Link.lf_blocks.(func.Link.lf_entry);
    idx = 0;
    regs;
    stack_vars = None;
    ret_reg;
  }

(* A read against a frame with no table behaves as an empty table. *)
let stack_tbl fr =
  match fr.stack_vars with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 8 in
      fr.stack_vars <- Some h;
      h

let create ~tid (func : Link.lfunc) ~args =
  {
    tid;
    stack = [ make_frame func ~args ~ret_reg:None ];
    stack_depth = 1;
    status = Runnable;
    checkpoint = None;
    region_counter = 0;
    retries = Hashtbl.create 4;
    acq_log = [];
    last_pruned_region = 0;
    last_destroy_step = -1;
    recovering = None;
    ahead = 0;
  }

let top t =
  match t.stack with
  | f :: _ -> f
  | [] -> invalid_arg "Thread.top: empty stack"

let depth t = t.stack_depth

let push_frame t fr =
  t.stack <- fr :: t.stack;
  t.stack_depth <- t.stack_depth + 1

let pop_frame t =
  match t.stack with
  | fr :: rest ->
      t.stack <- rest;
      t.stack_depth <- t.stack_depth - 1;
      fr
  | [] -> invalid_arg "Thread.pop_frame: empty stack"

let retries_of t site =
  Option.value ~default:0 (Hashtbl.find_opt t.retries site)

let bump_retries t site = Hashtbl.replace t.retries site (retries_of t site + 1)

(** Log an acquisition under the current region tag. Entries from older
    regions are dropped only when the region has advanced since the last
    prune: within a region every retained entry already carries the
    current tag, so re-filtering on each acquisition (the previous
    behaviour) was a quadratic no-op. *)
let log_acquisition t r =
  if t.last_pruned_region <> t.region_counter then begin
    t.acq_log <- List.filter (fun (_, tag) -> tag = t.region_counter) t.acq_log;
    t.last_pruned_region <- t.region_counter
  end;
  t.acq_log <- (r, t.region_counter) :: t.acq_log

(** Resources acquired in the current region, and the log without them. *)
let current_region_acquisitions t =
  List.partition (fun (_, tag) -> tag = t.region_counter) t.acq_log

let is_live t =
  match t.status with
  | Done | Failed -> false
  | Runnable | Sleeping _ | Blocked_lock _ | Blocked_event _ | Blocked_join _
    ->
      true
