(* The block-compilation ("threaded code") pass over [Link]'s output.

   [Link] already resolved every name to a dense index; this pass goes
   further. Each linked instruction becomes ONE OCaml closure with its
   operand decoding done at compile time: register indices, constants,
   callee functions, jump targets and fault-message strings are captured
   in the closure's environment, so executing it is a single indirect
   call with no [match] over the opcode. The closure executes its body
   and tail-calls the *next* instruction's closure: [cb_chain.(i)] is
   the fused run from index [i]. Chains share their tails — compiling a
   block of [n] instructions builds [O(n)] closures — and because every
   index has a chain, a thread that re-enters a block mid-way still
   lands on fused code.

   Control transfers chain too: a jump, branch, call or return link
   moves the program point and then — if the window's step budget
   ([m.wbound], owned by [Block_machine]) covers the target's worst-case
   run — tail-calls straight into the target block's chain, never
   returning to the driver. A long single-threaded stretch therefore
   executes as one closure-to-closure trampoline, and the driver is
   consulted only when the budget runs low or a stopper is reached.

   The unit of partitioning is the *schedulable operation*. Instructions
   that can only affect the executing thread's own registers, stack
   slots, heap cells or globals — and can therefore never change another
   thread's eligibility — compile to real code; the schedulable ones
   (lock/unlock, spawn/join, sleep, wait/notify, recovery and fail-stop,
   i.e. exactly the points where the scheduler makes visible
   decisions) are chain stoppers that hand the op back to the driver,
   which runs it through [Machine.run_thread_step]. Retiring the runs
   in between without
   consulting the scheduler is semantics-preserving precisely when the
   scheduler's choice over the window is forced (one eligible thread)
   and no tap must hear it (a feed is told the window's decisions as
   one count); with several threads eligible the driver still decides
   every step, but no run in between changes who is eligible.

   Every link has one form. It runs its op's body, adds 1 to [m.step]
   and tail-calls its successor, so [m.step] counts exactly the
   instructions retired, at every point of a chain: a checkpoint's
   [ck_step], a failure record, an access event and the destroying
   preamble's [last_destroy_step] all read the reference's value.
   Chains move [fr.idx] only where it is read: a transfer moves it to
   the target, a call parks the caller after the call, and a stopper
   parks it on its op (a checkpoint records [k + 1] as its point).
   Elsewhere it is stale, so a link that can raise first parks
   [fr.idx <- k]: a fault leaves the faulting instruction at [fr.idx]
   and its step uncounted, which is where the driver's fault arm reads
   the iid and where a run ahead of the clock stops. The one fault that
   historically fired after a frame pop (return-with-no-value) is
   compiled inline instead of raised.

   Links emit what [Ref_machine] emits for their opcode. The seven
   memory links emit [Access] when the observer takes accesses
   ([Machine.access]), before the memory operation like the reference —
   global and stack ones before it, indexed ones after operand
   evaluation and only for a pointer, [free] as a whole block; a bare
   run pays one [match] per memory op. The output and checkpoint links
   emit [Output] and [Checkpoint] to an observer of per-step events; the
   [Step] events themselves come from [Block_machine], which under such
   an observer retires every instruction through its single-step form.

   Every instruction also has a single-step form, [cb_one.(i)]: the
   same builder given a continuation that parks [fr.idx] on the next
   instruction and stops. The driver uses it to retire the tail of a
   window one step at a time when the remaining budget is smaller than
   the chain, and [Block_machine]'s contended phases and its single
   step use it (with the budget floored, so transfers never chain) to
   retire the chosen thread's one instruction per scheduling decision.
   A block's single-step forms are built the first time it is
   single-stepped ([one]); blocks that only ever run as chains never pay
   for them.

   Every index also carries [cb_local], the length of the
   register-only run from it through the block's terminator ([local]:
   moves, binops, unops and nops, ended by a jump or a branch), [0]
   where anything else lies on the way. A contended phase runs such
   code ahead of the clock ([Block_machine]): with [m.wbound] floored,
   the chain at a positive index retires exactly that run, or raises
   before its faulting instruction, and touches nothing another thread
   can see.

   Loops of register-only blocks over ints and bools — the arithmetic
   kernels most steps of a run are spent in — run one tier further
   down, unboxed: each block of such a loop has, at index 0, an entry
   link that checks the registers live into the loop hold the kinds
   the loop gives them, copies them into a scratch [int array], runs
   whole blocks there while the budget allows, and writes back only
   what the executed blocks wrote, leaving the step count and the
   program point where the boxed chain would. It is exact because the
   checks make every read in the loop see a value of its kind, on
   which the unboxed arithmetic is the boxed one, and because such code
   reads no clock and emits nothing; what fails a check runs the boxed
   chain. The section before [compile_block] has the argument.

   Nothing is compiled up front. [compile] hands out the image's code
   object with every slot holding one shared [pending] block; [block],
   the driver's only lookup, compiles a block the first time a thread
   stands in it and stores it in its slot. Transfer links capture their
   target function's slot array, not a block, so they find a block
   compiled after them in place. A link that chains into a slot still
   pending calls the pending block's entry, which returns [t_refresh]:
   the program point is already on the target, and the driver's next
   lookup compiles it. Runs reach a small part of a hardened program —
   its fail arms only when a failure is recovered — so compiling on
   entry keeps a fraction of the code an eager pass would build.

   The spec of every closure is [Ref_machine]'s semantics for its
   opcode, *including evaluation order* (binop operands bind
   right-to-left, call arguments left-to-right) and fault messages.
   Off the hot paths closures call [Machine]'s shared runtime
   ([eval_binop], [do_return], [set_failure], ...), the code the
   schedulable ops run too. The differential suite in
   [test_fast_exec.ml] enforces bit-for-bit identity with [Ref_machine]
   over the bugbench catalog and generated programs, and its
   fault-attribution table over every op that can fault. *)

open Conair_ir
module Fname = Ident.Fname

(* Chain results, as unboxed ints so a run's completion allocates
   nothing. Everything retired up to the returned point has already
   bumped [m.step]. [t_refresh] is also what a pending block and a
   single-step form return. *)
let t_refresh = 0
let t_end = 1
let t_sched = 2
let t_failed = 3

type chain = Machine.t -> Thread.t -> Thread.frame -> int

type cblock = {
  cb_chain : chain array;
      (** indexed by [fr.idx]; slot [length lb_instrs] is the
          terminator: the fused run from that entry point *)
  mutable cb_one : chain array;
      (** same links with the [park] continuation: retires exactly one
          instruction (transfers still gate on [m.wbound]); empty until
          the block is first single-stepped ([one]) *)
  cb_iids : int array;  (** per-instruction iids, for fault reports *)
  cb_need : int array;
      (** worst-case step budget the chain at this index consumes
          before its next [m.wbound] gate, counting the generic step of
          a stopping schedulable op *)
  cb_sched : bool array;
      (** true where the slot holds a schedulable-op stopper *)
  cb_local : int array;
      (** steps from this index through a jump or branch terminator
          when all of them are register-only ([local]), else [0] *)
}

(* Hand back to the driver with nothing retired. *)
let refresh : chain = fun _ _ _ -> t_refresh

(* Shared boolean results: [Value.t] carries no identity anywhere but the
   [undef] sentinel, so comparisons reuse one allocation. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false

(* Operand reads: [Machine.eval] inline. A call into [Machine] is an
   indirect call wherever modules compile opaque (dune's default
   profile), and the hot links read every operand, so only the fault
   and its message are left to [Machine]. *)
let[@inline never] undefined (fr : Thread.frame) i = Machine.eval_reg fr i

let[@inline] reg (fr : Thread.frame) i =
  let v = fr.Thread.regs.(i) in
  if v == Thread.undef then undefined fr i else v

let[@inline] ev (fr : Thread.frame) (a : Link.rarg) =
  match a with Link.L_reg i -> reg fr i | Link.L_const v -> v

(* How an instruction takes part in the closure arrays. A straight-line
   op compiles to one builder, [C_link], from a successor to the op's
   link; the chain builds it on the next index's chain, the single-step
   form on [park (k + 1)]. Builders return a closure from under a [let]
   so the partial application is a real closure, not a [caml_curry]
   trampoline. *)
type comp =
  | C_sched  (** schedulable: a stopper in both forms *)
  | C_link of (chain -> chain)
  | C_halt of chain
      (** one closure serves both forms (calls and always-faulting ops:
          the chain ends with the op either way) *)

(* The single-step continuation: the link counted its step; leave the
   program point on the next instruction and stop. *)
let park j : chain =
 fun _ _ fr ->
  fr.Thread.idx <- j;
  t_refresh

(* A schedulable-op stopper: park the program point on the op and hand
   back to the driver. *)
let stop_at k : chain =
 fun _ _ fr ->
  fr.Thread.idx <- k;
  t_sched

(* The destroying preamble, compiled in only where the static flag is
   set. Applied to inline ops only: schedulable ops run the preamble
   inside [Machine.run_thread_step]. It runs before the link counts its
   step, so [last_destroy_step] matches the reference exactly. *)
let destroying_link (i : Link.linstr) (body : chain) : chain =
  if not i.Link.li_destroying then body
  else
    fun m th fr ->
      th.Thread.last_destroy_step <- m.Machine.step;
      (match th.Thread.recovering with
      | None -> ()
      | Some _ -> Machine.close_episode m th);
      body m th fr

(* The straight-line links. Each counts its step after its body, and
   each that can raise parks [fr.idx <- k] first. *)
let compile_comp (prog : cblock array array) (lp : Link.program) (k : int)
    (i : Link.linstr) : comp =
  let iid = i.Link.li_iid in
  match i.Link.li_op with
  (* -- schedulable ops: chain stoppers, run by [run_thread_step] ------ *)
  | Link.L_lock _ | Link.L_timed_lock _ | Link.L_unlock _ | Link.L_spawn _
  | Link.L_join _ | Link.L_sleep _ | Link.L_wait _ | Link.L_timed_wait _
  | Link.L_notify _ | Link.L_try_recover _ | Link.L_fail_stop _ ->
      C_sched
  (* -- straight-line ops: compiled to code --------------------------- *)
  | Link.L_move (r, a) ->
      C_link
        (fun next ->
          let l m th fr =
            fr.Thread.idx <- k;
            fr.Thread.regs.(r) <- ev fr a;
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_binop (r, op, a, b) ->
      (* operands bind right-to-left, as in the reference's
         [eval_binop op (eval fr a) (eval fr b)]: b's fault wins. Two
         ints compute inline; anything else, a zero divisor and the
         logical ops go to [Machine.eval_binop], whose coercions and
         fault messages the reference shares. *)
      C_link
        (fun next ->
          let l m th fr =
            fr.Thread.idx <- k;
            let vb = ev fr b in
            let va = ev fr a in
            fr.Thread.regs.(r) <-
              (match (va, vb) with
              | Value.Int x, Value.Int y -> (
                  match op with
                  | Instr.Add -> Value.Int (x + y)
                  | Instr.Sub -> Value.Int (x - y)
                  | Instr.Mul -> Value.Int (x * y)
                  | Instr.Div when y <> 0 -> Value.Int (x / y)
                  | Instr.Mod when y <> 0 -> Value.Int (x mod y)
                  | Instr.Lt -> if x < y then vtrue else vfalse
                  | Instr.Le -> if x <= y then vtrue else vfalse
                  | Instr.Gt -> if x > y then vtrue else vfalse
                  | Instr.Ge -> if x >= y then vtrue else vfalse
                  | Instr.Eq -> if x = y then vtrue else vfalse
                  | Instr.Ne -> if x <> y then vtrue else vfalse
                  | Instr.Div | Instr.Mod | Instr.And | Instr.Or ->
                      Machine.eval_binop op va vb)
              | _ -> Machine.eval_binop op va vb);
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_unop (r, op, a) ->
      C_link
        (fun next ->
          let l m th fr =
            fr.Thread.idx <- k;
            fr.Thread.regs.(r) <- Machine.eval_unop op (ev fr a);
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_load_global (r, g) ->
      let msg = "load of undeclared global " ^ g in
      let addr = Event.A_global g in
      C_link
        (fun next ->
          let l m th fr =
            fr.Thread.idx <- k;
            (match m.Machine.obs with
            | Some o when o.Event.accesses ->
                Machine.access m ~tid:th.Thread.tid ~iid Event.Read addr
            | _ -> ());
            (match Hashtbl.find_opt m.Machine.globals g with
            | Some v -> fr.Thread.regs.(r) <- v
            | None -> raise (Machine.Fault msg));
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_load_stack (r, s) ->
      C_link
        (fun next ->
          let l m th fr =
            (match m.Machine.obs with
            | Some o when o.Event.accesses ->
                Machine.access m ~tid:th.Thread.tid ~iid Event.Read
                  (Event.A_slot (th.Thread.tid, s))
            | _ -> ());
            fr.Thread.regs.(r) <-
              (match fr.Thread.stack_vars with
              | None -> Value.zero
              | Some h ->
                  Option.value ~default:Value.zero (Hashtbl.find_opt h s));
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_store_global (g, a) ->
      let msg = "store to undeclared global " ^ g in
      let addr = Event.A_global g in
      C_link
        (fun next ->
          let l m th fr =
            fr.Thread.idx <- k;
            (match m.Machine.obs with
            | Some o when o.Event.accesses ->
                Machine.access m ~tid:th.Thread.tid ~iid Event.Write addr
            | _ -> ());
            if Hashtbl.mem m.Machine.globals g then
              Hashtbl.replace m.Machine.globals g (ev fr a)
            else raise (Machine.Fault msg);
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_store_stack (s, a) ->
      C_link
        (fun next ->
          let l m th fr =
            fr.Thread.idx <- k;
            (match m.Machine.obs with
            | Some o when o.Event.accesses ->
                Machine.access m ~tid:th.Thread.tid ~iid Event.Write
                  (Event.A_slot (th.Thread.tid, s))
            | _ -> ());
            Hashtbl.replace (Thread.stack_tbl fr) s (ev fr a);
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_load_idx (r, p, ix) ->
      C_link
        (fun next ->
          let l m th fr =
            fr.Thread.idx <- k;
            let iv = Machine.as_int (ev fr ix) in
            let pv = ev fr p in
            (match m.Machine.obs with
            | Some o when o.Event.accesses -> (
                match pv with
                | Value.Ptr { Value.block; offset } ->
                    Machine.access m ~tid:th.Thread.tid ~iid Event.Read
                      (Event.A_cell (block, offset + iv))
                | _ -> ())
            | _ -> ());
            (match Heap.load m.Machine.heap pv iv with
            | Ok v -> fr.Thread.regs.(r) <- v
            | Error e -> raise (Machine.Fault e));
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_store_idx (p, ix, v) ->
      C_link
        (fun next ->
          let l m th fr =
            fr.Thread.idx <- k;
            let vv = ev fr v in
            let iv = Machine.as_int (ev fr ix) in
            let pv = ev fr p in
            (match m.Machine.obs with
            | Some o when o.Event.accesses -> (
                match pv with
                | Value.Ptr { Value.block; offset } ->
                    Machine.access m ~tid:th.Thread.tid ~iid Event.Write
                      (Event.A_cell (block, offset + iv))
                | _ -> ())
            | _ -> ());
            (match Heap.store m.Machine.heap pv iv vv with
            | Ok () -> ()
            | Error e -> raise (Machine.Fault e));
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_alloc (r, n) ->
      C_link
        (fun next ->
          let l m th fr =
            fr.Thread.idx <- k;
            let ptr = Heap.alloc m.Machine.heap (Machine.as_int (ev fr n)) in
            Thread.log_acquisition th (Thread.R_block ptr.Value.block);
            fr.Thread.regs.(r) <- Value.Ptr ptr;
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_free p ->
      C_link
        (fun next ->
          let l m th fr =
            fr.Thread.idx <- k;
            let pv = ev fr p in
            (match m.Machine.obs with
            | Some o when o.Event.accesses -> (
                match pv with
                | Value.Ptr { Value.block; _ } ->
                    Machine.access m ~tid:th.Thread.tid ~iid Event.Write
                      (Event.A_block block)
                | _ -> ())
            | _ -> ());
            (match Heap.free m.Machine.heap pv with
            | Ok () -> ()
            | Error e -> raise (Machine.Fault e));
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_assert { cond; msg; oracle } ->
      let kind = if oracle then Instr.Wrong_output else Instr.Assert_fail in
      (* a failed assert records the failure at its own step, then
         counts it: the per-step engines' exact ordering *)
      C_link
        (fun next ->
          let l m th fr =
            fr.Thread.idx <- k;
            if Value.is_true (ev fr cond) then begin
              m.Machine.step <- m.Machine.step + 1;
              next m th fr
            end
            else begin
              Machine.set_failure m ~kind ~site_id:None ~iid:(Some iid)
                ~tid:th.Thread.tid ~msg;
              m.Machine.step <- m.Machine.step + 1;
              t_failed
            end
          in
          l)
  | Link.L_output { fmt; args } ->
      C_link
        (fun next ->
          let l m th fr =
            fr.Thread.idx <- k;
            let text =
              Machine.render_output fmt (Machine.eval_arg_list fr args)
            in
            m.Machine.outputs <- text :: m.Machine.outputs;
            m.Machine.stats.Stats.outputs <- m.Machine.stats.Stats.outputs + 1;
            (match m.Machine.obs with
            | Some o when o.Event.steps ->
                Machine.emit m
                  (Event.Output
                     { step = m.Machine.step; tid = th.Thread.tid; text })
            | _ -> ());
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_call { ret; fid; fname; args } ->
      if fid < 0 then
        let msg = Format.asprintf "call to unknown %a" Fname.pp fname in
        C_halt
          (fun _ _ fr ->
            fr.Thread.idx <- k;
            ignore (Machine.eval_args fr args : Value.t array);
            raise (Machine.Fault msg))
      else
        let callee = lp.Link.lp_funcs.(fid) in
        if Array.length args <> callee.Link.lf_nparams then
          (* arity mismatch: keep [make_frame]'s Invalid_argument, raised
             after argument evaluation exactly as the interpreter does *)
          C_halt
            (fun m th fr ->
              fr.Thread.idx <- k;
              let argv = Machine.eval_args fr args in
              fr.Thread.idx <- k + 1;
              Thread.push_frame th
                (Thread.make_frame callee ~args:argv ~ret_reg:ret);
              m.Machine.step <- m.Machine.step + 1;
              t_refresh)
        else
          (* Arguments are evaluated left-to-right like [eval_args] and
             written through the param-index table like [make_frame]
             (duplicate parameter names keep last-binding-wins) — but
             straight into the new frame's registers, skipping the argv
             array. The link then parks the caller after the call and
             chains into the callee's entry block when the window's
             budget covers it: [callee_cbs] aliases the callee's slot
             array, whose blocks compile in place on first entry, so
             mutual recursion needs no patching pass. *)
          let nregs = max 1 callee.Link.lf_nregs in
          let slot = callee.Link.lf_param_index in
          let entry_ix = callee.Link.lf_entry in
          let entry = callee.Link.lf_blocks.(entry_ix) in
          let callee_cbs = prog.(fid) in
          C_halt
            (fun m th fr ->
              fr.Thread.idx <- k;
              let regs = Array.make nregs Thread.undef in
              for j = 0 to Array.length args - 1 do
                regs.(slot.(j)) <- ev fr args.(j)
              done;
              fr.Thread.idx <- k + 1;
              let nf =
                {
                  Thread.func = callee;
                  block = entry;
                  idx = 0;
                  regs;
                  stack_vars = None;
                  ret_reg = ret;
                }
              in
              th.Thread.stack <- nf :: th.Thread.stack;
              th.Thread.stack_depth <- th.Thread.stack_depth + 1;
              m.Machine.step <- m.Machine.step + 1;
              let cb = callee_cbs.(entry_ix) in
              if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
                cb.cb_chain.(0) m th nf
              else t_refresh)
  | Link.L_nop ->
      C_link
        (fun next ->
          let l m th fr =
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_checkpoint id ->
      C_link
        (fun next ->
          let l m th fr =
            th.Thread.region_counter <- th.Thread.region_counter + 1;
            th.Thread.checkpoint <-
              Some
                {
                  Thread.ck_depth = Thread.depth th;
                  ck_func = fr.Thread.func;
                  ck_block = fr.Thread.block.Link.lb_label;
                  ck_idx = k + 1;
                  ck_regs = Array.copy fr.Thread.regs;
                  ck_counter = th.Thread.region_counter;
                  ck_step = m.Machine.step;
                };
            Stats.hit_checkpoint m.Machine.stats id;
            (match m.Machine.obs with
            | Some o when o.Event.steps ->
                Machine.emit m
                  (Event.Checkpoint
                     {
                       step = m.Machine.step;
                       tid = th.Thread.tid;
                       ckpt_id = id;
                     })
            | _ -> ());
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)
  | Link.L_ptr_guard (r, p, ix) ->
      C_link
        (fun next ->
          let l m th fr =
            fr.Thread.idx <- k;
            let iv = Machine.as_int (ev fr ix) in
            let pv = ev fr p in
            fr.Thread.regs.(r) <- Value.Bool (Heap.valid m.Machine.heap pv iv);
            m.Machine.step <- m.Machine.step + 1;
            next m th fr
          in
          l)

(* Terminators. Jump and branch targets are static, so their links chain
   straight into the target block's compiled code (budget permitting);
   a return chains into the caller's resumption point, found
   dynamically. [L_exit] decides the program's outcome and stays a
   schedulable-op stopper. *)
let compile_term (prog : cblock array array) (f : Link.lfunc)
    (blk : Link.lblock) : chain option =
  (* A terminator that can raise parks the program point on its slot
     first, like any link; moving [fr.idx] on success paths is already
     part of the transfer. *)
  let n = Array.length blk.Link.lb_instrs in
  match blk.Link.lb_term with
  | Link.L_jump t ->
      let tgt = f.Link.lf_blocks.(t) in
      let fcbs = prog.(f.Link.lf_id) in
      Some
        (fun m th fr ->
          fr.Thread.block <- tgt;
          fr.Thread.idx <- 0;
          m.Machine.step <- m.Machine.step + 1;
          let cb = fcbs.(t) in
          if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
            cb.cb_chain.(0) m th fr
          else t_refresh)
  | Link.L_branch (c, t, fl) ->
      let bt = f.Link.lf_blocks.(t) and bf = f.Link.lf_blocks.(fl) in
      let fcbs = prog.(f.Link.lf_id) in
      Some
        (match c with
        | Link.L_reg ic ->
            fun m th fr ->
              fr.Thread.idx <- n;
              let cond = Value.is_true (reg fr ic) in
              (match th.Thread.recovering with
              | None -> ()
              | Some _ ->
                  if cond then
                    Machine.note_branch_taken m th fr ~taken_idx:t ~other_idx:fl
                  else
                    Machine.note_branch_taken m th fr ~taken_idx:fl
                      ~other_idx:t);
              if cond then begin
                fr.Thread.block <- bt;
                fr.Thread.idx <- 0;
                m.Machine.step <- m.Machine.step + 1;
                let cb = fcbs.(t) in
                if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
                  cb.cb_chain.(0) m th fr
                else t_refresh
              end
              else begin
                fr.Thread.block <- bf;
                fr.Thread.idx <- 0;
                m.Machine.step <- m.Machine.step + 1;
                let cb = fcbs.(fl) in
                if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
                  cb.cb_chain.(0) m th fr
                else t_refresh
              end
        | Link.L_const v ->
            (* the taken arm is static: compile only it *)
            let cond = Value.is_true v in
            let taken_idx = if cond then t else fl
            and other_idx = if cond then fl else t in
            let tgt = if cond then bt else bf in
            fun m th fr ->
              (match th.Thread.recovering with
              | None -> ()
              | Some _ ->
                  Machine.note_branch_taken m th fr ~taken_idx ~other_idx);
              fr.Thread.block <- tgt;
              fr.Thread.idx <- 0;
              m.Machine.step <- m.Machine.step + 1;
              let cb = fcbs.(taken_idx) in
              if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
                cb.cb_chain.(0) m th fr
              else t_refresh)
  | Link.L_return v -> (
      (* The popping fast path replicates [Machine.do_return]'s caller
         arm; the last-frame (thread-death) case delegates to it. The
         value-expected fault is compiled inline — [do_return] raises it
         after popping, so raising from here would leave the fault arm
         looking at the caller's frame; emitting the failure directly
         keeps the bookkeeping (close episode, seg-fault record with no
         iid, step count) byte-identical. *)
      match v with
      | None ->
          Some
            (fun m th fr ->
              match th.Thread.stack with
              | _ :: (caller :: _ as rest) -> (
                  th.Thread.stack <- rest;
                  th.Thread.stack_depth <- th.Thread.stack_depth - 1;
                  match fr.Thread.ret_reg with
                  | Some _ ->
                      Machine.close_episode m th;
                      Machine.set_failure m ~kind:Instr.Seg_fault ~site_id:None
                        ~iid:None ~tid:th.Thread.tid
                        ~msg:"function returned no value but one was expected";
                      m.Machine.step <- m.Machine.step + 1;
                      t_failed
                  | None ->
                      m.Machine.step <- m.Machine.step + 1;
                      let cb =
                        prog.(caller.Thread.func.Link.lf_id).(caller.Thread
                                                                .block
                                                                .Link
                                                                .lb_index)
                      in
                      let i = caller.Thread.idx in
                      if m.Machine.step + cb.cb_need.(i) <= m.Machine.wbound
                      then cb.cb_chain.(i) m th caller
                      else t_refresh)
              | _ -> (
                  Machine.do_return m th None;
                  m.Machine.step <- m.Machine.step + 1;
                  match th.Thread.status with
                  | Thread.Done -> t_end
                  | _ -> t_refresh))
      | Some rv -> (
          match rv with
          | Link.L_reg ia ->
              Some
                (fun m th fr ->
                  fr.Thread.idx <- n;
                  let value = reg fr ia in
                  match th.Thread.stack with
                  | _ :: (caller :: _ as rest) ->
                      th.Thread.stack <- rest;
                      th.Thread.stack_depth <- th.Thread.stack_depth - 1;
                      (match fr.Thread.ret_reg with
                      | None -> ()
                      | Some r -> caller.Thread.regs.(r) <- value);
                      m.Machine.step <- m.Machine.step + 1;
                      let cb =
                        prog.(caller.Thread.func.Link.lf_id).(caller.Thread
                                                                .block
                                                                .Link
                                                                .lb_index)
                      in
                      let i = caller.Thread.idx in
                      if m.Machine.step + cb.cb_need.(i) <= m.Machine.wbound
                      then cb.cb_chain.(i) m th caller
                      else t_refresh
                  | _ -> (
                      Machine.do_return m th (Some value);
                      m.Machine.step <- m.Machine.step + 1;
                      match th.Thread.status with
                      | Thread.Done -> t_end
                      | _ -> t_refresh))
          | Link.L_const value ->
              Some
                (fun m th fr ->
                  match th.Thread.stack with
                  | _ :: (caller :: _ as rest) ->
                      th.Thread.stack <- rest;
                      th.Thread.stack_depth <- th.Thread.stack_depth - 1;
                      (match fr.Thread.ret_reg with
                      | None -> ()
                      | Some r -> caller.Thread.regs.(r) <- value);
                      m.Machine.step <- m.Machine.step + 1;
                      let cb =
                        prog.(caller.Thread.func.Link.lf_id).(caller.Thread
                                                                .block
                                                                .Link
                                                                .lb_index)
                      in
                      let i = caller.Thread.idx in
                      if m.Machine.step + cb.cb_need.(i) <= m.Machine.wbound
                      then cb.cb_chain.(i) m th caller
                      else t_refresh
                  | _ -> (
                      Machine.do_return m th (Some value);
                      m.Machine.step <- m.Machine.step + 1;
                      match th.Thread.status with
                      | Thread.Done -> t_end
                      | _ -> t_refresh))))
  | Link.L_exit -> None

(* Register-only: reads and writes nothing but the executing frame's
   registers and program point, reads no clock ([m.step],
   [last_destroy_step]), and emits nothing to any observer but one of
   per-step events. Such a step commutes with every step of every other
   thread, so [Block_machine] may retire it ahead of the clock. *)
let local (i : Link.linstr) =
  (not i.Link.li_destroying)
  &&
  match i.Link.li_op with
  | Link.L_move _ | Link.L_binop _ | Link.L_unop _ | Link.L_nop -> true
  | _ -> false

(* ---- the unboxed tier -------------------------------------------------

   A loop whose blocks are all register-only over ints and bools runs on
   a scratch [int array] ([m.uregs]) instead of the frame's boxed
   registers: one closure per instruction, no [Value.Int] allocated and
   no write barrier paid until the loop exits. A tier block holds only
   moves, binops, unops and nops over registers and [Int]/[Bool]
   constants (a division or modulo only by a nonzero constant), none
   destroying, and ends in a jump or a branch; a tier loop is a strongly
   connected set of them. [find_loops] works a function's loops out
   once, when its first block compiles, with one kind per register
   (Int or Bool) inferred from the loop's writes.

   Every block of a tier loop gets an entry link at index 0
   ([entry_link]). It runs the boxed chain instead unless the thread is
   not recovering and every register live into the block holds its
   kind, never [Thread.undef]. From there the loop's code is exact:

   - every register the loop reads holds its kind when read (written
     earlier on the path by an instruction of that result kind, or live
     in and checked), so no read faults and no division faults;
   - an Int [x] stands for [Int x] and a Bool for [0]/[1], under which
     [Machine.as_int], [Value.is_true] and the arithmetic agree with the
     boxed ones, and [Eq]/[Ne] of two kinds that differ are constant,
     as [Value.equal] never equates an [Int] with a [Bool];
   - it reads no clock, emits nothing and touches no other state, and
     a branch of a thread not recovering (which nothing in the loop can
     start) notes nothing.

   The loop runs whole blocks: the caller's gate covers the first one,
   and each later block runs only while [m.step] plus its length stays
   within the larger of [m.wbound] and [m.abound] ([Block_machine]'s
   window budget, or the limit of a run ahead of the clock). On exit
   the link boxes back the registers the executed blocks wrote, leaves
   [m.step], [fr.block] and [fr.idx] where the boxed chain would, and
   goes on as the boxed terminator would. The single-step forms never
   reach it. *)

type ucode = int array -> int
(** a tier block's code over the scratch file: the loop index of the
    successor, or [lnot] the function's index of a block off the loop *)

type uloop = {
  ul_blocks : int array;  (** loop index -> the function's block index *)
  ul_index : int array;
      (** the function's block index -> loop index, or [-1] *)
  ul_bool : bool array;  (** per register: is its kind Bool (else Int)? *)
  ul_live : int array array;
      (** per loop index: the registers the loop may read from that
          block before writing them *)
  ul_wregs : int array;  (** the registers the loop writes *)
  ul_wmask : int array;
      (** per [ul_wregs] entry: the loop's blocks that write it, one bit
          per loop index *)
  ul_len : int array;  (** per loop index: the block's steps *)
  ul_run : ucode array;  (** per loop index: the block's code *)
}

let uint = function
  | Value.Int x -> Some x
  | Value.Bool b -> Some (Bool.to_int b)
  | _ -> None

let tier_arg = function
  | Link.L_reg _ -> true
  | Link.L_const v -> uint v <> None

let tier_instr (i : Link.linstr) =
  (not i.Link.li_destroying)
  &&
  match i.Link.li_op with
  | Link.L_nop -> true
  | Link.L_move (_, a) | Link.L_unop (_, _, a) -> tier_arg a
  | Link.L_binop (_, (Instr.Div | Instr.Mod), a, Link.L_const d) ->
      tier_arg a && (match uint d with Some y -> y <> 0 | None -> false)
  | Link.L_binop (_, (Instr.Div | Instr.Mod), _, _) -> false
  | Link.L_binop (_, _, a, b) -> tier_arg a && tier_arg b
  | _ -> false

(* The blocks a tier block can transfer to. *)
let tier_succs (b : Link.lblock) =
  match b.Link.lb_term with
  | Link.L_jump t -> [ t ]
  | Link.L_branch (Link.L_reg _, t, fl) -> [ t; fl ]
  | Link.L_branch (Link.L_const v, t, fl) ->
      [ (if Value.is_true v then t else fl) ]
  | Link.L_return _ | Link.L_exit -> []

let tier_block (b : Link.lblock) =
  tier_succs b <> [] && Array.for_all tier_instr b.Link.lb_instrs

(* Strongly connected components of the subgraph of [ok] blocks
   (Tarjan): the component of each block, [-1] off the subgraph. *)
let components (blocks : Link.lblock array) ok =
  let n = Array.length blocks in
  let comp = Array.make n (-1) and index = Array.make n (-1) in
  let low = Array.make n 0 and on_stack = Array.make n false in
  let stack = ref [] and next = ref 0 and ncomp = ref 0 in
  let rec visit v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if ok.(w) then
          if index.(w) < 0 then begin
            visit w;
            low.(v) <- min low.(v) low.(w)
          end
          else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      (tier_succs blocks.(v));
    if low.(v) = index.(v) then begin
      let rec pop () =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp.(w) <- !ncomp;
            if w <> v then pop ()
        | [] -> ()
      in
      pop ();
      incr ncomp
    end
  in
  Array.iteri (fun v o -> if o && index.(v) < 0 then visit v) ok;
  comp

(* One kind per register over the loop's instructions: a move unites
   its two registers, every other write fixes its register's kind by
   its result ([Add]..[Mod] and [Neg] give Int, the rest Bool). [None]
   when two writes disagree; a register only read is Int. *)
let infer_kinds nregs (instrs : Link.linstr list) =
  let parent = Array.init nregs Fun.id and kind = Array.make nregs None in
  let rec find r =
    let p = parent.(r) in
    if p = r then r
    else
      let q = find p in
      parent.(r) <- q;
      q
  in
  List.iter
    (fun (i : Link.linstr) ->
      match i.Link.li_op with
      | Link.L_move (r, Link.L_reg a) -> parent.(find r) <- find a
      | _ -> ())
    instrs;
  let agree = ref true in
  let set r b =
    let r = find r in
    match kind.(r) with
    | None -> kind.(r) <- Some b
    | Some b' -> if b <> b' then agree := false
  in
  List.iter
    (fun (i : Link.linstr) ->
      match i.Link.li_op with
      | Link.L_move (r, Link.L_const v) ->
          set r (match v with Value.Bool _ -> true | _ -> false)
      | Link.L_binop (r, op, _, _) ->
          set r
            (match op with
            | Instr.Add | Instr.Sub | Instr.Mul | Instr.Div | Instr.Mod ->
                false
            | _ -> true)
      | Link.L_unop (r, op, _) -> set r (op <> Instr.Neg)
      | _ -> ())
    instrs;
  if !agree then Some (Array.init nregs (fun r -> kind.(find r) = Some true))
  else None

(* The registers a block reads before writing them, and those it
   writes. *)
let reads_writes nregs (b : Link.lblock) =
  let use = Array.make nregs false and def = Array.make nregs false in
  let read = function
    | Link.L_reg r -> if not def.(r) then use.(r) <- true
    | Link.L_const _ -> ()
  in
  Array.iter
    (fun (i : Link.linstr) ->
      match i.Link.li_op with
      | Link.L_move (r, a) | Link.L_unop (r, _, a) ->
          read a;
          def.(r) <- true
      | Link.L_binop (r, _, a, b) ->
          read a;
          read b;
          def.(r) <- true
      | _ -> ())
    b.Link.lb_instrs;
  (match b.Link.lb_term with Link.L_branch (c, _, _) -> read c | _ -> ());
  (use, def)

let[@inline] rd (r : int array) i = Array.unsafe_get r i
let[@inline] wr (r : int array) i (x : int) = Array.unsafe_set r i x

(* [Machine.eval_binop] over the tier's representation. *)
let uarith (op : Instr.binop) : int -> int -> int =
  match op with
  | Instr.Add -> ( + )
  | Instr.Sub -> ( - )
  | Instr.Mul -> ( * )
  | Instr.Div -> ( / )
  | Instr.Mod -> ( mod )
  | Instr.Lt -> fun (x : int) y -> Bool.to_int (x < y)
  | Instr.Le -> fun (x : int) y -> Bool.to_int (x <= y)
  | Instr.Gt -> fun (x : int) y -> Bool.to_int (x > y)
  | Instr.Ge -> fun (x : int) y -> Bool.to_int (x >= y)
  | Instr.Eq -> fun (x : int) y -> Bool.to_int (x = y)
  | Instr.Ne -> fun (x : int) y -> Bool.to_int (x <> y)
  | Instr.And -> fun x y -> Bool.to_int (x <> 0 && y <> 0)
  | Instr.Or -> fun x y -> Bool.to_int (x <> 0 || y <> 0)

let ubinop (bool : bool array) d op a b (next : ucode) : ucode =
  let is_bool = function
    | Link.L_reg x -> bool.(x)
    | Link.L_const v -> ( match v with Value.Bool _ -> true | _ -> false)
  in
  match (op, a, b) with
  | (Instr.Eq | Instr.Ne), _, _ when is_bool a <> is_bool b ->
      let c = Bool.to_int (op = Instr.Ne) in
      fun r ->
        wr r d c;
        next r
  | _ -> (
      let fn = uarith op in
      match (a, b) with
      | Link.L_reg x, Link.L_reg y ->
          fun r ->
            wr r d (fn (rd r x) (rd r y));
            next r
      | Link.L_reg x, Link.L_const c ->
          let c = Option.get (uint c) in
          fun r ->
            wr r d (fn (rd r x) c);
            next r
      | Link.L_const c, Link.L_reg y ->
          let c = Option.get (uint c) in
          fun r ->
            wr r d (fn c (rd r y));
            next r
      | Link.L_const c, Link.L_const c' ->
          let v = fn (Option.get (uint c)) (Option.get (uint c')) in
          fun r ->
            wr r d v;
            next r)

let uinstr (bool : bool array) (i : Link.linstr) (next : ucode) : ucode =
  match i.Link.li_op with
  | Link.L_nop -> next
  | Link.L_move (d, Link.L_reg x) ->
      fun r ->
        wr r d (rd r x);
        next r
  | Link.L_move (d, Link.L_const c) ->
      let c = Option.get (uint c) in
      fun r ->
        wr r d c;
        next r
  | Link.L_unop (d, Instr.Is_null, _) ->
      fun r ->
        wr r d 0;
        next r
  | Link.L_unop (d, Instr.Neg, Link.L_reg x) ->
      fun r ->
        wr r d (- rd r x);
        next r
  | Link.L_unop (d, Instr.Not, Link.L_reg x) ->
      fun r ->
        wr r d (Bool.to_int (rd r x = 0));
        next r
  | Link.L_unop (d, op, Link.L_const c) ->
      let c = Option.get (uint c) in
      let v = if op = Instr.Neg then -c else Bool.to_int (c = 0) in
      fun r ->
        wr r d v;
        next r
  | Link.L_binop (d, op, a, b) -> ubinop bool d op a b next
  | _ -> invalid_arg "Compile.uinstr: not a tier instruction"

let uterm (index : int array) (b : Link.lblock) : ucode =
  let succ t = if index.(t) >= 0 then index.(t) else lnot t in
  match b.Link.lb_term with
  | Link.L_jump t ->
      let s = succ t in
      fun _ -> s
  | Link.L_branch (Link.L_reg c, t, fl) ->
      let st = succ t and sf = succ fl in
      fun r -> if rd r c <> 0 then st else sf
  | Link.L_branch (Link.L_const v, t, fl) ->
      let s = succ (if Value.is_true v then t else fl) in
      fun _ -> s
  | Link.L_return _ | Link.L_exit ->
      invalid_arg "Compile.uterm: not a tier block"

(* The loop of a component's blocks [members], or [None] when it is no loop
   (one block without a self edge), has more blocks than a mask has
   bits, or its writes disagree on a register's kind. *)
let make_loop (f : Link.lfunc) (members : int list) =
  let blocks = Array.of_list members in
  let nb = Array.length blocks in
  let self_edge b = List.mem b (tier_succs f.Link.lf_blocks.(b)) in
  if nb > Sys.int_size || (nb = 1 && not (self_edge blocks.(0))) then None
  else
    let nregs = max 1 f.Link.lf_nregs in
    let lblocks = Array.map (fun b -> f.Link.lf_blocks.(b)) blocks in
    let instrs =
      List.concat_map (fun (b : Link.lblock) -> Array.to_list b.Link.lb_instrs)
        (Array.to_list lblocks)
    in
    match infer_kinds nregs instrs with
    | None -> None
    | Some bool ->
        let index = Array.make (Array.length f.Link.lf_blocks) (-1) in
        Array.iteri (fun j b -> index.(b) <- j) blocks;
        let rw = Array.map (reads_writes nregs) lblocks in
        (* live in: read before written on some path inside the loop *)
        let live = Array.map (fun (use, _) -> Array.copy use) rw in
        let changed = ref true in
        while !changed do
          changed := false;
          Array.iteri
            (fun j (b : Link.lblock) ->
              let _, def = rw.(j) in
              List.iter
                (fun s ->
                  let k = index.(s) in
                  if k >= 0 then
                    Array.iteri
                      (fun r l ->
                        if l && (not def.(r)) && not live.(j).(r) then begin
                          live.(j).(r) <- true;
                          changed := true
                        end)
                      live.(k))
                (tier_succs b))
            lblocks
        done;
        let regs_where p =
          Array.of_list (List.filter p (List.init nregs Fun.id))
        in
        let wmask r =
          let m = ref 0 in
          Array.iteri
            (fun j (_, def) -> if def.(r) then m := !m lor (1 lsl j))
            rw;
          !m
        in
        let wregs = regs_where (fun r -> wmask r <> 0) in
        Some
          {
            ul_blocks = blocks;
            ul_index = index;
            ul_bool = bool;
            ul_live = Array.map (fun l -> regs_where (fun r -> l.(r))) live;
            ul_wregs = wregs;
            ul_wmask = Array.map wmask wregs;
            ul_len =
              Array.map
                (fun (b : Link.lblock) -> Array.length b.Link.lb_instrs + 1)
                lblocks;
            ul_run =
              Array.map
                (fun (b : Link.lblock) ->
                  Array.fold_right (uinstr bool) b.Link.lb_instrs
                    (uterm index b))
                lblocks;
          }

(* Per block of [f]: the tier loop it belongs to, if any. *)
let find_loops (f : Link.lfunc) : uloop option array =
  let blocks = f.Link.lf_blocks in
  let comp = components blocks (Array.map tier_block blocks) in
  let ncomp = Array.fold_left max (-1) comp + 1 in
  let members = Array.make ncomp [] in
  for b = Array.length blocks - 1 downto 0 do
    if comp.(b) >= 0 then members.(comp.(b)) <- b :: members.(comp.(b))
  done;
  let loops = Array.map (make_loop f) members in
  Array.map (fun c -> if c >= 0 then loops.(c) else None) comp

(* Unbox the live registers [live.(0..k)] of kind [bool] into [s];
   [false] at the first that does not hold that kind. *)
let rec unbox (live : int array) (bool : bool array) (regs : Value.t array)
    (s : int array) k =
  k < 0
  ||
  let reg = Array.unsafe_get live k in
  match Array.unsafe_get regs reg with
  | Value.Int x as v ->
      v != Thread.undef
      && (not (Array.unsafe_get bool reg))
      && begin
           wr s reg x;
           unbox live bool regs s (k - 1)
         end
  | Value.Bool b ->
      Array.unsafe_get bool reg
      && begin
           wr s reg (Bool.to_int b);
           unbox live bool regs s (k - 1)
         end
  | _ -> false

let box_back (l : uloop) (regs : Value.t array) (s : int array) mask =
  let wregs = l.ul_wregs and wmask = l.ul_wmask and bool = l.ul_bool in
  for k = 0 to Array.length wregs - 1 do
    if Array.unsafe_get wmask k land mask <> 0 then begin
      let reg = Array.unsafe_get wregs k in
      let x = rd s reg in
      regs.(reg) <-
        (if Array.unsafe_get bool reg then if x <> 0 then vtrue else vfalse
         else Value.Int x)
    end
  done

let[@inline never] grow_uregs (m : Machine.t) n =
  let u = Array.make n 0 in
  m.Machine.uregs <- u;
  u

(* The entry link of loop block [j]; [boxed] is the block's boxed chain
   at index 0. *)
let entry_link (l : uloop) (f : Link.lfunc) (fcbs : cblock array) j
    (boxed : chain) : chain =
  let live = l.ul_live.(j) and bool = l.ul_bool in
  let last = Array.length live - 1 in
  let nregs = Array.length bool in
  let lens = l.ul_len and runs = l.ul_run in
  let len0 = lens.(j) and run0 = runs.(j) and bit0 = 1 lsl j in
  fun m th fr ->
    match th.Thread.recovering with
    | Some _ -> boxed m th fr
    | None ->
        let s =
          let u = m.Machine.uregs in
          if Array.length u >= nregs then u else grow_uregs m nregs
        in
        let regs = fr.Thread.regs in
        if not (unbox live bool regs s last) then boxed m th fr
        else begin
          let bound =
            let a = m.Machine.abound and w = m.Machine.wbound in
            if a > w then a else w
          in
          let step = ref (m.Machine.step + len0) in
          let mask = ref bit0 in
          let next = ref (run0 s) in
          while !next >= 0 && !step + Array.unsafe_get lens !next <= bound do
            let k = !next in
            step := !step + Array.unsafe_get lens k;
            mask := !mask lor (1 lsl k);
            next := (Array.unsafe_get runs k) s
          done;
          m.Machine.step <- !step;
          box_back l regs s !mask;
          let t =
            let k = !next in
            if k >= 0 then l.ul_blocks.(k) else lnot k
          in
          fr.Thread.block <- f.Link.lf_blocks.(t);
          fr.Thread.idx <- 0;
          let cb = fcbs.(t) in
          if m.Machine.step + cb.cb_need.(0) <= m.Machine.wbound then
            cb.cb_chain.(0) m th fr
          else t_refresh
        end

let compile_block (prog : cblock array array) (lp : Link.program)
    (loops : uloop option array) (f : Link.lfunc) (blk : Link.lblock) :
    cblock =
  let instrs = blk.Link.lb_instrs in
  let n = Array.length instrs in
  (* [locals.(k)]: the register-only run from [k] through a jump or
     branch, which the chain at [k] retires whole when [m.wbound] stops
     the terminator from chaining on *)
  let locals = Array.make (n + 1) 0 in
  (match blk.Link.lb_term with
  | Link.L_jump _ | Link.L_branch _ -> locals.(n) <- 1
  | Link.L_return _ | Link.L_exit -> ());
  for k = n - 1 downto 0 do
    if locals.(k + 1) > 0 && local instrs.(k) then
      locals.(k) <- locals.(k + 1) + 1
  done;
  let chain = Array.make (n + 1) refresh in
  let need = Array.make (n + 1) 1 in
  let sched = Array.make (n + 1) false in
  (match compile_term prog f blk with
  | None ->
      sched.(n) <- true;
      chain.(n) <- stop_at n
  | Some l -> chain.(n) <- l);
  (* Chains are built back to front so each link captures its already-
     built successor: tails are shared, [O(n)] closures per block. *)
  for k = n - 1 downto 0 do
    let i = instrs.(k) in
    match compile_comp prog lp k i with
    | C_sched ->
        sched.(k) <- true;
        chain.(k) <- stop_at k
    | C_link mk ->
        chain.(k) <- destroying_link i (mk chain.(k + 1));
        need.(k) <- need.(k + 1) + 1
    | C_halt l -> chain.(k) <- destroying_link i l
    (* need stays 1: the link re-gates on [m.wbound] before chaining
       past its own step *)
  done;
  (match loops.(blk.Link.lb_index) with
  | Some l ->
      chain.(0) <-
        entry_link l f prog.(f.Link.lf_id) l.ul_index.(blk.Link.lb_index)
          chain.(0)
  | None -> ());
  {
    cb_chain = chain;
    cb_one = [||];
    cb_iids =
      Array.map (fun (j : Link.linstr) -> j.Link.li_iid) blk.Link.lb_instrs;
    cb_need = need;
    cb_sched = sched;
    cb_local = locals;
  }

type program = {
  image : Link.program;
  blocks : cblock array array;
      (** indexed [lf_id].(lb_index); a slot holds [pending] until the
          block is first entered *)
  pending : cblock;
  loops : uloop option array array;
      (** indexed [lf_id].(lb_index): the unboxed loop of the block, if
          any; a function's array is empty until its first block
          compiles *)
}

(* A block nobody has entered yet. Transfer links read only their
   target's [cb_need] and [cb_chain], at the entry point (0) or, for a
   return, at the caller's resumption point, so those two arrays span
   the program's longest block; every entry hands back to the driver
   with the program point already moved onto the block ([t_refresh]),
   and the driver compiles it. *)
let pending_block (lp : Link.program) =
  let width =
    Array.fold_left
      (fun w (f : Link.lfunc) ->
        Array.fold_left
          (fun w (b : Link.lblock) -> max w (Array.length b.Link.lb_instrs + 1))
          w f.Link.lf_blocks)
      1 lp.Link.lp_funcs
  in
  {
    cb_chain = Array.make width refresh;
    cb_one = [||];
    cb_iids = [||];
    cb_need = Array.make width 0;
    cb_sched = [||];
    cb_local = [||];
  }

(* The code is machine-independent (closures take the machine as an
   argument), so machines over the same linked image — which [Link]'s
   cache already shares — reuse one code object, kept in the image's
   own slot: code lives as long as its image, which lives as long as
   its program. Every slot starts [pending]; transfer links capture
   their target function's slot array, so a block compiled later is
   found in place with no patching pass, and (mutual) recursion needs
   no indirection beyond one array load. Two racing first compiles of
   an image or a block each store their own result; both are equal. *)
type Link.code += Code of program

let compile (lp : Link.program) : program =
  match lp.Link.lp_code with
  | Some (Code code) -> code
  | _ ->
      let pending = pending_block lp in
      let code =
        {
          image = lp;
          blocks =
            Array.map
              (fun (f : Link.lfunc) ->
                Array.make (Array.length f.Link.lf_blocks) pending)
              lp.Link.lp_funcs;
          pending;
          loops = Array.map (fun _ -> [||]) lp.Link.lp_funcs;
        }
      in
      lp.Link.lp_code <- Some (Code code);
      code

(* A function's loops are worked out when its first block compiles. *)
let loops_of code (f : Link.lfunc) =
  let l = code.loops.(f.Link.lf_id) in
  if Array.length l > 0 then l
  else begin
    let l = find_loops f in
    code.loops.(f.Link.lf_id) <- l;
    l
  end

let[@inline never] compile_slot code (f : Link.lfunc) (b : Link.lblock) =
  let cb = compile_block code.blocks code.image (loops_of code f) f b in
  code.blocks.(f.Link.lf_id).(b.Link.lb_index) <- cb;
  cb

let[@inline] block code (f : Link.lfunc) (b : Link.lblock) =
  let cb = code.blocks.(f.Link.lf_id).(b.Link.lb_index) in
  if cb != code.pending then cb else compile_slot code f b

(* The single-step forms, built the first time the driver single-steps
   the block: many blocks only ever run as chains. Straight-line links
   are rebuilt on the [park] continuation; stoppers and calls end the
   chain anyway, so their chain closures serve. The terminator's link is
   rebuilt too: slot 0 of an empty loop block holds the tier's entry
   link. *)
let[@inline never] compile_one code (f : Link.lfunc) (blk : Link.lblock) cb =
  let instrs = blk.Link.lb_instrs in
  let one = Array.copy cb.cb_chain in
  Option.iter
    (fun l -> one.(Array.length instrs) <- l)
    (compile_term code.blocks f blk);
  Array.iteri
    (fun k i ->
      match compile_comp code.blocks code.image k i with
      | C_link mk -> one.(k) <- destroying_link i (mk (park (k + 1)))
      | C_sched | C_halt _ -> ())
    instrs;
  cb.cb_one <- one;
  one

let[@inline] one code f b cb =
  let o = cb.cb_one in
  if Array.length o > 0 then o else compile_one code f b cb

let is_compiled code (f : Link.lfunc) (b : Link.lblock) =
  code.blocks.(f.Link.lf_id).(b.Link.lb_index) != code.pending
