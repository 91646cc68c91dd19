(* The *reference* Mir interpreter: the original map-based implementation,
   kept verbatim as a semantic oracle.

   [Block_machine] runs pre-resolved ([Link]ed), block-compiled programs
   with array registers and index-resolved control flow; this module
   still walks the source
   [Program.t] directly — persistent register maps, label lookups by list
   scan, a thread-table fold per scheduler step. It is several times
   slower, and that is the point: the two engines must agree bit-for-bit
   (outcomes, outputs, step counts, traces, statistics) on every program,
   which [test_fast_exec.ml] checks across the bugbench catalog, and the
   bench's interp mode measures the speedup between them.

   Do not optimize this file. Any intentional semantic change to the
   execution model must be made in both engines, and the differential
   test updated alongside. *)

open Conair_ir
module Reg = Ident.Reg
module Label = Ident.Label
module Fname = Ident.Fname

(* The original per-thread state: persistent register maps, list stack,
   list acquisition log (with the historical filter-on-every-append
   behaviour). *)
module T = struct
  type frame = {
    func : Func.t;
    mutable block : Block.t;
    mutable idx : int;
    mutable regs : Value.t Reg.Map.t;
    stack_vars : (string, Value.t) Hashtbl.t;
    ret_reg : Reg.t option;
  }

  type checkpoint = {
    ck_depth : int;
    ck_block : Label.t;
    ck_idx : int;
    ck_regs : Value.t Reg.Map.t;
    ck_counter : int;
    ck_step : int;
  }

  type status =
    | Runnable
    | Sleeping of int
    | Blocked_lock of { name : string; since : int; timeout : int option }
    | Blocked_event of { name : string; since : int; timeout : int option }
    | Blocked_join of int
    | Done
    | Failed

  type resource = R_lock of string | R_block of int

  type recovering = { rec_site : int; rec_start : int; rec_retries_before : int }

  type t = {
    tid : int;
    mutable stack : frame list;
    mutable status : status;
    mutable checkpoint : checkpoint option;
    mutable region_counter : int;
    retries : (int, int) Hashtbl.t;
    mutable acq_log : (resource * int) list;
    mutable last_destroy_step : int;
    mutable recovering : recovering option;
  }

  let make_frame (func : Func.t) ~args ~ret_reg =
    if List.length func.params <> List.length args then
      invalid_arg
        (Format.asprintf "call to %a: arity mismatch" Ident.Fname.pp func.name);
    let regs =
      List.fold_left2
        (fun m p a -> Reg.Map.add p a m)
        Reg.Map.empty func.params args
    in
    {
      func;
      block = Func.block_exn func func.entry;
      idx = 0;
      regs;
      stack_vars = Hashtbl.create 8;
      ret_reg;
    }

  let create ~tid (func : Func.t) ~args =
    {
      tid;
      stack = [ make_frame func ~args ~ret_reg:None ];
      status = Runnable;
      checkpoint = None;
      region_counter = 0;
      retries = Hashtbl.create 4;
      acq_log = [];
      last_destroy_step = -1;
      recovering = None;
    }

  let top t =
    match t.stack with
    | f :: _ -> f
    | [] -> invalid_arg "Thread.top: empty stack"

  let depth t = List.length t.stack

  let retries_of t site =
    Option.value ~default:0 (Hashtbl.find_opt t.retries site)

  let bump_retries t site = Hashtbl.replace t.retries site (retries_of t site + 1)

  let log_acquisition t r =
    let keep =
      List.filter (fun (_, tag) -> tag = t.region_counter) t.acq_log
    in
    t.acq_log <- (r, t.region_counter) :: keep

  let current_region_acquisitions t =
    List.partition (fun (_, tag) -> tag = t.region_counter) t.acq_log

  let is_live t =
    match t.status with
    | Done | Failed -> false
    | Runnable | Sleeping _ | Blocked_lock _ | Blocked_event _ | Blocked_join _
      ->
        true
end

type config = Machine.config
type meta = Machine.meta

exception Fault of string

type t = {
  prog : Program.t;
  config : config;
  meta : meta option;
  globals : (string, Value.t) Hashtbl.t;
  heap : Heap.t;
  locks : Locks.t;
  threads : (int, T.t) Hashtbl.t;
  mutable next_tid : int;
  mutable step : int;
  mutable outputs : string list;
  stats : Stats.t;
  sched : Sched.t;
  mutable outcome : Outcome.t option;
  obs : Event.observer option;
  view : Event.view;
  mutable chosen : int;  (** previously chosen tid, under a decision observer *)
}

(* Mirrors [Machine.view], on [T] threads. *)
let view threads locks =
  let thread tid = Hashtbl.find threads tid in
  {
    Event.stack =
      (fun tid ->
        List.map
          (fun (f : T.frame) -> Fname.name f.T.func.Func.name)
          (thread tid).T.stack);
    block = (fun tid -> Label.name (T.top (thread tid)).T.block.Block.label);
    locks = (fun tid -> Locks.held_by locks ~tid);
  }

let create ?(config = Machine.default_config) ?meta ?observer ?tap ?feed
    (prog : Program.t) =
  let globals = Hashtbl.create 32 in
  List.iter (fun (g, v) -> Hashtbl.replace globals g v) prog.globals;
  let locks = Locks.create prog.mutexes and threads = Hashtbl.create 8 in
  let m =
    {
      prog;
      config;
      meta;
      globals;
      heap = Heap.create ();
      locks;
      threads;
      next_tid = 0;
      step = 0;
      outputs = [];
      stats = Stats.create ();
      sched = Sched.create config.policy;
      outcome = None;
      obs = observer;
      view = view threads locks;
      chosen = -1;
    }
  in
  Sched.set_tap m.sched tap;
  Sched.set_feed m.sched feed;
  let main = Program.func_exn prog prog.main in
  let tid = m.next_tid in
  m.next_tid <- tid + 1;
  Hashtbl.replace m.threads tid (T.create ~tid main ~args:[]);
  m

let outputs m = List.rev m.outputs
let stats m = m.stats
let sched m = m.sched

(* --- the observation stream (mirrors [Machine]'s) ------------------- *)

let decisions m = match m.obs with Some o -> o.Event.decisions | None -> false
let sync m = match m.obs with Some o -> o.Event.sync | None -> false
let steps m = match m.obs with Some o -> o.Event.steps | None -> false
let accesses m = match m.obs with Some o -> o.Event.accesses | None -> false
let emit m ev = match m.obs with Some o -> o.Event.on m.view ev | None -> ()

let access m (th : T.t) (i : Instr.t) kind addr =
  emit m
    (Event.Access { step = m.step; tid = th.T.tid; iid = i.Instr.iid; kind; addr })

let thread m tid = Hashtbl.find m.threads tid

let live_threads m =
  Hashtbl.fold (fun tid th acc -> if T.is_live th then tid :: acc else acc)
    m.threads []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Evaluation helpers                                                  *)
(* ------------------------------------------------------------------ *)

let eval_reg (fr : T.frame) r =
  match Reg.Map.find_opt r fr.regs with
  | Some v -> v
  | None ->
      raise (Fault (Format.asprintf "use of undefined register %a" Reg.pp r))

let eval (fr : T.frame) = function
  | Instr.Reg r -> eval_reg fr r
  | Instr.Const v -> v

let as_int = function
  | Value.Int n -> n
  | Value.Bool true -> 1
  | Value.Bool false -> 0
  | v -> raise (Fault ("expected an integer, got " ^ Value.to_string v))

let as_mutex = function
  | Value.Mutex name -> name
  | v -> raise (Fault ("expected a mutex, got " ^ Value.to_string v))

let eval_binop op a b =
  let module I = Instr in
  match op with
  | I.Add -> Value.Int (as_int a + as_int b)
  | I.Sub -> Value.Int (as_int a - as_int b)
  | I.Mul -> Value.Int (as_int a * as_int b)
  | I.Div ->
      let d = as_int b in
      if d = 0 then raise (Fault "division by zero") else Value.Int (as_int a / d)
  | I.Mod ->
      let d = as_int b in
      if d = 0 then raise (Fault "modulo by zero") else Value.Int (as_int a mod d)
  | I.Eq -> Value.Bool (Value.equal a b)
  | I.Ne -> Value.Bool (not (Value.equal a b))
  | I.Lt -> Value.Bool (as_int a < as_int b)
  | I.Le -> Value.Bool (as_int a <= as_int b)
  | I.Gt -> Value.Bool (as_int a > as_int b)
  | I.Ge -> Value.Bool (as_int a >= as_int b)
  | I.And -> Value.Bool (Value.is_true a && Value.is_true b)
  | I.Or -> Value.Bool (Value.is_true a || Value.is_true b)

let eval_unop op a =
  match op with
  | Instr.Not -> Value.Bool (not (Value.is_true a))
  | Instr.Neg -> Value.Int (-as_int a)
  | Instr.Is_null -> Value.Bool (match a with Value.Null -> true | _ -> false)

let render_output fmt args =
  let buf = Buffer.create (String.length fmt + 16) in
  let args = ref args in
  let i = ref 0 in
  let n = String.length fmt in
  while !i < n do
    if !i + 1 < n && fmt.[!i] = '%' && fmt.[!i + 1] = 'v' then begin
      (match !args with
      | a :: rest ->
          Buffer.add_string buf (Value.to_string a);
          args := rest
      | [] -> Buffer.add_string buf "%v");
      i := !i + 2
    end
    else begin
      Buffer.add_char buf fmt.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Failure bookkeeping                                                 *)
(* ------------------------------------------------------------------ *)

let set_failure m ~kind ~site_id ~iid ~tid ~msg =
  (match (thread m tid).T.status with
  | T.Done | T.Failed -> ()
  | _ -> (thread m tid).T.status <- T.Failed);
  if sync m then
    emit m
      (Event.Failed
         {
           step = m.step;
           tid;
           site_id = (match site_id with Some s -> s | None -> -1);
           msg;
         });
  m.outcome <-
    Some (Outcome.Failed { kind; site_id; iid; tid; step = m.step; msg })

let note_branch_taken m (th : T.t) ~taken ~other =
  match (m.meta, th.recovering) with
  | Some meta, Some rec_ -> (
      let site_of l =
        List.find_opt
          (fun (lbl, _) -> Label.equal lbl l)
          meta.Machine.fail_blocks
      in
      match site_of other with
      | Some (_, site) when site = rec_.rec_site && not (Label.equal taken other)
        ->
          let ep =
            {
              Stats.ep_site_id = site;
              ep_tid = th.tid;
              ep_start = rec_.rec_start;
              ep_end = m.step;
              ep_retries = T.retries_of th site - rec_.rec_retries_before;
            }
          in
          m.stats.episodes <- ep :: m.stats.episodes;
          if sync m then
            emit m
              (Event.Recovered { step = m.step; tid = th.tid; site_id = site });
          th.recovering <- None
      | _ -> ())
  | _ -> ()

let close_episode m (th : T.t) =
  match th.recovering with
  | None -> ()
  | Some rec_ ->
      let ep =
        {
          Stats.ep_site_id = rec_.rec_site;
          ep_tid = th.tid;
          ep_start = rec_.rec_start;
          ep_end = m.step;
          ep_retries = T.retries_of th rec_.rec_site - rec_.rec_retries_before;
        }
      in
      m.stats.episodes <- ep :: m.stats.episodes;
      if sync m then
        emit m
          (Event.Recovered
             { step = m.step; tid = th.tid; site_id = rec_.rec_site });
      th.recovering <- None

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let compensate m (th : T.t) =
  let current, rest = T.current_region_acquisitions th in
  List.iter
    (fun (r, _) ->
      match r with
      | T.R_lock name ->
          if Locks.force_release m.locks name ~tid:th.tid then begin
            m.stats.compensated_locks <- m.stats.compensated_locks + 1;
            if sync m then
              emit m
                (Event.Release
                   { step = m.step; tid = th.tid; lock = name; forced = true })
          end
      | T.R_block id ->
          if Heap.release_block m.heap id then begin
            m.stats.compensated_blocks <- m.stats.compensated_blocks + 1;
            if sync m then
              emit m
                (Event.Compensate_block
                   { step = m.step; tid = th.tid; block = id })
          end)
    current;
  th.acq_log <- rest

let rollback m (th : T.t) (ck : T.checkpoint) =
  if m.config.verify_rollbacks && th.last_destroy_step > ck.ck_step then
    m.stats.tracecheck_violations <- m.stats.tracecheck_violations + 1;
  let rec drop stack =
    if List.length stack > ck.ck_depth then
      match stack with _ :: tl -> drop tl | [] -> []
    else stack
  in
  th.stack <- drop th.stack;
  let fr = T.top th in
  fr.regs <- ck.ck_regs;
  fr.block <- Func.block_exn fr.func ck.ck_block;
  fr.idx <- ck.ck_idx;
  th.status <- T.Runnable;
  m.stats.rollbacks <- m.stats.rollbacks + 1

let checkpoint_applicable (th : T.t) (ck : T.checkpoint) =
  T.depth th >= ck.ck_depth
  &&
  match List.nth_opt th.stack (T.depth th - ck.ck_depth) with
  | Some fr -> Func.find_block fr.func ck.ck_block <> None
  | None -> false

let try_recover m (th : T.t) ~site_id ~kind =
  match th.checkpoint with
  | Some ck
    when T.retries_of th site_id < m.config.max_retries
         && checkpoint_applicable th ck ->
      (match th.recovering with
      | Some r when r.rec_site = site_id -> ()
      | Some _ -> close_episode m th
      | None -> ());
      if th.recovering = None then
        th.recovering <-
          Some
            {
              T.rec_site = site_id;
              rec_start = m.step;
              rec_retries_before = T.retries_of th site_id;
            };
      T.bump_retries th site_id;
      if sync m then
        emit m
          (Event.Rollback
             { step = m.step; tid = th.tid; site_id;
               retry = T.retries_of th site_id });
      compensate m th;
      rollback m th ck;
      if kind = Instr.Deadlock && m.config.deadlock_backoff > 0 then begin
        let pause = 1 + Random.State.int (Sched.rng m.sched) m.config.deadlock_backoff in
        th.status <- T.Sleeping (m.step + pause)
      end;
      true
  | Some _ | None -> false

(* ------------------------------------------------------------------ *)
(* Instruction execution                                               *)
(* ------------------------------------------------------------------ *)

let advance (fr : T.frame) = fr.idx <- fr.idx + 1

let in_wait_cycle m ~tid ~lock =
  let rec chase lock_name seen =
    match Locks.owner m.locks lock_name with
    | None -> false
    | Some owner when owner = tid -> true
    | Some owner ->
        if List.mem owner seen then false
        else begin
          match (thread m owner).T.status with
          | T.Blocked_lock { name; _ } -> chase name (owner :: seen)
          | _ -> false
        end
  in
  chase lock []

let do_return m (th : T.t) v =
  match th.stack with
  | [] -> invalid_arg "return with empty stack"
  | frame :: rest -> (
      th.stack <- rest;
      match rest with
      | [] ->
          close_episode m th;
          if sync m then
            emit m (Event.Thread_done { step = m.step; tid = th.tid });
          th.status <- T.Done
      | caller :: _ -> (
          match frame.ret_reg with
          | None -> ()
          | Some r -> (
              match v with
              | Some value -> caller.regs <- Reg.Map.add r value caller.regs
              | None ->
                  raise (Fault "function returned no value but one was expected"))))

let exec_call m (th : T.t) ~ret ~callee ~args =
  let fr = T.top th in
  let argv = List.map (eval fr) args in
  advance fr;
  let f =
    match Program.find_func m.prog callee with
    | Some f -> f
    | None -> raise (Fault (Format.asprintf "call to unknown %a" Fname.pp callee))
  in
  th.stack <- T.make_frame f ~args:argv ~ret_reg:ret :: th.stack

let exec_spawn m (th : T.t) ~reg ~callee ~args =
  let fr = T.top th in
  let argv = List.map (eval fr) args in
  let f =
    match Program.find_func m.prog callee with
    | Some f -> f
    | None ->
        raise (Fault (Format.asprintf "spawn of unknown %a" Fname.pp callee))
  in
  let tid = m.next_tid in
  m.next_tid <- tid + 1;
  let th' = T.create ~tid f ~args:argv in
  if m.config.perturb_timing && m.config.spawn_jitter > 0 then
    th'.status <-
      T.Sleeping
        (m.step + Random.State.int (Sched.rng m.sched) m.config.spawn_jitter);
  Hashtbl.replace m.threads tid th';
  if sync m then
    emit m (Event.Spawn { step = m.step; parent = th.tid; child = tid });
  fr.regs <- Reg.Map.add reg (Value.Tid tid) fr.regs;
  advance fr

let exec_instr m (th : T.t) (i : Instr.t) =
  let fr = T.top th in
  let set r v = fr.regs <- Reg.Map.add r v fr.regs in
  if Instr.dynamically_destroying i.op then th.last_destroy_step <- m.step;
  if th.recovering <> None && Instr.dynamically_destroying i.op then
    close_episode m th;
  match i.op with
  | Instr.Move (r, a) ->
      set r (eval fr a);
      advance fr
  | Instr.Binop (r, op, a, b) ->
      set r (eval_binop op (eval fr a) (eval fr b));
      advance fr
  | Instr.Unop (r, op, a) ->
      set r (eval_unop op (eval fr a));
      advance fr
  | Instr.Load (r, Instr.Global g) -> (
      if accesses m then access m th i Event.Read (Event.A_global g);
      match Hashtbl.find_opt m.globals g with
      | Some v ->
          set r v;
          advance fr
      | None -> raise (Fault ("load of undeclared global " ^ g)))
  | Instr.Load (r, Instr.Stack s) ->
      if accesses m then access m th i Event.Read (Event.A_slot (th.tid, s));
      set r (Option.value ~default:Value.zero (Hashtbl.find_opt fr.stack_vars s));
      advance fr
  | Instr.Store (Instr.Global g, a) ->
      if accesses m then access m th i Event.Write (Event.A_global g);
      if Hashtbl.mem m.globals g then begin
        Hashtbl.replace m.globals g (eval fr a);
        advance fr
      end
      else raise (Fault ("store to undeclared global " ^ g))
  | Instr.Store (Instr.Stack s, a) ->
      if accesses m then access m th i Event.Write (Event.A_slot (th.tid, s));
      Hashtbl.replace fr.stack_vars s (eval fr a);
      advance fr
  | Instr.Load_idx (r, p, ix) -> (
      (* operands bound right-to-left, preserving the original argument
         evaluation order; the access is reported before the heap op so
         faulting dereferences are still seen by the detector *)
      let iv = as_int (eval fr ix) in
      let pv = eval fr p in
      (match pv with
      | Value.Ptr { Value.block; offset } when accesses m ->
          access m th i Event.Read (Event.A_cell (block, offset + iv))
      | _ -> ());
      match Heap.load m.heap pv iv with
      | Ok v ->
          set r v;
          advance fr
      | Error e -> raise (Fault e))
  | Instr.Store_idx (p, ix, v) -> (
      let vv = eval fr v in
      let iv = as_int (eval fr ix) in
      let pv = eval fr p in
      (match pv with
      | Value.Ptr { Value.block; offset } when accesses m ->
          access m th i Event.Write (Event.A_cell (block, offset + iv))
      | _ -> ());
      match Heap.store m.heap pv iv vv with
      | Ok () -> advance fr
      | Error e -> raise (Fault e))
  | Instr.Alloc (r, n) ->
      let ptr = Heap.alloc m.heap (as_int (eval fr n)) in
      T.log_acquisition th (T.R_block ptr.Value.block);
      set r (Value.Ptr ptr);
      advance fr
  | Instr.Free p -> (
      let pv = eval fr p in
      (match pv with
      | Value.Ptr { Value.block; _ } when accesses m ->
          access m th i Event.Write (Event.A_block block)
      | _ -> ());
      match Heap.free m.heap pv with
      | Ok () -> advance fr
      | Error e -> raise (Fault e))
  | Instr.Lock mref ->
      let name = as_mutex (eval fr mref) in
      if Locks.try_acquire m.locks name ~tid:th.tid then begin
        T.log_acquisition th (T.R_lock name);
        if sync m then
          emit m
            (Event.Acquire
               { step = m.step; tid = th.tid; iid = i.iid; lock = name });
        th.status <- T.Runnable;
        advance fr
      end
      else begin
        match th.status with
        | T.Blocked_lock _ -> ()
        | _ ->
            if sync m then
              emit m
                (Event.Request
                   { step = m.step; tid = th.tid; iid = i.iid; lock = name });
            th.status <-
              T.Blocked_lock { name; since = m.step; timeout = None }
      end
  | Instr.Timed_lock (r, mref, timeout) ->
      let name = as_mutex (eval fr mref) in
      if Locks.try_acquire m.locks name ~tid:th.tid then begin
        T.log_acquisition th (T.R_lock name);
        if sync m then
          emit m
            (Event.Acquire
               { step = m.step; tid = th.tid; iid = i.iid; lock = name });
        set r Value.truth;
        th.status <- T.Runnable;
        advance fr
      end
      else begin
        let since =
          match th.status with
          | T.Blocked_lock { since; _ } -> since
          | _ -> m.step
        in
        let detected_cycle =
          m.config.deadlock_detection = Machine.Wait_graph
          && in_wait_cycle m ~tid:th.tid ~lock:name
        in
        if detected_cycle || m.step - since >= timeout then begin
          set r (Value.Bool false);
          th.status <- T.Runnable;
          advance fr
        end
        else begin
          (match th.status with
          | T.Blocked_lock _ -> ()
          | _ ->
              if sync m then
                emit m
                  (Event.Request
                     { step = m.step; tid = th.tid; iid = i.iid; lock = name }));
          th.status <-
            T.Blocked_lock { name; since; timeout = Some timeout }
        end
      end
  | Instr.Unlock mref -> (
      let name = as_mutex (eval fr mref) in
      match Locks.release m.locks name ~tid:th.tid with
      | Ok () ->
          if sync m then
            emit m
              (Event.Release
                 { step = m.step; tid = th.tid; lock = name; forced = false });
          advance fr
      | Error e -> raise (Fault e))
  | Instr.Assert { cond; msg; oracle } ->
      if Value.is_true (eval fr cond) then advance fr
      else
        let kind = if oracle then Instr.Wrong_output else Instr.Assert_fail in
        set_failure m ~kind ~site_id:None ~iid:(Some i.iid) ~tid:th.tid ~msg
  | Instr.Output { fmt; args } ->
      let text = render_output fmt (List.map (eval fr) args) in
      m.outputs <- text :: m.outputs;
      m.stats.outputs <- m.stats.outputs + 1;
      if steps m then
        emit m (Event.Output { step = m.step; tid = th.tid; text });
      advance fr
  | Instr.Call (ret, callee, args) -> exec_call m th ~ret ~callee ~args
  | Instr.Spawn (r, callee, args) -> exec_spawn m th ~reg:r ~callee ~args
  | Instr.Join t -> (
      match eval fr t with
      | Value.Tid tid -> (
          match (thread m tid).T.status with
          | T.Done | T.Failed ->
              if sync m then
                emit m
                  (Event.Join { step = m.step; tid = th.tid; joined = tid });
              th.status <- T.Runnable;
              advance fr
          | _ -> th.status <- T.Blocked_join tid)
      | v -> raise (Fault ("join of a non-thread value " ^ Value.to_string v)))
  | Instr.Sleep n ->
      let n =
        if m.config.perturb_timing && n > 0 then
          Random.State.int (Sched.rng m.sched) (n + 1)
        else n
      in
      th.status <- T.Sleeping (m.step + n);
      advance fr
  | Instr.Nop -> advance fr
  | Instr.Wait name -> (
      match th.status with
      | T.Blocked_event _ -> ()
      | _ ->
          if sync m then
            emit m (Event.Wait { step = m.step; tid = th.tid; event = name });
          th.status <-
            T.Blocked_event { name; since = m.step; timeout = None })
  | Instr.Timed_wait (r, name, timeout) ->
      let since =
        match th.status with
        | T.Blocked_event { since; _ } -> since
        | _ -> m.step
      in
      if m.step - since >= timeout then begin
        set r (Value.Bool false);
        th.status <- T.Runnable;
        advance fr
      end
      else begin
        (match th.status with
        | T.Blocked_event _ -> ()
        | _ ->
            if sync m then
              emit m (Event.Wait { step = m.step; tid = th.tid; event = name }));
        th.status <-
          T.Blocked_event { name; since; timeout = Some timeout }
      end
  | Instr.Notify name ->
      Hashtbl.iter
        (fun _ (waiter : T.t) ->
          match waiter.status with
          | T.Blocked_event { name = n; _ } when n = name ->
              let wfr = T.top waiter in
              (match wfr.block.instrs.(wfr.idx).op with
              | Instr.Timed_wait (r, _, _) ->
                  wfr.regs <- Reg.Map.add r Value.truth wfr.regs
              | _ -> ());
              wfr.idx <- wfr.idx + 1;
              waiter.status <- T.Runnable;
              if sync m then
                emit m
                  (Event.Wake
                     { step = m.step; waker = th.tid; woken = waiter.tid })
          | _ -> ())
        m.threads;
      advance fr
  | Instr.Checkpoint id ->
      th.region_counter <- th.region_counter + 1;
      advance fr;
      th.checkpoint <-
        Some
          {
            T.ck_depth = T.depth th;
            ck_block = fr.block.label;
            ck_idx = fr.idx;
            ck_regs = fr.regs;
            ck_counter = th.region_counter;
            ck_step = m.step;
          };
      Stats.hit_checkpoint m.stats id;
      if steps m then
        emit m (Event.Checkpoint { step = m.step; tid = th.tid; ckpt_id = id })
  | Instr.Ptr_guard (r, p, ix) ->
      set r (Value.Bool (Heap.valid m.heap (eval fr p) (as_int (eval fr ix))));
      advance fr
  | Instr.Try_recover { site_id; kind } ->
      if sync m then
        emit m
          (Event.Failure_detected
             { step = m.step; tid = th.tid; site_id; kind });
      if not (try_recover m th ~site_id ~kind) then advance fr
  | Instr.Fail_stop { site_id; kind; msg } ->
      close_episode m th;
      set_failure m ~kind ~site_id:(Some site_id) ~iid:(Some i.iid)
        ~tid:th.tid ~msg

let exec_terminator m (th : T.t) =
  let fr = T.top th in
  match fr.block.term with
  | Instr.Jump l ->
      fr.block <- Func.block_exn fr.func l;
      fr.idx <- 0
  | Instr.Branch (c, t, f) ->
      let taken, other = if Value.is_true (eval fr c) then (t, f) else (f, t) in
      note_branch_taken m th ~taken ~other;
      fr.block <- Func.block_exn fr.func taken;
      fr.idx <- 0
  | Instr.Return v ->
      let value = Option.map (eval fr) v in
      do_return m th value
  | Instr.Exit ->
      th.status <- T.Done;
      m.outcome <- Some Outcome.Success

(* ------------------------------------------------------------------ *)
(* The scheduler loop                                                  *)
(* ------------------------------------------------------------------ *)

let eligible m (th : T.t) =
  match th.status with
  | T.Runnable -> true
  | T.Sleeping until -> m.step >= until
  | T.Blocked_lock { name; since; timeout } ->
      Locks.is_free m.locks name
      || (match timeout with Some t -> m.step - since >= t | None -> false)
      || (m.config.deadlock_detection = Machine.Wait_graph
         && timeout <> None
         && in_wait_cycle m ~tid:th.tid ~lock:name)
  | T.Blocked_event { since; timeout; _ } -> (
      match timeout with Some t -> m.step - since >= t | None -> false)
  | T.Blocked_join tid -> (
      match (thread m tid).T.status with
      | T.Done | T.Failed -> true
      | _ -> false)
  | T.Done | T.Failed -> false

let run_thread_step m tid =
  let th = thread m tid in
  let woke =
    match th.status with
    | T.Sleeping _ ->
        th.status <- T.Runnable;
        true
    | _ -> false
  in
  m.stats.instrs <- m.stats.instrs + 1;
  let at_iid =
    match th.stack with
    | fr :: _ when fr.idx < Block.length fr.block ->
        Some fr.block.instrs.(fr.idx).Instr.iid
    | _ -> None
  in
  (if steps m then
     let fr = T.top th in
     let ckpt =
       fr.idx < Block.length fr.block
       &&
       match fr.block.instrs.(fr.idx).Instr.op with
       | Instr.Checkpoint _ -> true
       | _ -> false
     in
     emit m
       (Event.Step
          {
            step = m.step;
            tid;
            iid = Option.value ~default:(-1) at_iid;
            ckpt;
            woke;
          }));
  try
    let fr = T.top th in
    if fr.idx < Block.length fr.block then
      exec_instr m th fr.block.instrs.(fr.idx)
    else exec_terminator m th
  with Fault msg ->
    close_episode m th;
    set_failure m ~kind:Instr.Seg_fault ~site_id:None ~iid:at_iid ~tid ~msg

let step m =
  match m.outcome with
  | Some _ -> false
  | None ->
      let live = live_threads m in
      if live = [] then begin
        m.outcome <- Some Outcome.Success;
        false
      end
      else begin
        let ready = List.filter (fun tid -> eligible m (thread m tid)) live in
        (match ready with
        | [] ->
            let waiting_on_time =
              List.exists
                (fun tid ->
                  match (thread m tid).T.status with
                  | T.Sleeping _
                  | T.Blocked_lock { timeout = Some _; _ }
                  | T.Blocked_event { timeout = Some _; _ } ->
                      true
                  | _ -> false)
                live
            in
            if waiting_on_time then begin
              if steps m then emit m (Event.Idle { step = m.step });
              m.step <- m.step + 1;
              m.stats.idle <- m.stats.idle + 1;
              m.stats.steps <- m.stats.steps + 1
            end
            else
              m.outcome <- Some (Outcome.Hang { step = m.step; blocked = live })
        | _ :: _ ->
            let tid = Sched.choose m.sched ready in
            if decisions m then begin
              let p = m.chosen in
              m.chosen <- tid;
              emit m
                (Event.Decide
                   {
                     step = m.step;
                     tid;
                     count = 1;
                     preemptive = tid <> p && p >= 0 && List.mem p ready;
                   })
            end;
            run_thread_step m tid;
            m.step <- m.step + 1;
            m.stats.steps <- m.stats.steps + 1);
        m.outcome = None
      end

let run m =
  let rec go () =
    if m.step >= m.config.fuel then begin
      m.outcome <- Some (Outcome.Fuel_exhausted m.step);
      Outcome.Fuel_exhausted m.step
    end
    else if step m then go ()
    else Option.value ~default:Outcome.Success m.outcome
  in
  go ()

let outcome m = m.outcome
let steps m = m.step

(* Mirrors [Machine.thread_summaries]: same status strings, same sort,
   so bundles are byte-identical across engines. *)
let thread_summaries m =
  Hashtbl.fold
    (fun tid (th : T.t) acc ->
      let status =
        match th.T.status with
        | T.Runnable -> "runnable"
        | T.Sleeping until -> "sleeping:" ^ string_of_int until
        | T.Blocked_lock { name; _ } -> "blocked_lock:" ^ name
        | T.Blocked_event { name; _ } -> "blocked_event:" ^ name
        | T.Blocked_join t -> "blocked_join:" ^ string_of_int t
        | T.Done -> "done"
        | T.Failed -> "failed"
      in
      (tid, status, Locks.held_by m.locks ~tid) :: acc)
    m.threads []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
