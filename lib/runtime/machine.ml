(* The machine state and the ConAir recovery runtime the block-compiled
   engine runs on; machine.mli describes both. There is no step loop
   here: [Compile]'s closures run straight-line code and control
   transfers, whose spec is [Ref_machine], and [run_thread_step] runs
   the schedulable ops, the one piece of interpretation left. *)

open Conair_ir
module Reg = Ident.Reg
module Label = Ident.Label
module Fname = Ident.Fname

(** How a deadlock is noticed at a hardened lock site (§3.1.1: "ConAir
    can work with any deadlock-detection mechanism"). [Timeout_based] is
    the paper's prototype (MySQL-style lock timeouts); [Wait_graph]
    follows the owner chain of the contended lock and reports a deadlock
    the moment a cycle closes (Jula et al.-style), so recovery starts
    immediately instead of after the timeout. *)
type deadlock_detection = Timeout_based | Wait_graph

type config = {
  policy : Sched.policy;
  fuel : int;  (** scheduler-step budget before giving up *)
  max_retries : int;  (** paper default: one million *)
  deadlock_detection : deadlock_detection;
  deadlock_backoff : int;
      (** max random sleep after a deadlock rollback (livelock avoidance) *)
  verify_rollbacks : bool;
      (** check at every rollback that no destroying instruction executed
          since the checkpoint (the static analysis' safety invariant) *)
  perturb_timing : bool;
      (** randomize [Sleep] durations (in [0..n]) and stagger thread
          startup — the Rx-style "environment change during reexecution"
          baselines rely on; never used by ConAir itself *)
  spawn_jitter : int;
      (** max random startup delay for spawned threads when
          [perturb_timing] is on (a restarted process never reproduces the
          original thread-creation timing) *)
}

let default_config =
  {
    policy = Sched.Round_robin;
    fuel = 2_000_000;
    max_retries = 1_000_000;
    deadlock_detection = Timeout_based;
    deadlock_backoff = 16;
    verify_rollbacks = true;
    perturb_timing = false;
    spawn_jitter = 150;
  }

(** Metadata from the hardening pass: fail-arm labels per site, used to
    detect that a recovering thread has finally passed its failure site.
    The link pass resolves it onto the blocks it names. *)
type meta = { fail_blocks : (Label.t * int) list }

let meta_of_harden (h : Conair_transform.Harden.t) =
  { fail_blocks = h.site_fail_blocks }

exception Fault of string
(** Internal: an unrecovered runtime fault of the current thread. *)

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
  mutable step : int;
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
          is attached: a decision that switches away from it while it is
          still eligible is preemptive *)
  mutable run_from : int;
      (** inside a block-engine window: the step of the first decision
          not yet reported, [-1] elsewhere *)
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

(* --- the live-thread array ----------------------------------------- *)

let add_live m th =
  let n = m.live_n in
  if n >= Array.length m.live then begin
    let cap = max 4 (2 * n) in
    let live = Array.make cap th in
    Array.blit m.live 0 live 0 n;
    m.live <- live;
    let ready = Array.make cap 0 in
    Array.blit m.ready 0 ready 0 (Array.length m.ready);
    m.ready <- ready
  end;
  m.live.(n) <- th;
  m.live_n <- n + 1

(* Death is rare (thread exit, program failure); a linear scan + shift
   keeps the array dense and tid-sorted. *)
let remove_live m (th : Thread.t) =
  let n = m.live_n in
  let i = ref 0 in
  while !i < n && m.live.(!i) != th do incr i done;
  if !i < n then begin
    for j = !i to n - 2 do
      m.live.(j) <- m.live.(j + 1)
    done;
    m.live_n <- n - 1
  end

let rebuild_live m =
  m.live_n <- 0;
  Hashtbl.fold
    (fun tid th acc -> if Thread.is_live th then (tid, th) :: acc else acc)
    m.threads []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (_, th) -> add_live m th)

(* ------------------------------------------------------------------- *)

(* What an observer may ask about a thread, read off the live state. *)
let view threads locks here =
  let thread tid =
    match !here with
    | Some (th : Thread.t) when th.Thread.tid = tid -> th
    | _ ->
        let th = Hashtbl.find threads tid in
        here := Some th;
        th
  in
  {
    Event.stack =
      (fun tid ->
        List.map
          (fun (f : Thread.frame) -> f.Thread.func.Link.lf_qname)
          (thread tid).Thread.stack);
    block =
      (fun tid -> (Thread.top (thread tid)).Thread.block.Link.lb_label_name);
    locks = (fun tid -> Locks.held_by locks ~tid);
  }

let create ?(config = default_config) ?meta ?observer ?tap ?feed
    (prog : Program.t) =
  let linked =
    match meta with
    | Some mt -> Link.link ~fail_blocks:mt.fail_blocks prog
    | None -> Link.link prog
  in
  let globals = Hashtbl.create 32 in
  List.iter (fun (g, v) -> Hashtbl.replace globals g v) prog.globals;
  let locks = Locks.create prog.mutexes and threads = Hashtbl.create 8 in
  let here = ref None in
  let m =
    {
      prog;
      linked;
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
      view = view threads locks here;
      here;
      chosen = -1;
      run_from = -1;
      live = [||];
      live_n = 0;
      ready = [||];
      wbound = 0;
      abound = min_int;
      uregs = [||];
    }
  in
  Sched.set_tap m.sched tap;
  Sched.set_feed m.sched feed;
  let main = Link.func_by_id linked linked.Link.lp_main in
  let tid = m.next_tid in
  m.next_tid <- tid + 1;
  let th = Thread.create ~tid main ~args:[||] in
  Hashtbl.replace m.threads tid th;
  add_live m th;
  m

let outputs m = List.rev m.outputs
let stats m = m.stats

let thread m tid = Hashtbl.find m.threads tid
let live_threads m = List.init m.live_n (fun i -> m.live.(i).Thread.tid)

(* Per-thread post-mortem view for diagnostic bundles: every thread ever
   spawned (the table keeps finished ones), its status rendered to an
   engine-independent string, and the locks it holds. *)
let thread_summaries m =
  Hashtbl.fold
    (fun tid (th : Thread.t) acc ->
      let status =
        match th.Thread.status with
        | Thread.Runnable -> "runnable"
        | Thread.Sleeping until -> "sleeping:" ^ string_of_int until
        | Thread.Blocked_lock { name; _ } -> "blocked_lock:" ^ name
        | Thread.Blocked_event { name; _ } -> "blocked_event:" ^ name
        | Thread.Blocked_join t -> "blocked_join:" ^ string_of_int t
        | Thread.Done -> "done"
        | Thread.Failed -> "failed"
      in
      (tid, status, Locks.held_by m.locks ~tid) :: acc)
    m.threads []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

(* --- the observation stream ----------------------------------------- *)
(* Emit sites test the observer's class first ([sync] / [steps] /
   [accesses]) and build the event only when it is consumed, so a bare
   run pays one [match] per site and allocates nothing. *)

let decisions m = match m.obs with Some o -> o.Event.decisions | None -> false
let sync m = match m.obs with Some o -> o.Event.sync | None -> false
let steps m = match m.obs with Some o -> o.Event.steps | None -> false

(* A block-engine window reports its decisions lazily ([run_from], see
   [Block_machine]); an event emitted from inside a window first
   reports the window's decisions through the event's step, [m.step],
   so every engine's stream has the same order. *)
let emit m ev =
  match m.obs with
  | None -> ()
  | Some o ->
      if m.run_from >= 0 then begin
        let count = m.step - m.run_from + 1 in
        if count > 0 then
          o.Event.on m.view
            (Event.Decide
               { step = m.run_from; tid = m.chosen; count; preemptive = false });
        m.run_from <- m.step + 1
      end;
      o.Event.on m.view ev

(* The tid of the [j]th eligible thread: the closed projection every
   engine hands [Sched.choose_idx], so a decision allocates nothing. *)
let ready_tid m j = m.live.(m.ready.(j)).Thread.tid

(* The scheduler chose [m.ready.(k)] among the [rn] eligible threads. *)
let decide m k rn =
  let tid = m.live.(m.ready.(k)).Thread.tid in
  let p = m.chosen in
  let preemptive =
    tid <> p && p >= 0
    &&
    let found = ref false in
    for j = 0 to rn - 1 do
      if m.live.(m.ready.(j)).Thread.tid = p then found := true
    done;
    !found
  in
  m.chosen <- tid;
  emit m (Event.Decide { step = m.step; tid; count = 1; preemptive })

let access m ~tid ~iid kind addr =
  emit m (Event.Access { step = m.step; tid; iid; kind; addr })

(* [th] is about to execute its current instruction (or terminator). *)
let emit_step m (th : Thread.t) ~woke =
  let fr = Thread.top th in
  let instrs = fr.Thread.block.Link.lb_instrs in
  let idx = fr.Thread.idx in
  let at_instr = idx < Array.length instrs in
  emit m
    (Event.Step
       {
         step = m.step;
         tid = th.Thread.tid;
         iid = (if at_instr then instrs.(idx).Link.li_iid else -1);
         ckpt =
           at_instr
           && (match instrs.(idx).Link.li_op with
              | Link.L_checkpoint _ -> true
              | _ -> false);
         woke;
       })

(* ------------------------------------------------------------------ *)
(* Evaluation helpers                                                  *)
(* ------------------------------------------------------------------ *)

let eval_reg (fr : Thread.frame) i =
  let v = fr.regs.(i) in
  if v == Thread.undef then
    raise
      (Fault
         (Format.asprintf "use of undefined register %a" Reg.pp
            fr.func.Link.lf_reg_names.(i)))
  else v

let eval (fr : Thread.frame) = function
  | Link.L_reg i -> eval_reg fr i
  | Link.L_const v -> v

(* Left-to-right, like the operand lists of the unlinked interpreter. *)
let eval_args (fr : Thread.frame) (a : Link.rarg array) =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n (eval fr a.(0)) in
    for i = 1 to n - 1 do
      out.(i) <- eval fr a.(i)
    done;
    out
  end

let eval_arg_list (fr : Thread.frame) (a : Link.rarg array) =
  let rec go i =
    if i >= Array.length a then []
    else
      let v = eval fr a.(i) in
      v :: go (i + 1)
  in
  go 0

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
  let th = thread m tid in
  (match th.Thread.status with
  | Thread.Done | Thread.Failed -> ()
  | _ ->
      th.Thread.status <- Thread.Failed;
      remove_live m th);
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

(* A recovering thread just branched: if the not-taken arm is the fail
   block of the site being recovered, the retry finally made it past the
   failure — the episode closes as recovered. [lb_site] was resolved onto
   the block at link time; the unlinked interpreter scanned the metadata
   list here. *)
let note_branch_taken m (th : Thread.t) (fr : Thread.frame) ~taken_idx
    ~other_idx =
  match th.Thread.recovering with
  | Some rec_ when m.meta <> None -> (
      match fr.func.Link.lf_blocks.(other_idx).Link.lb_site with
      | Some site when site = rec_.Thread.rec_site && taken_idx <> other_idx ->
          let ep =
            {
              Stats.ep_site_id = site;
              ep_tid = th.Thread.tid;
              ep_start = rec_.Thread.rec_start;
              ep_end = m.step;
              ep_retries =
                Thread.retries_of th site - rec_.Thread.rec_retries_before;
            }
          in
          m.stats.episodes <- ep :: m.stats.episodes;
          if sync m then
            emit m
              (Event.Recovered
                 { step = m.step; tid = th.Thread.tid; site_id = site });
          th.Thread.recovering <- None
      | _ -> ())
  | _ -> ()

let close_episode m (th : Thread.t) =
  match th.Thread.recovering with
  | None -> ()
  | Some rec_ ->
      let ep =
        {
          Stats.ep_site_id = rec_.Thread.rec_site;
          ep_tid = th.Thread.tid;
          ep_start = rec_.Thread.rec_start;
          ep_end = m.step;
          ep_retries =
            Thread.retries_of th rec_.Thread.rec_site
            - rec_.Thread.rec_retries_before;
        }
      in
      m.stats.episodes <- ep :: m.stats.episodes;
      if sync m then
        emit m
          (Event.Recovered
             {
               step = m.step;
               tid = th.Thread.tid;
               site_id = rec_.Thread.rec_site;
             });
      th.Thread.recovering <- None

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let compensate m (th : Thread.t) =
  let current, rest = Thread.current_region_acquisitions th in
  List.iter
    (fun (r, _) ->
      match r with
      | Thread.R_lock name ->
          if Locks.force_release m.locks name ~tid:th.Thread.tid then begin
            m.stats.compensated_locks <- m.stats.compensated_locks + 1;
            if sync m then
              emit m
                (Event.Release
                   { step = m.step; tid = th.Thread.tid; lock = name;
                     forced = true })
          end
      | Thread.R_block id ->
          if Heap.release_block m.heap id then begin
            m.stats.compensated_blocks <- m.stats.compensated_blocks + 1;
            if sync m then
              emit m
                (Event.Compensate_block
                   { step = m.step; tid = th.Thread.tid; block = id })
          end)
    current;
  th.Thread.acq_log <- rest

let rollback m (th : Thread.t) (ck : Thread.checkpoint) =
  if m.config.verify_rollbacks && th.Thread.last_destroy_step > ck.Thread.ck_step
  then m.stats.tracecheck_violations <- m.stats.tracecheck_violations + 1;
  while th.Thread.stack_depth > ck.Thread.ck_depth do
    ignore (Thread.pop_frame th)
  done;
  let fr = Thread.top th in
  (if fr.Thread.func == ck.Thread.ck_func then
     Array.blit ck.Thread.ck_regs 0 fr.Thread.regs 0 (Array.length fr.Thread.regs)
   else begin
     (* Cross-function restore (the checkpointing function is not the one
        the surviving frame runs): translate registers by name, exactly
        the replace-the-whole-map semantics of the unlinked interpreter —
        names the checkpoint never bound come back undefined. *)
     let src = ck.Thread.ck_func in
     let dst = fr.Thread.func in
     for j = 0 to Array.length fr.Thread.regs - 1 do
       fr.Thread.regs.(j) <-
         (if j < dst.Link.lf_nregs then
            match
              Hashtbl.find_opt src.Link.lf_reg_index
                (Reg.name dst.Link.lf_reg_names.(j))
            with
            | Some i -> ck.Thread.ck_regs.(i)
            | None -> Thread.undef
          else Thread.undef)
     done
   end);
  (match Link.find_block_index fr.Thread.func ck.Thread.ck_block with
  | Some bi -> fr.Thread.block <- fr.Thread.func.Link.lf_blocks.(bi)
  | None ->
      (* unreachable when guarded by [checkpoint_applicable] *)
      invalid_arg
        (Format.asprintf "Func.block_exn: no block %a in %a" Label.pp
           ck.Thread.ck_block Fname.pp fr.Thread.func.Link.lf_name));
  fr.Thread.idx <- ck.Thread.ck_idx;
  th.Thread.status <- Thread.Runnable;
  m.stats.rollbacks <- m.stats.rollbacks + 1

(* A checkpoint is stale once the frame it was taken in has returned —
   unless the frame now at that depth happens to have a block of the same
   label (the paper's setjmp analogue is exactly this loose). *)
let checkpoint_applicable (th : Thread.t) (ck : Thread.checkpoint) =
  Thread.depth th >= ck.Thread.ck_depth
  &&
  match List.nth_opt th.Thread.stack (Thread.depth th - ck.Thread.ck_depth) with
  | Some fr -> Link.find_block_index fr.Thread.func ck.Thread.ck_block <> None
  | None -> false

let try_recover m (th : Thread.t) ~site_id ~kind =
  (* the maintained depth counter must agree with the actual stack *)
  assert (th.Thread.stack_depth = List.length th.Thread.stack);
  match th.Thread.checkpoint with
  | Some ck
    when Thread.retries_of th site_id < m.config.max_retries
         && checkpoint_applicable th ck ->
      (match th.Thread.recovering with
      | Some r when r.Thread.rec_site = site_id -> ()
      | Some _ -> close_episode m th
      | None -> ());
      if th.Thread.recovering = None then
        th.Thread.recovering <-
          Some
            {
              Thread.rec_site = site_id;
              rec_start = m.step;
              rec_retries_before = Thread.retries_of th site_id;
            };
      Thread.bump_retries th site_id;
      if sync m then
        emit m
          (Event.Rollback
             {
               step = m.step;
               tid = th.Thread.tid;
               site_id;
               retry = Thread.retries_of th site_id;
             });
      compensate m th;
      rollback m th ck;
      if kind = Instr.Deadlock && m.config.deadlock_backoff > 0 then begin
        let pause =
          1 + Random.State.int (Sched.rng m.sched) m.config.deadlock_backoff
        in
        th.Thread.status <- Thread.Sleeping (m.step + pause)
      end;
      true
  | Some _ | None -> false

(* ------------------------------------------------------------------ *)
(* Instruction execution                                               *)
(* ------------------------------------------------------------------ *)

let advance (fr : Thread.frame) = fr.idx <- fr.idx + 1

let in_wait_cycle m ~tid ~lock =
  let rec chase lock_name seen =
    match Locks.owner m.locks lock_name with
    | None -> false
    | Some owner when owner = tid -> true
    | Some owner ->
        if List.mem owner seen then false
        else begin
          match (thread m owner).Thread.status with
          | Thread.Blocked_lock { name; _ } -> chase name (owner :: seen)
          | _ -> false
        end
  in
  chase lock []

let do_return m (th : Thread.t) v =
  match th.Thread.stack with
  | [] -> invalid_arg "return with empty stack"
  | frame :: rest -> (
      th.Thread.stack <- rest;
      th.Thread.stack_depth <- th.Thread.stack_depth - 1;
      match rest with
      | [] ->
          close_episode m th;
          if sync m then
            emit m (Event.Thread_done { step = m.step; tid = th.Thread.tid });
          th.Thread.status <- Thread.Done;
          remove_live m th
      | caller :: _ -> (
          match frame.Thread.ret_reg with
          | None -> ()
          | Some r -> (
              match v with
              | Some value -> caller.Thread.regs.(r) <- value
              | None ->
                  raise (Fault "function returned no value but one was expected"))))

let exec_spawn m (th : Thread.t) ~reg ~fid ~fname ~args =
  let fr = Thread.top th in
  let argv = eval_args fr args in
  if fid < 0 then
    raise (Fault (Format.asprintf "spawn of unknown %a" Fname.pp fname));
  let f = m.linked.Link.lp_funcs.(fid) in
  let tid = m.next_tid in
  m.next_tid <- tid + 1;
  let th' = Thread.create ~tid f ~args:argv in
  if m.config.perturb_timing && m.config.spawn_jitter > 0 then
    th'.Thread.status <-
      Thread.Sleeping
        (m.step + Random.State.int (Sched.rng m.sched) m.config.spawn_jitter);
  Hashtbl.replace m.threads tid th';
  add_live m th';
  if sync m then
    emit m (Event.Spawn { step = m.step; parent = th.Thread.tid; child = tid });
  fr.Thread.regs.(reg) <- Value.Tid tid;
  advance fr

(* The schedulable ops, [Compile]'s [C_sched] stoppers: the only
   instructions [run_thread_step] executes. Everything else runs as
   compiled code, whose spec is [Ref_machine]. *)
let exec_instr m (th : Thread.t) (i : Link.linstr) =
  let fr = Thread.top th in
  let regs = fr.Thread.regs in
  if i.Link.li_destroying then begin
    th.Thread.last_destroy_step <- m.step;
    if th.Thread.recovering <> None then close_episode m th
  end;
  match i.Link.li_op with
  | Link.L_lock mref ->
      let name = as_mutex (eval fr mref) in
      if Locks.try_acquire m.locks name ~tid:th.Thread.tid then begin
        Thread.log_acquisition th (Thread.R_lock name);
        if sync m then
          emit m
            (Event.Acquire
               { step = m.step; tid = th.Thread.tid; iid = i.Link.li_iid;
                 lock = name });
        th.Thread.status <- Thread.Runnable;
        advance fr
      end
      else begin
        match th.Thread.status with
        | Thread.Blocked_lock _ -> ()
        | _ ->
            if sync m then
              emit m
                (Event.Request
                   { step = m.step; tid = th.Thread.tid; iid = i.Link.li_iid;
                     lock = name });
            th.Thread.status <-
              Thread.Blocked_lock { name; since = m.step; timeout = None }
      end
  | Link.L_timed_lock (r, mref, timeout) ->
      let name = as_mutex (eval fr mref) in
      if Locks.try_acquire m.locks name ~tid:th.Thread.tid then begin
        Thread.log_acquisition th (Thread.R_lock name);
        if sync m then
          emit m
            (Event.Acquire
               { step = m.step; tid = th.Thread.tid; iid = i.Link.li_iid;
                 lock = name });
        regs.(r) <- Value.truth;
        th.Thread.status <- Thread.Runnable;
        advance fr
      end
      else begin
        let since =
          match th.Thread.status with
          | Thread.Blocked_lock { since; _ } -> since
          | _ -> m.step
        in
        let detected_cycle =
          m.config.deadlock_detection = Wait_graph
          && in_wait_cycle m ~tid:th.Thread.tid ~lock:name
        in
        if detected_cycle || m.step - since >= timeout then begin
          regs.(r) <- Value.Bool false;
          th.Thread.status <- Thread.Runnable;
          advance fr
        end
        else begin
          (match th.Thread.status with
          | Thread.Blocked_lock _ -> ()
          | _ ->
              if sync m then
                emit m
                  (Event.Request
                     { step = m.step; tid = th.Thread.tid; iid = i.Link.li_iid;
                       lock = name }));
          th.Thread.status <-
            Thread.Blocked_lock { name; since; timeout = Some timeout }
        end
      end
  | Link.L_unlock mref -> (
      let name = as_mutex (eval fr mref) in
      match Locks.release m.locks name ~tid:th.Thread.tid with
      | Ok () ->
          if sync m then
            emit m
              (Event.Release
                 { step = m.step; tid = th.Thread.tid; lock = name;
                   forced = false });
          advance fr
      | Error e -> raise (Fault e))
  | Link.L_spawn { reg; fid; fname; args } ->
      exec_spawn m th ~reg ~fid ~fname ~args
  | Link.L_join t -> (
      match eval fr t with
      | Value.Tid tid -> (
          match (thread m tid).Thread.status with
          | Thread.Done | Thread.Failed ->
              if sync m then
                emit m
                  (Event.Join
                     { step = m.step; tid = th.Thread.tid; joined = tid });
              th.Thread.status <- Thread.Runnable;
              advance fr
          | _ -> th.Thread.status <- Thread.Blocked_join tid)
      | v -> raise (Fault ("join of a non-thread value " ^ Value.to_string v)))
  | Link.L_sleep n ->
      let n =
        if m.config.perturb_timing && n > 0 then
          Random.State.int (Sched.rng m.sched) (n + 1)
        else n
      in
      th.Thread.status <- Thread.Sleeping (m.step + n);
      advance fr
  | Link.L_wait name -> (
      match th.Thread.status with
      | Thread.Blocked_event _ -> ()
      | _ ->
          if sync m then
            emit m
              (Event.Wait { step = m.step; tid = th.Thread.tid; event = name });
          th.Thread.status <-
            Thread.Blocked_event { name; since = m.step; timeout = None })
  | Link.L_timed_wait (r, name, timeout) ->
      let since =
        match th.Thread.status with
        | Thread.Blocked_event { since; _ } -> since
        | _ -> m.step
      in
      if m.step - since >= timeout then begin
        regs.(r) <- Value.Bool false;
        th.Thread.status <- Thread.Runnable;
        advance fr
      end
      else begin
        (match th.Thread.status with
        | Thread.Blocked_event _ -> ()
        | _ ->
            if sync m then
              emit m
                (Event.Wait
                   { step = m.step; tid = th.Thread.tid; event = name }));
        th.Thread.status <-
          Thread.Blocked_event { name; since; timeout = Some timeout }
      end
  | Link.L_notify name ->
      Hashtbl.iter
        (fun _ (waiter : Thread.t) ->
          match waiter.Thread.status with
          | Thread.Blocked_event { name = n; _ } when n = name ->
              let wfr = Thread.top waiter in
              (match wfr.Thread.block.Link.lb_instrs.(wfr.Thread.idx).Link.li_op
               with
              | Link.L_timed_wait (r, _, _) ->
                  wfr.Thread.regs.(r) <- Value.truth
              | _ -> ());
              wfr.Thread.idx <- wfr.Thread.idx + 1;
              waiter.Thread.status <- Thread.Runnable;
              if sync m then
                emit m
                  (Event.Wake
                     {
                       step = m.step;
                       waker = th.Thread.tid;
                       woken = waiter.Thread.tid;
                     })
          | _ -> ())
        m.threads;
      advance fr
  | Link.L_try_recover { site_id; kind } ->
      if sync m then
        emit m
          (Event.Failure_detected
             { step = m.step; tid = th.Thread.tid; site_id; kind });
      if not (try_recover m th ~site_id ~kind) then advance fr
  | Link.L_fail_stop { site_id; kind; msg } ->
      close_episode m th;
      set_failure m ~kind ~site_id:(Some site_id) ~iid:(Some i.Link.li_iid)
        ~tid:th.Thread.tid ~msg
  | _ -> invalid_arg "Machine.exec_instr: not a schedulable op"

(* [L_exit], the one terminator [Compile] leaves a stopper. *)
let exec_terminator m (th : Thread.t) =
  match (Thread.top th).Thread.block.Link.lb_term with
  | Link.L_exit ->
      th.Thread.status <- Thread.Done;
      remove_live m th;
      m.outcome <- Some Outcome.Success
  | _ -> invalid_arg "Machine.exec_terminator: not a schedulable terminator"

(* ------------------------------------------------------------------ *)
(* Eligibility and the schedulable step                                *)
(* ------------------------------------------------------------------ *)

let eligible m (th : Thread.t) =
  match th.Thread.status with
  | Thread.Runnable -> true
  | Thread.Sleeping until -> m.step >= until
  | Thread.Blocked_lock { name; since; timeout } ->
      Locks.is_free m.locks name
      || (match timeout with Some t -> m.step - since >= t | None -> false)
      || (m.config.deadlock_detection = Wait_graph
         && timeout <> None
         && in_wait_cycle m ~tid:th.Thread.tid ~lock:name)
  | Thread.Blocked_event { since; timeout; _ } -> (
      (* notifies wake the thread eagerly; only timeouts need polling *)
      match timeout with Some t -> m.step - since >= t | None -> false)
  | Thread.Blocked_join tid -> (
      match (thread m tid).Thread.status with
      | Thread.Done | Thread.Failed -> true
      | _ -> false)
  | Thread.Done | Thread.Failed -> false

(* The earliest virtual time after now at which a live thread becomes
   eligible on its own: a sleeper's [until], a timed lock or timed
   wait's [since + timeout]. Untimed waiters need another thread's
   action (an unlock, a notify, a death). A thread that is eligible
   already has no wake in the future, unless it waits on a free lock
   with a timeout still pending. [max_int] when nobody waits on time. *)
let next_wake m =
  let now = m.step and wake = ref max_int in
  for i = 0 to m.live_n - 1 do
    match m.live.(i).Thread.status with
    | Thread.Sleeping until ->
        if until > now && until < !wake then wake := until
    | Thread.Blocked_lock { since; timeout = Some t; _ }
    | Thread.Blocked_event { since; timeout = Some t; _ } ->
        let w = since + t in
        if w > now && w < !wake then wake := w
    | _ -> ()
  done;
  !wake

(* One schedulable op of [th], the thread [Block_machine.step] or a
   block-engine phase chose: everything a step does but the eligibility
   scan, the decision and the step counter. *)
let run_thread_step m (th : Thread.t) =
  let tid = th.Thread.tid in
  (* A sleeper simply wakes; blocked threads re-execute their blocking
     instruction, which inspects and updates the status itself (notably the
     [since] timestamp of a timed lock must survive rescheduling). *)
  let woke =
    match th.Thread.status with
    | Thread.Sleeping _ ->
        th.Thread.status <- Thread.Runnable;
        true
    | _ -> false
  in
  m.stats.instrs <- m.stats.instrs + 1;
  let fr = Thread.top th in
  let instrs = fr.Thread.block.Link.lb_instrs in
  let at_instr = fr.Thread.idx < Array.length instrs in
  (* Remember where the thread stands before executing: on a fault, the
     crash report carries the faulting instruction — exactly what a user
     hands to fix mode (§3.1.2). *)
  let at_iid = if at_instr then instrs.(fr.Thread.idx).Link.li_iid else -1 in
  if steps m then emit_step m th ~woke;
  try
    if at_instr then exec_instr m th instrs.(fr.Thread.idx)
    else exec_terminator m th
  with Fault msg ->
    (* An unrecovered runtime fault: segmentation fault or an equivalent
       hardware-level failure of this thread, which takes the program
       down. *)
    close_episode m th;
    set_failure m ~kind:Instr.Seg_fault ~site_id:None
      ~iid:(if at_iid < 0 then None else Some at_iid)
      ~tid ~msg

(* ------------------------------------------------------------------ *)
(* Whole-machine snapshots                                             *)
(* ------------------------------------------------------------------ *)

(* These exist for the *baseline* recovery schemes of Fig 4's right end
   (traditional whole-program checkpoint/rollback): they copy every thread,
   the heap, the globals and the locks. ConAir itself never needs them —
   that is its whole point. *)

type snapshot = {
  s_globals : (string, Value.t) Hashtbl.t;
  s_heap : Heap.t;
  s_locks : Locks.t;
  s_threads : (int * Thread.t) list;
  s_next_tid : int;
  s_step : int;
  s_outputs : string list;
}

let copy_frame (fr : Thread.frame) =
  {
    fr with
    Thread.stack_vars = Option.map Hashtbl.copy fr.Thread.stack_vars;
    regs = Array.copy fr.Thread.regs;
  }

let copy_thread (th : Thread.t) =
  {
    th with
    Thread.stack = List.map copy_frame th.Thread.stack;
    retries = Hashtbl.copy th.Thread.retries;
  }

let snapshot m : snapshot =
  {
    s_globals = Hashtbl.copy m.globals;
    s_heap = Heap.snapshot m.heap;
    s_locks = Locks.snapshot m.locks;
    s_threads =
      Hashtbl.fold (fun tid th acc -> (tid, copy_thread th) :: acc) m.threads [];
    s_next_tid = m.next_tid;
    s_step = m.step;
    s_outputs = m.outputs;
  }

(** Restore [m] to [s]. The statistics keep accumulating across restores
    (lost work is real work); the scheduler can be re-seeded by the caller
    so the retried execution explores a different interleaving. *)
let restore m (s : snapshot) =
  Hashtbl.reset m.globals;
  Hashtbl.iter (Hashtbl.replace m.globals) s.s_globals;
  Hashtbl.reset (Heap.blocks_table m.heap);
  let heap_copy = Heap.snapshot s.s_heap in
  Hashtbl.iter
    (Hashtbl.replace (Heap.blocks_table m.heap))
    (Heap.blocks_table heap_copy);
  Heap.set_next m.heap (Heap.next_id heap_copy);
  Hashtbl.reset m.locks;
  let locks_copy = Locks.snapshot s.s_locks in
  Hashtbl.iter (Hashtbl.replace m.locks) locks_copy;
  Hashtbl.reset m.threads;
  List.iter (fun (tid, th) -> Hashtbl.replace m.threads tid (copy_thread th))
    s.s_threads;
  m.next_tid <- s.s_next_tid;
  (* Virtual time is wall-clock: a rollback restores *state*, not time, so
     sleep deadlines captured in the snapshot keep their absolute meaning
     and blocked threads eventually make progress across restores. *)
  m.step <- max m.step s.s_step;
  m.outputs <- s.s_outputs;
  m.outcome <- None;
  m.here := None;
  rebuild_live m

(** Swap the scheduling policy and (optionally) enable timing perturbation
    — used by baselines to explore a different interleaving after a
    rollback or restart. *)
let reseed ?(perturb = false) m policy =
  let fresh = Sched.create policy in
  fresh.Sched.cursor <- m.sched.Sched.cursor;
  {
    m with
    sched = fresh;
    config = { m.config with perturb_timing = m.config.perturb_timing || perturb };
  }
