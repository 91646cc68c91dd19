(** The block-compilation ("threaded code") pass over [Link]'s output.

    Each linked instruction becomes one OCaml closure with operand
    decoding, callee resolution, jump-target resolution and
    fault-message rendering done at compile time, and the closures
    tail-call each other: [cb_chain.(i)] is the fused straight-line run
    from index [i] (links share tails, so compilation stays linear in
    the block size). Control transfers — jumps, branches, calls,
    returns — chain straight into their target block's compiled code
    whenever the window's step budget ([Machine.t]'s [wbound] field,
    owned by [Block_machine]) covers the target's worst-case run, so a
    long single-threaded stretch executes closure-to-closure with no
    driver dispatch at all.

    Every link has one form: it runs its op's body, adds 1 to
    [m.step] and tail-calls its successor, so [m.step] counts exactly
    the instructions retired at every point of a chain, and every
    event, failure record and checkpoint a link makes reads the
    reference's step. Chains move [fr.idx] only where it is read
    (transfers, calls, stoppers); a link that can raise parks [fr.idx]
    on its own index first, so a fault finds the faulting instruction
    there with its step not counted. The
    single-step form ([cb_one]) is the same link built on a
    continuation that parks [fr.idx] on the next instruction and stops.

    Each index also records the length of the register-only run from
    it through a jump or branch terminator ([cb_local]): code that
    touches only its thread's registers and program point, which
    [Block_machine]'s contended phases run ahead of the clock.

    A loop of register-only blocks over ints and bools (moves, binops,
    unops and nops over registers and [Int]/[Bool] constants, a division
    or modulo only by a nonzero constant, none destroying, each block
    ended by a jump or a branch) runs unboxed. The loops of a function
    are found when its first block compiles, with one kind, Int or
    Bool, inferred per register. At index 0 of each of its blocks the
    chain is an entry link: when the thread is not recovering and every
    register live into the block holds its kind (never the undefined
    sentinel), it copies them into a scratch [int array] (the machine's
    [uregs]) and runs whole blocks there — the caller's budget gate
    covers the first, and each later one runs only while [m.step] plus
    its length stays within the larger of [wbound] and [abound] — then
    writes back, freshly boxed, the registers the executed blocks
    wrote, leaves [m.step], [fr.block] and [fr.idx] exactly where the
    boxed chain would, and goes on as the boxed terminator would. It is
    exact: the checks make every read in the loop see a value of its
    kind, under which the unboxed arithmetic, comparisons and
    truthiness are the boxed ones and nothing can fault; the code reads
    no clock, emits nothing, and a thread that is not recovering notes
    no branch. Anything that fails a check runs the boxed chain. The
    single-step forms never reach the tier.

    Instructions that can never affect another thread's eligibility
    compile to real code; schedulable ones (lock/unlock, spawn/join,
    sleep, wait/notify, recovery, fail-stop and [exit]) are stoppers
    that send the driver through [Machine.run_thread_step]. The runs
    between stoppers are what [Block_machine] retires
    without rescanning eligibility.

    Blocks compile on first entry. The code object starts with every
    slot holding one shared pending block, and the driver's lookup
    ({!block}) compiles a block the first time a thread stands in it,
    so a run pays only for the code it reaches — a clean run never
    compiles its fail arms. A transfer link that chains into a block
    still pending lands on the pending block's entry, which returns
    [t_refresh] with the program point already on the target; the
    driver's next lookup compiles it.

    Closures implement [Ref_machine]'s semantics bit-for-bit —
    including operand evaluation order and fault-message bytes — and
    call [Machine]'s shared runtime off the hot paths. Faults are
    raised with the program point parked at the faulting instruction
    and that instruction's step not counted, so the driver's fault arm
    finds the faulting frame on top with [fr.idx] at the faulting
    instruction. *)

(** Chain results, unboxed so completing a run allocates nothing. The
    chain has already counted every retired step in [m.step]. *)

val t_refresh : int
(** the program point moved and the budget gate stopped the chain, a
    single-step form retired its instruction, or the chain reached a
    block not compiled yet: re-fetch frame and block, keep going *)

val t_end : int
(** the window is over (thread died, or the outcome is decided) *)

val t_sched : int
(** stopped at an unexecuted schedulable op at [fr.idx]: run it through
    [Machine.run_thread_step] *)

val t_failed : int
(** an assertion (or inline-compiled fault) failed mid-run; its step is
    already counted and the failure is already recorded *)

type chain = Machine.t -> Thread.t -> Thread.frame -> int
(** Retires the run from the entry index under a single call, returning
    one of the [t_*] results. May raise [Machine.Fault] with the
    faulting frame on top of the thread's stack, [fr.idx] at the
    faulting instruction and that instruction's step not yet counted. *)

type cblock = {
  cb_chain : chain array;
      (** indexed by [fr.idx]; slot [length lb_instrs] is the
          terminator: the fused run from that entry point, chaining
          through control transfers while [m.wbound] allows *)
  mutable cb_one : chain array;
      (** the same compiled links with a continuation that parks
          [fr.idx] on the next instruction and returns [t_refresh]:
          retires exactly one instruction; control transfers still gate
          on [m.wbound], so a driver that wants strict single-stepping
          must floor it first.
          Empty until the block is first single-stepped: read it through
          {!one} *)
  cb_iids : int array;  (** per-instruction iids, for fault reports *)
  cb_need : int array;
      (** worst-case step budget the chain at this index consumes
          before its next [m.wbound] gate, counting the generic step of
          a stopping schedulable op *)
  cb_sched : bool array;
      (** true where the slot holds a schedulable-op stopper *)
  cb_local : int array;
      (** the number of steps from this index through the block's
          terminator when every one of them is register-only — moves,
          binops, unops and nops, none destroying, ended by a jump or a
          branch — else [0]. Such steps read and write only the thread's
          own registers and program point, read no clock, and emit
          nothing to any observer but one of per-step events; with
          [m.wbound] floored, [cb_chain] at a positive index retires
          exactly that many steps (or raises before a faulting one), or,
          at index 0 of an unboxed loop's block, the loop's blocks up to
          [m.abound] *)
}

type program
(** An image's threaded code, compiled one block at a time on first
    entry. *)

val compile : Link.program -> program
(** The image's code object. The first call creates it, with every
    block pending, and stores it in the image's [lp_code] slot; later
    calls return the stored object, so machines over one image share it
    and it lives as long as the image does. Nothing is compiled yet. *)

val block : program -> Link.lfunc -> Link.lblock -> cblock
(** The compiled code of a block, compiled and stored on the first
    call. The driver's one code lookup. Transfer links that chain into a
    block not compiled yet find a pending block instead, whose every
    entry returns [t_refresh] with the program point already on the
    target, so the driver's next lookup compiles it. *)

val one : program -> Link.lfunc -> Link.lblock -> cblock -> chain array
(** [one code f b cb]: the single-step forms of [cb], the compiled code
    of [b], built on the first call. Many blocks only ever run as
    chains, so they never pay for them. *)

val is_compiled : program -> Link.lfunc -> Link.lblock -> bool
(** Has the block been entered (and so compiled) yet? *)
