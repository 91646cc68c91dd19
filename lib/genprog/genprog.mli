(** Random-program generators: the substrate of the property-based tests
    and of the {e conair_fuzz} tool. Programs derive deterministically
    from small integer "spec" values, so QCheck shrinking, printing and
    failure reproduction are trivial. *)

open Conair.Ir

(** {1 Straight-line arithmetic with a reference evaluator} *)

type arith_op = { code : int; a : int; b : int }

val arith_spec_gen : arith_op list QCheck.Gen.t
val arith_spec_print : arith_op list -> string

val arith_program : arith_op list -> Program.t * int
(** The program and its expected final output value. *)

(** {1 Random CFGs for the region-walk safety property} *)

type cfg_spec = {
  nblocks : int;
  block_ops : int list list;
  terms : (int * int) list;
}

val cfg_spec_gen : cfg_spec QCheck.Gen.t
val cfg_spec_print : cfg_spec -> string

val cfg_program : cfg_spec -> Program.t
(** A (statically analyzable, never executed) function whose last block
    ends in a failure site with message ["the site"]. *)

val paths_to_site :
  Func.t -> site_iid:int -> cap:int -> Instr.t list list
(** Instruction paths from the entry to the site (each block visited at
    most twice, at most [cap] paths) — the reference enumeration the
    safety property checks the region walk against. *)

(** {1 Racy reader/writer programs} *)

type racy_spec = { pre_ops : int list; writer_delay : int; expected : int }

val racy_spec_gen : racy_spec QCheck.Gen.t
val racy_spec_print : racy_spec -> string

val racy_program : racy_spec -> Program.t
(** Two threads: a reader with an oracle assert on a shared value the
    writer publishes after [writer_delay] steps; output is the value. *)

(** {1 Ring deadlocks and lost wakeups} *)

type ring_spec = { threads : int; hold_delay : int }

val ring_spec_gen : ring_spec QCheck.Gen.t
val ring_spec_print : ring_spec -> string

val ring_program : ring_spec -> Program.t
(** [k] threads in a lock-order cycle: hangs unhardened; every inner
    acquisition is recoverable. *)

type wakeup_spec = { check_gap : int; notify_at : int; payload : int }

val wakeup_spec_gen : wakeup_spec QCheck.Gen.t
val wakeup_spec_print : wakeup_spec -> string

val wakeup_program : wakeup_spec -> Program.t
(** A lost-wakeup hang (the notify lands inside the consumer's
    check-to-wait gap); the hardened timed wait recovers and outputs the
    payload. *)

(** {1 Heap-operation sequences with a reference model} *)

type heap_op =
  | H_alloc of int
  | H_free of int
  | H_store of int * int * int
  | H_load of int * int

val heap_ops_gen : heap_op list QCheck.Gen.t
val heap_ops_print : heap_op list -> string

val heap_program : heap_op list -> Program.t
(** Two threads run the sequence over their own blocks and one shared
    global pointer (an op naming a block before its thread allocated
    one goes through it), so their accesses to cells, blocks, globals
    and stack slots interleave; a use-after-free faults. Outputs each
    thread's sum of loaded values. *)

(** {1 Contended register-only loops} *)

type shared_op = S_load | S_store | S_output

type spinner_spec = {
  rounds : int;
  body : int list;  (** the loop body's register-only ops, by code *)
  fault_round : int option;
      (** a division whose divisor reaches 0 in this round, if it comes *)
  shared : shared_op option;
      (** one access to a shared global, or an output, per round *)
}

val contended_spec_gen : spinner_spec list QCheck.Gen.t
(** Two to four threads. *)

val contended_spec_print : spinner_spec list -> string

val contended_program : spinner_spec list -> Program.t
(** One thread per spec, all spawned at once, each running its loop of
    register-only blocks (moves, binops, unops, nops, branch diamonds)
    — the code the block engine runs ahead of the clock in a contended
    phase — broken by any stack-slot load, with the optional per-round
    shared access in a block of its own, then outputting its registers
    and adding one to a shared global under a lock. *)

(** {1 Register-only loops over ints and bools} *)

(** A register's value before the loop. *)
type init = I_int of int | I_bool of bool | I_undef | I_ptr | I_str

type rloop_spec = {
  rl_rounds : int;
  rl_init : init list;  (** the values of [a], [b], [p], [q] and [n] *)
  rl_body : int list;  (** the loop body's ops, by code *)
}

val rloop_spec_gen : rloop_spec QCheck.Gen.t
val rloop_spec_print : rloop_spec -> string

val rloop_program : rloop_spec -> Program.t
(** One thread: the five registers set from the spec (some of a kind the
    loop does not write, undefined, a pointer or a string), a loop of
    register-only blocks over ints and bools (the code the block engine
    runs unboxed), then outputs of every register, one of them written
    on one path only. *)
