(** Engine selection: one name and one generic driver API over the two
    engines.

    - [Ref] — the map-based reference interpreter ([Ref_machine]), the
      semantic oracle; deliberately slow.
    - [Block] — the block-compiled engine ([Block_machine]): threaded
      code over the linked program, run phase by phase. A thread alone
      runs without the scheduler until a schedulable op; with several
      eligible the scheduler decides every step, and a thread's
      register-only code runs ahead of those decisions. It runs
      everything else, single steps included ({!step}).

    The two agree bit-for-bit on every observable. *)

open Conair_ir

type t =
  | Ref
  | Fast
      (** The pre-resolved engine's name, kept as a constructor only:
          the perfbench recover workload, which measures successive
          versions of this library, still names it. It names no code:
          [create Fast] builds a block machine, [name Fast] is
          ["block"], and {!engine_of} never returns it. *)
  | Block

val all : t list
(** Oracle first: [[Ref; Block]]. *)

val default : t
(** [Block]: the engine of every library entry point that takes an
    optional [?engine] — the facade's runs, the replay driver, fix
    synthesis — and the binaries' and the serve protocol's [--engine]
    default. A constant, not a setting. *)

val name : t -> string
(** ["ref"] or ["block"] — the names the CLI, schedule logs and bundles
    use. *)

val of_string : string -> (t, string) result
(** The one parser of an engine name: ["ref"], ["block"], and ["fast"]
    (which older logs, bundles and requests carry) as [Block]; the
    engine never changes a run, so they replay identically. *)

(** A machine of whichever engine was selected. *)
type machine = M_ref of Ref_machine.t | M_block of Block_machine.t

val create :
  ?config:Machine.config ->
  ?meta:Machine.meta ->
  ?observer:Event.observer ->
  ?tap:(chosen:int -> eligible:int list -> unit) ->
  ?feed:Sched.feed ->
  t ->
  Program.t ->
  machine
(** The optional arguments are [Machine.create]'s. *)

val engine_of : machine -> t
val run : machine -> Outcome.t

val step : machine -> bool
(** One scheduler step; [false] once the program has finished. It never
    checks the fuel. *)

val outputs : machine -> string list
val stats : machine -> Stats.t
val steps : machine -> int
val outcome : machine -> Outcome.t option
val sched : machine -> Sched.t

val thread_summaries : machine -> (int * string * string list) list
(** [Machine.thread_summaries] on whichever engine — byte-identical
    across the two. *)

val run_program :
  ?config:Machine.config ->
  ?meta:Machine.meta ->
  ?observer:Event.observer ->
  ?tap:(chosen:int -> eligible:int list -> unit) ->
  ?feed:Sched.feed ->
  t ->
  Program.t ->
  machine * Outcome.t
