(* Engine selection: one name, one packed machine type, one generic
   driver API over the three interpreters. Everything that lets a user
   pick an engine — the CLI's [--engine], the fuzzer, the replay driver,
   the facade — goes through this module instead of open-coding a
   three-way match per call site. *)

type t = Ref | Fast | Block

let all = [ Ref; Fast; Block ]

(* The library's engine wherever a caller names none. The binaries keep
   their own [--engine] default. *)
let default = Block
let name = function Ref -> "ref" | Fast -> "fast" | Block -> "block"

let of_string s =
  match s with
  | "ref" -> Ok Ref
  | "fast" -> Ok Fast
  | "block" -> Ok Block
  | _ ->
      Error (Printf.sprintf "unknown engine %S (expected ref, fast or block)" s)

type machine =
  | M_ref of Ref_machine.t
  | M_fast of Machine.t
  | M_block of Block_machine.t

let create ?config ?meta ?observer ?tap ?feed engine prog =
  match engine with
  | Ref -> M_ref (Ref_machine.create ?config ?meta ?observer ?tap ?feed prog)
  | Fast -> M_fast (Machine.create ?config ?meta ?observer ?tap ?feed prog)
  | Block ->
      M_block (Block_machine.create ?config ?meta ?observer ?tap ?feed prog)

let engine_of = function M_ref _ -> Ref | M_fast _ -> Fast | M_block _ -> Block

let run = function
  | M_ref m -> Ref_machine.run m
  | M_fast m -> Machine.run m
  | M_block m -> Block_machine.run m

let step = function
  | M_ref m -> Ref_machine.step m
  | M_fast m -> Machine.step m
  | M_block m -> Block_machine.step m

let outputs = function
  | M_ref m -> Ref_machine.outputs m
  | M_fast m -> Machine.outputs m
  | M_block m -> Block_machine.outputs m

let stats = function
  | M_ref m -> Ref_machine.stats m
  | M_fast m -> Machine.stats m
  | M_block m -> Block_machine.stats m

let steps = function
  | M_ref m -> Ref_machine.steps m
  | M_fast m -> m.Machine.step
  | M_block m -> Block_machine.steps m

let outcome = function
  | M_ref m -> Ref_machine.outcome m
  | M_fast m -> m.Machine.outcome
  | M_block m -> Block_machine.outcome m

let sched = function
  | M_ref m -> Ref_machine.sched m
  | M_fast m -> m.Machine.sched
  | M_block m -> Block_machine.sched m

let thread_summaries = function
  | M_ref m -> Ref_machine.thread_summaries m
  | M_fast m -> Machine.thread_summaries m
  | M_block m -> Block_machine.thread_summaries m

let run_program ?config ?meta ?observer ?tap ?feed engine prog =
  let m = create ?config ?meta ?observer ?tap ?feed engine prog in
  let outcome = run m in
  (m, outcome)
