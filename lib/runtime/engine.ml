(* Engine selection: one name, one packed machine type, one generic
   driver API over the two engines. Everything that lets a user pick an
   engine — the CLI's [--engine], the fuzzer, the serve protocol, the
   replay driver, the facade — goes through this module instead of
   open-coding a match per call site. *)

type t = Ref | Fast | Block

let all = [ Ref; Block ]

(* The engine wherever a caller names none: the library's entry points
   and the binaries' [--engine] default. *)
let default = Block

(* [Fast] names no code of its own: it runs, and is named, as [Block]. *)
let name = function Ref -> "ref" | Fast | Block -> "block"

let of_string s =
  match s with
  | "ref" -> Ok Ref
  | "block" | "fast" -> Ok Block
  | _ -> Error (Printf.sprintf "unknown engine %S (expected ref or block)" s)

type machine = M_ref of Ref_machine.t | M_block of Block_machine.t

let create ?config ?meta ?observer ?tap ?feed engine prog =
  match engine with
  | Ref -> M_ref (Ref_machine.create ?config ?meta ?observer ?tap ?feed prog)
  | Fast | Block ->
      M_block (Block_machine.create ?config ?meta ?observer ?tap ?feed prog)

let engine_of = function M_ref _ -> Ref | M_block _ -> Block

let run = function
  | M_ref m -> Ref_machine.run m
  | M_block m -> Block_machine.run m

let step = function
  | M_ref m -> Ref_machine.step m
  | M_block m -> Block_machine.step m

let outputs = function
  | M_ref m -> Ref_machine.outputs m
  | M_block m -> Block_machine.outputs m

let stats = function
  | M_ref m -> Ref_machine.stats m
  | M_block m -> Block_machine.stats m

let steps = function
  | M_ref m -> Ref_machine.steps m
  | M_block m -> Block_machine.steps m

let outcome = function
  | M_ref m -> Ref_machine.outcome m
  | M_block m -> Block_machine.outcome m

let sched = function
  | M_ref m -> Ref_machine.sched m
  | M_block m -> Block_machine.sched m

let thread_summaries = function
  | M_ref m -> Ref_machine.thread_summaries m
  | M_block m -> Block_machine.thread_summaries m

let run_program ?config ?meta ?observer ?tap ?feed engine prog =
  let m = create ?config ?meta ?observer ?tap ?feed engine prog in
  let outcome = run m in
  (m, outcome)
