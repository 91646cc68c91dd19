(** A whole Mir program: global initializers, named mutexes, the function
    table, and the entry function run by the main thread. *)

module Fname = Ident.Fname

type t = {
  globals : (string * Value.t) list;
  mutexes : string list;
  funcs : Func.t list;
  main : Fname.t;
  stamp : int;
      (** Drawn from a global counter by {!v}, so two programs built
          separately never share one. A [{ p with ... }] copy keeps its
          parent's stamp. [Link]'s cache hashes programs by it and tells
          same-stamp programs apart by physical equality. *)
}

val v :
  ?globals:(string * Value.t) list ->
  ?mutexes:string list ->
  funcs:Func.t list ->
  main:Fname.t ->
  unit ->
  t

val find_func : t -> Fname.t -> Func.t option

val func_exn : t -> Fname.t -> Func.t
(** @raise Invalid_argument if the function does not exist. *)

val iter_funcs : t -> (Func.t -> unit) -> unit

val instr_count : t -> int
(** Total static instruction count — the program-size proxy of Table 2. *)

val find_instr : t -> int -> (Func.t * Block.t * int) option
(** Locate an instruction by id anywhere in the program. *)

val max_iid : t -> int
(** The largest instruction id in use ([-1] for an empty program); fresh
    ids from transformations start above it. *)

val pp : Format.formatter -> t -> unit
