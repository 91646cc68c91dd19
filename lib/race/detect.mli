(** The online race/deadlock detector: one observer, three lenses.

    Attach [probe t] to a run as its observer, run, then [report t].
    Reports are deterministic in the schedule, so they are
    byte-identical across runs with the same policy and seed and across
    the engines. *)

open Conair_runtime

type options = {
  hb : bool;  (** happens-before races ([Hb]) *)
  lockset : bool;  (** Eraser lockset warnings ([Lockset]) *)
  deadlock : bool;  (** lock-order cycles ([Lockorder]) *)
}

val all : options

type t

val create : ?options:options -> unit -> t
(** Default: every lens on. *)

val probe : t -> Event.observer
(** Consumes access and sync events. *)

val report : t -> Report.t
