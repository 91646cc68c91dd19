(** Race and deadlock findings.

    Deterministic given the probe event stream: same schedule, byte-
    identical report — on either engine. *)

open Conair_runtime
module Json = Conair_obs.Json

type access = {
  ac_step : int;
  ac_tid : int;
  ac_iid : int;
  ac_stack : string list;  (** function names, innermost first *)
  ac_block : string;
  ac_kind : Event.kind;
  ac_addr : Event.addr;
  ac_locks : string list;  (** held lockset, sorted *)
}

type race = {
  rc_addr : Event.addr;
  rc_prev : access;  (** earlier conflicting access *)
  rc_curr : access;  (** the write at which the race was detected *)
}

type warning = {
  w_addr : Event.addr;
  w_prev : access option;
  w_curr : access;  (** access at which the candidate lockset emptied *)
}

type edge = {
  e_from : string;
  e_to : string;
  e_tid : int;
  e_iid : int;
  e_step : int;
  e_req : bool;  (** witnessed as a blocked request, not an acquisition *)
}

type cycle = {
  cy_locks : string list;  (** canonical: minimum lock first *)
  cy_actual : bool;
      (** closed among simultaneously-blocked requests (a deadlock that
          happened), vs. merely present in the lock-order graph *)
  cy_edges : edge list;
}

type t = { races : race list; warnings : warning list; cycles : cycle list }

val empty : t
val addr_string : Event.addr -> string

val kind_string : Event.kind -> Event.kind -> string

val cycle_key : cycle -> string
(** Canonical identity of a lock-order cycle: its (already canonical)
    lock list joined with ["->"]. Actual and potential cycles share a
    key deliberately — demoting an actual deadlock to a potential one
    does not remove the inversion. *)

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
