(** Named mutexes. Non-reentrant, like [pthread_mutex_t]: a thread
    re-acquiring a lock it already holds blocks itself forever. Locks may
    also spring into existence on first use (run-time mutex
    initialization). *)

type state = { mutable owner : int option; mutable acquisitions : int }
type t = (string, state) Hashtbl.t

val create : string list -> t
val get : t -> string -> state
val is_free : t -> string -> bool
val owner : t -> string -> int option

val try_acquire : t -> string -> tid:int -> bool
(** False when held — including by [tid] itself. *)

val release : t -> string -> tid:int -> (unit, string) result
(** Error if [tid] is not the owner. *)

val force_release : t -> string -> tid:int -> bool
(** Unconditional release for the recovery compensation; true iff [tid]
    held the lock. *)

val held_by : t -> tid:int -> string list
(** The locks currently held by [tid], sorted by name (independent of
    hash-table iteration order) — the lockset observers read through
    [Event.view]. *)

val snapshot : t -> t
