(** Lock-order graph with cycle detection.

    Edges are witnessed held-lock → acquired-or-requested-lock pairs.
    "Actual" cycles close among simultaneously pending (blocked)
    requests — checked online at each request, so deadlocks that a
    hardened run's timed locks later dissolve are still caught.
    "Potential" cycles exist only in the accumulated graph: inconsistent
    lock ordering some other schedule could deadlock. *)

type t

val create : unit -> t

val clear : t -> int -> unit
(** The thread did something else: its pending request (if any) is over. *)

val on_acquire :
  t -> tid:int -> iid:int -> step:int -> lock:string -> locks:string list -> unit
(** [locks] is the held set {e including} [lock]. *)

val on_request :
  t -> tid:int -> iid:int -> step:int -> lock:string -> locks:string list -> unit
(** A blocked request; [locks] is the held set (without [lock]). *)

val finalize : t -> Report.cycle list
(** Actual cycles in discovery order, then potential ones sorted by
    their canonical lock list; no cycle appears in both. *)

(** {1 The witness graph alone}

    The set of {!Report.cycle_key}s that {!finalize} reports is the set of
    simple cycles of the witnessed held→acquired/requested graph (every
    actual cycle closes among request edges that are witnessed too), so
    it can be computed from acquisitions and requests alone. *)

type witness

val witness : unit -> witness

val witness_probe : witness -> Conair_runtime.Event.observer
(** An observer of sync events only (it reads acquisitions and
    requests), so it keeps the block engine on its compiled window
    path. *)

val cycle_keys : witness -> string list
(** The canonical keys of the witnessed graph's simple cycles, sorted —
    the keys of {!finalize}'s cycles over the same run. *)
