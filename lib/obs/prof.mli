(** The deterministic virtual-time cost profiler.

    [Prof.t] folds a run's observation stream: attach [probe t] as the
    run's observer, run, then [finalize] and read. Every
    scheduler step is attributed to a context — the call stack plus the
    current block, rendered as a collapsed-stack frame path
    ["main;worker;loop_body"] — and classified as:

    - {e useful}: retired work that was never rolled back;
    - {e checkpoint}: executions of the [Checkpoint] pseudo-instruction,
      ConAir's proactive cost;
    - {e wasted}: work undone by a rollback, charged per-context {e and}
      to the failure site that triggered the rollback;
    - {e idle}: scheduler steps where only virtual time passed.

    Costs are scheduler steps, so a profile is a pure function of
    (program, config, seed) and byte-identical across the fast and
    reference engines. All exports are emitted in sorted order. *)

type t

type kind = Useful | Checkpoint | Wasted | Total

val kind_name : kind -> string

type site_cost = {
  sc_site : int;
  sc_wasted : int;  (** steps rolled back because of this site *)
  sc_rollbacks : int;
}

type row = { r_ctx : string; r_useful : int; r_ckpt : int; r_wasted : int }

(** A cumulative-totals snapshot, taken at every rollback and at
    [finalize] — the points of the Chrome counter track. *)
type sample = {
  sm_step : int;
  sm_useful : int;
  sm_ckpt : int;
  sm_wasted : int;
}

val create : unit -> t

val probe : t -> Conair_runtime.Event.observer
(** The observer to attach to a run: it consumes per-step events (steps,
    idle ticks) and rollbacks. One [t] profiles one run. *)

val finalize : t -> unit
(** Flush steps still awaiting classification to {e useful} and close the
    profile. Call once the run has finished, before reading; idempotent. *)

val useful_steps : t -> int
val checkpoint_steps : t -> int
val wasted_steps : t -> int
val idle_steps : t -> int

val attributed_steps : t -> int
(** useful + checkpoint + wasted — every non-idle scheduler step. *)

val wasted_ratio : t -> float
(** wasted / attributed; [0.] for an empty profile. *)

val site_costs : t -> site_cost list
(** Per failure site, ascending site id. *)

val rows : t -> row list
(** Per-context cost table, descending total. *)

val samples : t -> sample list
(** Chronological. *)

val to_collapsed : t -> kind -> string list
(** Collapsed-stack flamegraph lines (["fun;fun;block N"]), sorted by
    frame path — feed directly to flamegraph.pl or speedscope. [Total]
    merges the three classes. Zero-count contexts are omitted. *)

val to_json : t -> Json.t
(** The full profile: totals, per-context tables, per-site costs,
    samples. *)

val counter_events : t -> Json.t list
(** Chrome trace-event counter events (["ph":"C"]), one per sample — pass
    to {!Span.to_chrome} via [?counters] to get a stacked cost track
    alongside the recovery spans. *)
