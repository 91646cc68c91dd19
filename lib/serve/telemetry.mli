(** The daemon's shared observability state: a mutex-guarded
    {!Conair_obs.Metrics} registry (Prometheus-ready), per-tenant
    aggregates over fuzz-style run records, bounded per-job span
    history, and the status document. Every entry point is
    thread-safe. *)

module Json = Conair_obs.Json

type t

val create : ?max_history:int -> started:float -> unit -> t
(** [max_history] (default 256) bounds per-tenant latency samples and
    run records, and the span-document history. [started] is the
    daemon's Unix start time, for the uptime figure. *)

(** {2 Event entry points} *)

val note_connection : t -> unit
val note_submitted : t -> tenant:string -> kind:string -> unit
val note_started : t -> unit
val note_telemetry : t -> tenant:string -> unit

val note_finished :
  t ->
  tenant:string ->
  id:string ->
  kind:string ->
  status:string ->
  exit:int ->
  elapsed:float ->
  ?record:Json.t ->
  ?spans:Json.t ->
  ?bundle:Json.t ->
  unit ->
  unit
(** One job finished. [record] (a fuzz-style run record) feeds the
    tenant's {!Conair_obs.Aggregate}; [spans] (a Chrome trace document)
    is retained for the spans endpoint, evicting oldest-first past
    [max_history]; [bundle] (a flight-recorder diagnostic bundle from a
    failed run job) is retained for the bundle endpoint under a
    per-tenant cap of [max_history] — one tenant's failure storm never
    evicts another tenant's post-mortems. *)

(** {2 Read endpoints} *)

val prometheus : t -> string
(** The registry in Prometheus text exposition format. *)

val spans_of : t -> tenant:string -> id:string -> Json.t option

val bundle_of : t -> tenant:string -> id:string -> Json.t option
(** The flight-recorder bundle retained for a failed run job, if it is
    still within the tenant's retention window. *)

val status_json :
  t ->
  now:float ->
  pool_pending:int ->
  pool_inflight:int ->
  pool_workers:int ->
  Json.t
(** The ["serve_status"] document: uptime, pool stats, and per-tenant
    submitted/completed/failed counts, latency percentiles
    (nearest-rank, over the bounded sample window) and the aggregate
    over retained run records. *)
