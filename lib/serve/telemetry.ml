(* The daemon's shared observability state: one mutex-guarded
   [Obs.Metrics] registry (Prometheus-ready), per-tenant aggregates
   over the fuzz-style run records each job emits, bounded per-job
   span history for the Chrome-trace endpoint, and the status
   document.

   Everything here is cross-thread shared state — workers, connection
   readers and the accept loop all report in — so every entry point
   takes the mutex. The registry itself is the same [Obs.Metrics] the
   CLI uses; only the locking wrapper is new. *)

module Json = Conair_obs.Json
module Metrics = Conair_obs.Metrics
module Aggregate = Conair_obs.Aggregate

type tenant_state = {
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;  (** completed with status <> "ok" or exit <> 0 *)
  mutable latencies_ms : float list;  (** most recent first, bounded *)
  mutable records : Json.t list;  (** fuzz-style run records, bounded *)
  mutable bundles : int;  (** flight bundles produced (lifetime count) *)
}

type t = {
  mu : Mutex.t;
  metrics : Metrics.t;
  started : float;  (** Unix time of [create] *)
  tenants : (string, tenant_state) Hashtbl.t;
  spans : (string * string, Json.t) Hashtbl.t;
      (** (tenant, job id) -> Chrome trace document *)
  mutable span_order : (string * string) list;  (** eviction order *)
  bundles : (string * string, Json.t) Hashtbl.t;
      (** (tenant, job id) -> flight-recorder diagnostic bundle *)
  mutable bundle_order : (string * string) list;
      (** per-tenant FIFO eviction order: retention is capped per tenant
          (at [max_history]), so one tenant's failure storm cannot evict
          another tenant's post-mortems *)
  max_history : int;
  inflight : Metrics.gauge;
  connections : Metrics.counter;
  telemetry_lines : Metrics.counter;
  bundles_total : Metrics.counter;
}

let latency_buckets =
  [ 0.001; 0.005; 0.025; 0.1; 0.25; 0.5; 1.0; 2.5; 10.0 ]

let create ?(max_history = 256) ~started () =
  let metrics = Metrics.create () in
  {
    mu = Mutex.create ();
    metrics;
    started;
    tenants = Hashtbl.create 8;
    spans = Hashtbl.create 16;
    span_order = [];
    bundles = Hashtbl.create 16;
    bundle_order = [];
    max_history = max 1 max_history;
    inflight =
      Metrics.gauge ~help:"Jobs currently executing" metrics
        "conair_serve_inflight_jobs";
    connections =
      Metrics.counter ~help:"Client connections accepted" metrics
        "conair_serve_connections_total";
    telemetry_lines =
      Metrics.counter ~help:"Telemetry lines streamed to clients" metrics
        "conair_serve_telemetry_lines_total";
    bundles_total =
      Metrics.counter ~help:"Flight-recorder bundles captured for failed jobs"
        metrics "conair_serve_bundles_total";
  }

let tenant_state t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some s -> s
  | None ->
      let s =
        {
          submitted = 0;
          completed = 0;
          failed = 0;
          latencies_ms = [];
          records = [];
          bundles = 0;
        }
      in
      Hashtbl.replace t.tenants tenant s;
      s

let truncate n xs = List.filteri (fun i _ -> i < n) xs

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* --- event entry points ------------------------------------------- *)

let note_connection t = locked t (fun () -> Metrics.inc t.connections)

let note_submitted t ~tenant ~kind =
  locked t (fun () ->
      (tenant_state t tenant).submitted <- (tenant_state t tenant).submitted + 1;
      Metrics.inc
        (Metrics.counter ~help:"Jobs submitted"
           ~labels:[ ("tenant", tenant); ("kind", kind) ]
           t.metrics "conair_serve_jobs_submitted_total");
      Metrics.set
        (Metrics.gauge ~help:"Jobs queued per tenant"
           ~labels:[ ("tenant", tenant) ]
           t.metrics "conair_serve_queue_depth")
        (float_of_int
           ((tenant_state t tenant).submitted
           - (tenant_state t tenant).completed)))

let note_started t = locked t (fun () ->
    Metrics.set t.inflight (Metrics.gauge_value t.inflight +. 1.))

let note_telemetry t ~tenant =
  locked t (fun () ->
      Metrics.inc t.telemetry_lines;
      Metrics.inc
        (Metrics.counter ~help:"Telemetry lines per tenant"
           ~labels:[ ("tenant", tenant) ]
           t.metrics "conair_serve_tenant_telemetry_lines_total"))

(* One job finished. [record] is the fuzz-style run record (when the
   job kind produces one) feeding the per-tenant [Aggregate]; [spans]
   the Chrome document for the spans endpoint; [bundle] the
   flight-recorder post-mortem of a failed run job, retained for the
   bundle endpoint under a per-tenant cap. *)
let note_finished t ~tenant ~id ~kind ~status ~exit ~elapsed ?record ?spans
    ?bundle () =
  locked t (fun () ->
      let s = tenant_state t tenant in
      s.completed <- s.completed + 1;
      if status <> "ok" || exit <> 0 then s.failed <- s.failed + 1;
      s.latencies_ms <- truncate t.max_history ((elapsed *. 1000.) :: s.latencies_ms);
      (match record with
      | Some r -> s.records <- truncate t.max_history (r :: s.records)
      | None -> ());
      (match spans with
      | Some doc ->
          let key = (tenant, id) in
          if not (Hashtbl.mem t.spans key) then begin
            t.span_order <- t.span_order @ [ key ];
            if List.length t.span_order > t.max_history then begin
              match t.span_order with
              | oldest :: rest ->
                  Hashtbl.remove t.spans oldest;
                  t.span_order <- rest
              | [] -> ()
            end
          end;
          Hashtbl.replace t.spans key doc
      | None -> ());
      (match bundle with
      | Some doc ->
          let key = (tenant, id) in
          if not (Hashtbl.mem t.bundles key) then begin
            s.bundles <- s.bundles + 1;
            Metrics.inc t.bundles_total;
            Metrics.inc
              (Metrics.counter ~help:"Flight bundles per tenant"
                 ~labels:[ ("tenant", tenant) ]
                 t.metrics "conair_serve_tenant_bundles_total");
            t.bundle_order <- t.bundle_order @ [ key ];
            (* per-tenant retention cap: evict this tenant's oldest *)
            let mine =
              List.filter (fun (tn, _) -> tn = tenant) t.bundle_order
            in
            if List.length mine > t.max_history then begin
              match mine with
              | oldest :: _ ->
                  Hashtbl.remove t.bundles oldest;
                  t.bundle_order <-
                    List.filter (fun k -> k <> oldest) t.bundle_order
              | [] -> ()
            end;
            Metrics.set
              (Metrics.gauge ~help:"Flight bundles retained per tenant"
                 ~labels:[ ("tenant", tenant) ]
                 t.metrics "conair_serve_bundles_retained")
              (float_of_int
                 (List.length
                    (List.filter (fun (tn, _) -> tn = tenant) t.bundle_order)))
          end;
          Hashtbl.replace t.bundles key doc
      | None -> ());
      Metrics.set t.inflight
        (Float.max 0. (Metrics.gauge_value t.inflight -. 1.));
      Metrics.inc
        (Metrics.counter ~help:"Jobs completed"
           ~labels:
             [ ("tenant", tenant); ("kind", kind); ("status", status) ]
           t.metrics "conair_serve_jobs_completed_total");
      Metrics.observe
        (Metrics.histogram ~help:"Job wall-clock seconds"
           ~labels:[ ("tenant", tenant) ]
           ~buckets:latency_buckets t.metrics "conair_serve_job_seconds")
        elapsed;
      Metrics.set
        (Metrics.gauge ~help:"Jobs queued per tenant"
           ~labels:[ ("tenant", tenant) ]
           t.metrics "conair_serve_queue_depth")
        (float_of_int (s.submitted - s.completed)))

(* --- read endpoints ------------------------------------------------ *)

let prometheus t = locked t (fun () -> Metrics.to_prometheus t.metrics)

let spans_of t ~tenant ~id =
  locked t (fun () -> Hashtbl.find_opt t.spans (tenant, id))

let bundle_of t ~tenant ~id =
  locked t (fun () -> Hashtbl.find_opt t.bundles (tenant, id))

let percentile_ms xs p =
  (* reuse the hardened nearest-rank percentile over whole milliseconds *)
  Aggregate.percentile (List.map (fun f -> int_of_float (Float.round f)) xs) p

let status_json t ~now ~pool_pending ~pool_inflight ~pool_workers =
  locked t (fun () ->
      let tenants =
        Hashtbl.fold (fun name s acc -> (name, s) :: acc) t.tenants []
        |> List.sort compare
      in
      Json.Obj
        [
          ("type", Json.String "serve_status");
          ("uptime_sec", Json.Float (Float.max 0. (now -. t.started)));
          ( "pool",
            Json.Obj
              [
                ("workers", Json.Int pool_workers);
                ("pending", Json.Int pool_pending);
                ("inflight", Json.Int pool_inflight);
              ] );
          ( "tenants",
            Json.List
              (List.map
                 (fun (name, s) ->
                   Json.Obj
                     [
                       ("tenant", Json.String name);
                       ("submitted", Json.Int s.submitted);
                       ("completed", Json.Int s.completed);
                       ("failed", Json.Int s.failed);
                       ("queued", Json.Int (s.submitted - s.completed));
                       ("bundles", Json.Int s.bundles);
                       ( "latency_ms",
                         Json.Obj
                           [
                             ( "p50",
                               Json.Int (percentile_ms s.latencies_ms 50.) );
                             ( "p95",
                               Json.Int (percentile_ms s.latencies_ms 95.) );
                             ( "max",
                               Json.Int (percentile_ms s.latencies_ms 100.) );
                           ] );
                       ( "aggregate",
                         Aggregate.to_json (Aggregate.of_records s.records) );
                     ])
                 tenants) );
        ])
