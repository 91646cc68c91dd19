(* The recovery-as-a-service daemon: accept loop, per-connection reader
   threads, and the wiring between the protocol, the worker pool and
   the shared telemetry registry.

   Threading model: the accept loop runs in [serve]'s calling thread;
   each connection gets one reader thread (parsing request lines) and
   one outbox writer thread (draining response lines); submitted jobs
   execute on the pool's workers. A worker publishes frames only
   through the submitting connection's outbox, so a slow or vanished
   client exerts backpressure on (or is discarded by) its own outbox
   and never blocks another tenant's connection.

   Shutdown: a [shutdown] request stops the accept loop, drains every
   queued and in-flight job (the pool's guarantee), flushes outboxes
   and returns from [serve]. *)

module Json = Conair_obs.Json

type address = Unix_path of string | Tcp of string * int

type config = {
  address : address;
  workers : int;
  max_pending : int;  (** pool backpressure bound *)
  max_program_bytes : int;  (** inline payload guard *)
  max_outbox : int;  (** per-connection response-queue bound *)
}

let default_config address =
  {
    address;
    workers = 4;
    max_pending = 256;
    max_program_bytes = 1_000_000;
    max_outbox = 4096;
  }

type t = {
  cfg : config;
  pool : Pool.t;
  telemetry : Telemetry.t;
  listen_fd : Unix.file_descr;
  mutable stop : bool;
  stop_mu : Mutex.t;
  mutable conns : Thread.t list;  (** every connection thread, for join *)
  mutable conn_fds : (int * Unix.file_descr) list;
      (** live connection sockets; entries leave before their fd closes,
          so the shutdown path can safely force-EOF blocked readers *)
  mutable conn_ids : int;
  conns_mu : Mutex.t;
}

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let listen_on address =
  let domain =
    match address with Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
  in
  (match address with
  | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (sockaddr_of address);
  Unix.listen fd 64;
  fd

let stopping t =
  Mutex.lock t.stop_mu;
  let s = t.stop in
  Mutex.unlock t.stop_mu;
  s

let request_stop t =
  Mutex.lock t.stop_mu;
  t.stop <- true;
  Mutex.unlock t.stop_mu;
  (* wake the accept loop: it is blocked in [accept]; closing the
     listening socket makes it raise and observe [stop] *)
  try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
  with Unix.Unix_error _ -> ()

(* --- per-request handling ------------------------------------------ *)

let handle_submit t out ~tenant ~id job =
  Telemetry.note_submitted t.telemetry ~tenant ~kind:(Protocol.kind_name job);
  let work () =
    Telemetry.note_started t.telemetry;
    let started = Unix.gettimeofday () in
    let telemetry j =
      Telemetry.note_telemetry t.telemetry ~tenant;
      Outbox.send_json out (Protocol.telemetry ~tenant ~id j)
    in
    let r = Job.execute ~telemetry job in
    let elapsed = Unix.gettimeofday () -. started in
    Telemetry.note_finished t.telemetry ~tenant ~id
      ~kind:(Protocol.kind_name job) ~status:r.Job.jr_status
      ~exit:r.Job.jr_exit ~elapsed ?record:r.Job.jr_record
      ?spans:r.Job.jr_spans ?bundle:r.Job.jr_bundle ();
    Outbox.send_json out
      (Protocol.result ~tenant ~id ~status:r.Job.jr_status ~exit:r.Job.jr_exit
         ~elapsed_ms:(Float.round (elapsed *. 1000.))
         r.Job.jr_report)
  in
  (* Ack before the pool sees the job: a worker may start it the
     instant [submit] returns, and its telemetry must follow the ack in
     the outbox. The rare shutdown rejection arrives as a subsequent
     error frame for the same (tenant, id). *)
  Outbox.send_json out
    (Protocol.ack ~tenant ~id ~queue_depth:(Pool.depth t.pool tenant + 1));
  match Pool.submit t.pool ~tenant work with
  | Ok _seq -> ()
  | Error e -> Outbox.send_json out (Protocol.error ~tenant ~id e)

let handle_request t out = function
  | Protocol.Submit { tenant; id; job } -> handle_submit t out ~tenant ~id job
  | Protocol.Status ->
      let s = Pool.stats t.pool in
      Outbox.send_json out
        (Telemetry.status_json t.telemetry ~now:(Unix.gettimeofday ())
           ~pool_pending:s.Pool.s_pending ~pool_inflight:s.Pool.s_inflight
           ~pool_workers:s.Pool.s_workers)
  | Protocol.Metrics ->
      Outbox.send_json out
        (Protocol.metrics_frame (Telemetry.prometheus t.telemetry))
  | Protocol.Spans { tenant; id } -> (
      match Telemetry.spans_of t.telemetry ~tenant ~id with
      | Some doc -> Outbox.send_json out (Protocol.spans_frame ~tenant ~id doc)
      | None ->
          Outbox.send_json out
            (Protocol.error ~tenant ~id "no spans recorded for this job"))
  | Protocol.Bundle { tenant; id } -> (
      match Telemetry.bundle_of t.telemetry ~tenant ~id with
      | Some doc -> Outbox.send_json out (Protocol.bundle_frame ~tenant ~id doc)
      | None ->
          Outbox.send_json out
            (Protocol.error ~tenant ~id "no flight bundle for this job"))
  | Protocol.Ping -> Outbox.send_json out Protocol.pong
  | Protocol.Shutdown ->
      Outbox.send_json out (Protocol.bye ~draining:(Pool.pending t.pool));
      request_stop t

(* Read request lines until EOF or shutdown. Unknown or malformed
   requests produce an error frame and the connection stays open —
   one bad line must not kill a session streaming other jobs. *)
let connection_loop t ~conn_id fd =
  Telemetry.note_connection t.telemetry;
  let out = Outbox.create ~max:t.cfg.max_outbox fd in
  let ic = Unix.in_channel_of_descr fd in
  let peer_eof = ref false in
  (try
     let rec loop () =
       match In_channel.input_line ic with
       | None -> peer_eof := true
       | Some line ->
           let line = String.trim line in
           if line <> "" then begin
             match
               Protocol.request_of_line
                 ~max_program_bytes:t.cfg.max_program_bytes line
             with
             | Error frame -> Outbox.send_json out frame
             | Ok req -> handle_request t out req
           end;
           if not (stopping t) then loop ()
     in
     loop ()
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> peer_eof := true);
  if !peer_eof && not (stopping t) then begin
    (* The peer vanished mid-stream: its queued jobs keep running (the
       pool owes no refunds and the metrics still count), but their
       frames now go nowhere — kill the outbox so workers never block
       publishing to a dead connection. *)
    Outbox.kill out;
    Outbox.close out
  end
  else begin
    (* orderly shutdown: let the drain finish so every accepted job's
       result frame is flushed to this client before the close *)
    Pool.wait_drained t.pool;
    Outbox.close out
  end;
  Mutex.lock t.conns_mu;
  t.conn_fds <- List.remove_assoc conn_id t.conn_fds;
  Mutex.unlock t.conns_mu;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* A peer that vanishes mid-write must surface as [EPIPE] (the outbox
   flips to discard mode), not as a process-killing SIGPIPE. *)
let ignore_sigpipe () =
  if Sys.os_type = "Unix" then
    try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> ()

let create cfg =
  ignore_sigpipe ();
  {
    cfg;
    pool = Pool.create ~workers:cfg.workers ~max_pending:cfg.max_pending ();
    telemetry =
      Telemetry.create ~started:(Unix.gettimeofday ()) ();
    listen_fd = listen_on cfg.address;
    stop = false;
    stop_mu = Mutex.create ();
    conns = [];
    conn_fds = [];
    conn_ids = 0;
    conns_mu = Mutex.create ();
  }

(* Run the accept loop until a shutdown request. Drains the pool,
   unblocks and joins every connection thread before returning. *)
let serve t =
  (try
     while not (stopping t) do
       let fd, _peer = Unix.accept t.listen_fd in
       Mutex.lock t.conns_mu;
       let conn_id = t.conn_ids in
       t.conn_ids <- conn_id + 1;
       t.conn_fds <- (conn_id, fd) :: t.conn_fds;
       let th = Thread.create (fun () -> connection_loop t ~conn_id fd) () in
       t.conns <- th :: t.conns;
       Mutex.unlock t.conns_mu
     done
   with Unix.Unix_error _ | Sys_error _ -> ());
  (* drain: every accepted job completes before we return *)
  Pool.shutdown t.pool;
  (* idle connections are still blocked reading; force them to EOF *)
  Mutex.lock t.conns_mu;
  let fds = List.map snd t.conn_fds in
  let conns = t.conns in
  t.conns <- [];
  Mutex.unlock t.conns_mu;
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
      with Unix.Unix_error _ -> ())
    fds;
  List.iter Thread.join conns;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  match t.cfg.address with
  | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

let start cfg =
  let t = create cfg in
  (t, Thread.create (fun () -> serve t) ())
