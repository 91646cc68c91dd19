(* A minimal blocking client for the daemon's line protocol, used by
   the stress driver and the test suite. One [t] per connection; safe
   to share across threads only if sends and receives are externally
   coordinated (the stress driver uses one connection per tenant
   thread). *)

module Json = Conair_obs.Json

type t = { fd : Unix.file_descr; ic : in_channel; mutable closed : bool }

let rec connect_retry addr deadline =
  let fd =
    Unix.socket
      (match addr with
      | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
      | Unix.ADDR_INET _ -> Unix.PF_INET)
      Unix.SOCK_STREAM 0
  in
  match Unix.connect fd addr with
  | () -> fd
  | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _)
    when Unix.gettimeofday () < deadline ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Thread.delay 0.02;
      connect_retry addr deadline

(* Connect to the daemon, retrying (daemon may still be binding) until
   [timeout] seconds have passed. *)
let connect ?(timeout = 10.) (address : Server.address) =
  (* A daemon that exits mid-request must surface as EPIPE, not kill
     the client process. *)
  (if Sys.os_type = "Unix" then
     try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
     with Invalid_argument _ | Sys_error _ -> ());
  let addr =
    match address with
    | Server.Unix_path p -> Unix.ADDR_UNIX p
    | Server.Tcp (host, port) ->
        Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
  in
  let fd = connect_retry addr (Unix.gettimeofday () +. timeout) in
  { fd; ic = Unix.in_channel_of_descr fd; closed = false }

let send t (req : Protocol.request) =
  let line = Protocol.request_to_line req ^ "\n" in
  let b = Bytes.of_string line in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write t.fd b off (n - off))
  in
  go 0

(* Next response frame, decoded. [None] on EOF. *)
let recv t =
  match In_channel.input_line t.ic with
  | None -> None
  | Some line -> (
      match Json.of_string line with
      | Ok j -> Some j
      | Error e -> Some (Protocol.error (Printf.sprintf "unparsable frame: %s" e)))

let frame_type j =
  match Json.member "type" j with Some (Json.String s) -> s | _ -> ""

(* Read frames until one satisfies [pred]; frames that do not match are
   passed to [other]. [None] on EOF first. *)
let recv_until ?(other = fun (_ : Json.t) -> ()) t pred =
  let rec go () =
    match recv t with
    | None -> None
    | Some j -> if pred j then Some j else (other j; go ())
  in
  go ()

let set_receive_timeout t seconds =
  Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO seconds

let error_message j =
  match Json.member "message" j with
  | Some (Json.String m) -> m
  | _ -> "job error"

(* Submit a job and collect its full frame sequence: the ack, every
   telemetry line, and the result — or the error frame of a job the
   daemon rejected or failed. Frames for other (tenant, id) pairs —
   there are none when the connection is used by a single tenant
   thread — are passed to [other]. *)
let submit ?(other = fun (_ : Json.t) -> ()) t ~tenant ~id job =
  send t (Protocol.Submit { tenant; id; job });
  let mine j =
    (match Json.member "tenant" j with
    | Some (Json.String t') -> t' = tenant
    | _ -> false)
    && match Json.member "id" j with
       | Some (Json.String i) -> i = id
       | _ -> false
  in
  match
    recv_until ~other t (fun j ->
        mine j && (frame_type j = "ack" || frame_type j = "error"))
  with
  | None -> Error "eof before ack"
  | Some j when frame_type j = "error" -> Error (error_message j)
  | Some _ack ->
      let telemetry = ref [] in
      let rec go () =
        match recv t with
        | None -> Error "eof before result"
        | Some j ->
            if mine j && frame_type j = "telemetry" then begin
              (match Json.member "line" j with
              | Some l -> telemetry := l :: !telemetry
              | None -> ());
              go ()
            end
            else if mine j && frame_type j = "result" then
              Ok (j, List.rev !telemetry)
            else if mine j && frame_type j = "error" then
              Error (error_message j)
            else begin
              other j;
              go ()
            end
      in
      go ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
