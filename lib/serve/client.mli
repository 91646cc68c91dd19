(** A minimal blocking client for the daemon's line protocol, used by
    the stress driver and the test suite. One value per connection;
    coordinate externally before sharing across threads. *)

module Json = Conair_obs.Json

type t

val connect : ?timeout:float -> Server.address -> t
(** Connect, retrying refused/absent sockets (the daemon may still be
    binding) for up to [timeout] seconds (default 10).
    @raise Unix.Unix_error when the deadline passes. *)

val send : t -> Protocol.request -> unit

val set_receive_timeout : t -> float -> unit
(** Bound every later receive to [seconds] (0: no bound, the default);
    a receive that waits longer raises [Sys_error]. *)

val recv : t -> Json.t option
(** Next response frame; [None] on EOF. An unparsable frame decodes as
    an error frame rather than raising. *)

val frame_type : Json.t -> string
(** The frame's ["type"] member, or [""]. *)

val recv_until :
  ?other:(Json.t -> unit) -> t -> (Json.t -> bool) -> Json.t option
(** Read frames until one satisfies the predicate, passing the others
    to [other]; [None] on EOF. *)

val submit :
  ?other:(Json.t -> unit) ->
  t ->
  tenant:string ->
  id:string ->
  Protocol.spec ->
  (Json.t * Json.t list, string) result
(** Submit one job and collect its frames: waits for the ack, gathers
    the telemetry lines, returns [(result_frame, telemetry_lines)].
    [Error] carries the message of the job's error frame: a request
    the daemon rejected, or a job that failed. Frames belonging to other
    jobs go to [other]. *)

val close : t -> unit
