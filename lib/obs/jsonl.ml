(* Streaming JSONL serialization of the observation stream.

   The encoding here is the *contract* of the event-log file format (see
   docs/OBSERVABILITY.md): stable field names, step/tid always present,
   event-specific payload fields after them. Every engine emits
   identical [Event.t] values on identical runs, so identical logs — the
   differential test compares the serialized bytes. *)

open Conair_runtime
module Instr = Conair_ir.Instr

type run_meta = { app : string; variant : string; seed : int option }

let run_meta ?(variant = "") ?seed app = { app; variant; seed }

let failure_kind_name (k : Instr.failure_kind) =
  Format.asprintf "%a" Instr.pp_failure_kind k

let policy_json : Sched.policy -> Json.t = function
  | Sched.Round_robin -> Json.String "round-robin"
  | Sched.Random seed ->
      Json.Obj [ ("random", Json.Int seed) ]

let config_json (c : Machine.config) : Json.t =
  Json.Obj
    [
      ("policy", policy_json c.policy);
      ("fuel", Json.Int c.fuel);
      ("max_retries", Json.Int c.max_retries);
      ( "deadlock_detection",
        Json.String
          (match c.deadlock_detection with
          | Machine.Timeout_based -> "timeout"
          | Machine.Wait_graph -> "wait-graph") );
      ("deadlock_backoff", Json.Int c.deadlock_backoff);
      ("verify_rollbacks", Json.Bool c.verify_rollbacks);
      ("perturb_timing", Json.Bool c.perturb_timing);
      ("spawn_jitter", Json.Int c.spawn_jitter);
    ]

let policy_of_json : Json.t -> (Sched.policy, string) result = function
  | Json.String "round-robin" -> Ok Sched.Round_robin
  | Json.Obj _ as j -> (
      match Json.member "random" j with
      | Some (Json.Int seed) -> Ok (Sched.Random seed)
      | _ -> Error "config: malformed policy object")
  | _ -> Error "config: malformed policy"

(* Decode a [config_json] object. Fields absent from the object (logs
   written before a knob existed) keep their [Machine.default_config]
   value; present fields must be well-typed. Members of retired knobs
   (["profile_sites"]) are ignored. *)
let config_of_json (j : Json.t) : (Machine.config, string) result =
  let ( let* ) = Result.bind in
  let field name decode default =
    match Json.member name j with
    | None -> Ok default
    | Some v -> (
        match decode v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "config: malformed %S field" name))
  in
  let int = function Json.Int n -> Some n | _ -> None in
  let bool = function Json.Bool b -> Some b | _ -> None in
  match j with
  | Json.Obj _ ->
      let d = Machine.default_config in
      let* policy =
        match Json.member "policy" j with
        | None -> Ok d.policy
        | Some p -> policy_of_json p
      in
      let* fuel = field "fuel" int d.fuel in
      let* max_retries = field "max_retries" int d.max_retries in
      let* deadlock_detection =
        field "deadlock_detection"
          (function
            | Json.String "timeout" -> Some Machine.Timeout_based
            | Json.String "wait-graph" -> Some Machine.Wait_graph
            | _ -> None)
          d.deadlock_detection
      in
      let* deadlock_backoff = field "deadlock_backoff" int d.deadlock_backoff in
      let* verify_rollbacks = field "verify_rollbacks" bool d.verify_rollbacks in
      let* perturb_timing = field "perturb_timing" bool d.perturb_timing in
      let* spawn_jitter = field "spawn_jitter" int d.spawn_jitter in
      Ok
        {
          Machine.policy;
          fuel;
          max_retries;
          deadlock_detection;
          deadlock_backoff;
          verify_rollbacks;
          perturb_timing;
          spawn_jitter;
        }
  | _ -> Error "config: expected an object"

let meta_fields ~engine ~hardened (meta : run_meta) =
  (("app", Json.String meta.app)
  :: (if meta.variant = "" then []
      else [ ("variant", Json.String meta.variant) ]))
  @ (match meta.seed with None -> [] | Some s -> [ ("seed", Json.Int s) ])
  @ [
      ("engine", Json.String (Engine.name engine));
      ("hardened", Json.Bool hardened);
    ]

let meta_json ?config ~engine ~hardened meta : Json.t =
  Json.Obj
    ((("type", Json.String "meta") :: meta_fields ~engine ~hardened meta)
    @
    (* the execution parameters (policy + seed, fuel, retry budget, ...)
       ride in the config subobject, making the log self-describing *)
    match config with
    | None -> []
    | Some c -> [ ("config", config_json c) ])

type writer = { write : Json.t -> unit }

let channel_writer oc =
  {
    write =
      (fun j ->
        output_string oc (Json.to_string j);
        output_char oc '\n');
  }

let buffer_writer buf =
  {
    write =
      (fun j ->
        Buffer.add_string buf (Json.to_string j);
        Buffer.add_char buf '\n');
  }

(* The trace vocabulary of the stream: a sleeper's wake rides its step,
   the compensation's forced release and a hardened site's failure have
   their own names, and the stream's other events have no record. *)
let observer ?meta (w : writer) =
  Option.iter w.write meta;
  let ev name step tid rest =
    w.write
      (Json.Obj
         (("type", Json.String "event")
         :: ("ev", Json.String name)
         :: ("step", Json.Int step)
         :: ("tid", Json.Int tid)
         :: rest))
  in
  Event.observer ~sync:true ~steps:true (fun _ e ->
      match (e : Event.t) with
      | Step { step; tid; woke; _ } ->
          if woke then ev "wake" step tid [];
          ev "schedule" step tid []
      | Request { step; tid; lock; _ } ->
          ev "block" step tid [ ("lock", Json.String lock) ]
      | Wait { step; tid; event } ->
          ev "block" step tid [ ("lock", Json.String ("event:" ^ event)) ]
      | Wake { step; woken; _ } -> ev "wake" step woken []
      | Spawn { step; parent; child } ->
          ev "spawn" step parent [ ("child", Json.Int child) ]
      | Thread_done { step; tid } -> ev "thread_done" step tid []
      | Output { step; tid; text } ->
          ev "output" step tid [ ("text", Json.String text) ]
      | Checkpoint { step; tid; ckpt_id } ->
          ev "checkpoint" step tid [ ("ckpt_id", Json.Int ckpt_id) ]
      | Failure_detected { step; tid; site_id; kind } ->
          ev "failure_detected" step tid
            [
              ("site_id", Json.Int site_id);
              ("kind", Json.String (failure_kind_name kind));
            ]
      | Rollback { step; tid; site_id; retry } ->
          ev "rollback" step tid
            [ ("site_id", Json.Int site_id); ("retry", Json.Int retry) ]
      | Release { step; tid; lock; forced = true } ->
          ev "compensate_lock" step tid [ ("lock", Json.String lock) ]
      | Compensate_block { step; tid; block } ->
          ev "compensate_block" step tid [ ("block", Json.Int block) ]
      | Recovered { step; tid; site_id } ->
          ev "recovered" step tid [ ("site_id", Json.Int site_id) ]
      | Failed { step; tid; site_id; _ } when site_id >= 0 ->
          ev "fail_stop" step tid [ ("site_id", Json.Int site_id) ]
      | Decide _ | Acquire _ | Release _ | Join _ | Failed _ | Idle _
      | Access _ ->
          ())
