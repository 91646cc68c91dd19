(** The schedule log: one recorded run's complete scheduling-decision
    stream plus enough metadata to re-execute it from the file alone —
    the one definition of a recorded run. A flight bundle ({!Bundle}) is
    the same record over a window of the stream, and shares this
    module's header, trailer, decision chunks and decoder.

    Serialized as JSONL — a ["sched_meta"] header (identification,
    execution config, embedded program text and MD5, fail-block table for
    hardened programs), ["sched_chunk"] lines carrying the chosen-thread
    stream, and a ["sched_end"] trailer with the decision/preemption
    counts and the recorded outcome, outputs and statistics used to
    verify a replay. See [docs/REPLAY.md] for the format. *)

open Conair_ir
open Conair_runtime
module Json = Conair_obs.Json

(** Identification of the recorded run, mirroring the registry
    vocabulary of the bugbench catalog. *)
type ident = {
  id_app : string;
  id_variant : string;
  id_oracle : bool;
  id_mode : string;  (** "none" (unhardened), "survival" or "fix" *)
}

val ident : ?variant:string -> ?oracle:bool -> ?mode:string -> string -> ident
(** Defaults: variant ["buggy"], oracle [false], mode ["none"]. *)

type t = {
  ident : ident;
  engine : string;  (** which engine recorded it: "ref" or "block" *)
  config : Machine.config;
  program_md5 : string;  (** MD5 of the executed program's text *)
  program_text : string option;  (** the executed (hardened) program *)
  fail_blocks : (string * int) list;  (** fail-arm label name -> site id *)
  decisions : int array;  (** chosen tid per scheduling decision *)
  preemptions : int array;
      (** ordinals into [decisions] where the previously-running thread
          was still eligible but another was chosen — the context
          switches the minimizer searches over *)
  steps : int;  (** recorded virtual time (idle ticks included) *)
  instrs : int;
  rollbacks : int;
  outcome : Outcome.t;
  outputs : string list;
}

val version : int

val digest : string -> string
(** MD5 hex of a program text. *)

val digest_program : Program.t -> string

val fail_blocks_of_meta : Machine.meta option -> (string * int) list
(** Serialize recovery metadata as (label name, site id) pairs. *)

val meta_of_fail_blocks : (string * int) list -> Machine.meta option
(** Rebuild [Machine.meta] recovery metadata from serialized (label
    name, site id) pairs; [None] when the list is empty. *)

val machine_meta : t -> Machine.meta option
(** Rebuild the [Machine.meta] recovery metadata recorded in
    [fail_blocks]; [None] for unhardened runs. *)

val program : t -> (Program.t, string) result
(** The embedded program, after checking that its text hashes to
    [program_md5]: the program the log was recorded from when it was
    recorded in this process ({!remember_program}), else the text parsed
    and validated ([Validate.check]) — an ill-formed program is an
    [Error] naming its first problem. A parsed program is remembered
    too, so every log of one text returns one program, linked and
    compiled once, while a log of that text lives. *)

val remember_program : t -> Program.t -> unit
(** [remember_program log p]: [p] is the program [log] records (its
    text hashes to [program_md5]), for {!program} to return. A program
    already known for that MD5 is kept. *)

(** {1 Encoding} *)

val to_lines : t -> string list
(** The JSONL serialization, one element per line (no newlines). *)

val save : t -> string -> unit

val header_members :
  ty:string -> reason:string option -> t -> (string * Json.t) list
(** The header object's members under record type [ty]: identification,
    engine, [reason] (a bundle's dump reason; [None] for a log), config,
    program MD5 and text, fail blocks. *)

val trailer_members : t -> (string * Json.t) list
(** The run trailer: steps, instrs, rollbacks, outcome, outputs. *)

val chunks : int array -> Json.t list
(** Decisions as [{"type":"sched_chunk","d":[tid,...]}] records of at
    most 4096, in order; empty input yields no chunks. *)

val of_chunks : Json.t list -> (int array, string) result

(** {1 Decoding} *)

(** The decode-helper family of both artifacts: [get d name j] decodes
    member [name] of object [j] with [d], failing with ["missing"] or
    ["malformed %S field"]. *)
module Decode : sig
  type 'a decoder = Json.t -> 'a option

  val str : string decoder
  val nonempty : string decoder
  val int : int decoder

  val nat : int decoder
  (** A non-negative integer. *)

  val list : 'a decoder -> 'a list decoder
  val member : string -> Json.t -> (Json.t, string) result
  val get : 'a decoder -> string -> Json.t -> ('a, string) result
end

val decode :
  header:Json.t ->
  trailer:Json.t ->
  first:int ->
  decisions:int array ->
  preemptions:int array ->
  (t, string) result
(** The shared decoder: header and trailer objects plus the window of
    [decisions] starting at absolute ordinal [first] ([0] for a full
    log) and its absolute preemption ordinals. Enforces the recorded
    run's invariants: a known version and engine, non-empty
    identification, positive fuel, an MD5 digest the embedded text
    hashes to, a fail-block table with no repeated label, non-negative
    counts, [first >= 0] and preemption ordinals strictly ascending
    inside the window. Errors carry no artifact prefix. *)

val of_lines : string list -> (t, string) result
val load : string -> (t, string) result
