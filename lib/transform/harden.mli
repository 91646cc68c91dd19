(** The ConAir code transformation (§3.3): one [Checkpoint] per live
    reexecution point (shared between sites that agree on the point), a
    recovery guard at every recoverable detectable site, and lock →
    timed-lock conversion at recoverable deadlock sites (unrecoverable
    candidates stay plain locks, §4.2). *)

open Conair_ir
open Conair_analysis
module Label = Ident.Label

type options = {
  lock_timeout : int;
      (** scheduler steps before a timed lock acquisition gives up *)
}

val default_options : options

type t = {
  program : Program.t;  (** the hardened program *)
  plan : Plan.t;
  checkpoints : (Region.point * int) list;  (** point → checkpoint id *)
  site_fail_blocks : (Label.t * int) list;
      (** fail-arm label → site id, the runtime's recovery metadata
          ([Machine.meta_of_harden]). Every guard gets a fresh label, so
          no label repeats. *)
  options : options;
}

val static_reexec_points : t -> int
(** Checkpoints inserted — Table 5's "Static" column. *)

val apply : ?options:options -> Plan.t -> t
