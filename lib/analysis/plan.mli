(** The complete static pipeline: sites → regions → local recoverability →
    inter-procedural recovery → per-site recovery plans, ordered as §4.3
    prescribes (intra first; inter-procedural sites replace their points;
    the optimization applies only to sites that stay intra-procedural). *)

open Conair_ir

type mode = Survival | Fix of int list  (** fix mode carries the site iids *)

type options = {
  optimize : bool;  (** the §4.2 unrecoverable-site pruning *)
  interproc : bool;  (** §4.3 inter-procedural recovery *)
  max_depth : int;  (** caller-chain depth budget (paper default 3) *)
  prune_safe : bool;
      (** drop sites statically proven unable to fail (§3.4 extension;
          off by default, like the paper's prototype) *)
  exclude_iids : int list;
      (** sites at these instructions are skipped — the hook for
          profile-based (ConSeq-style) pruning, §3.4 *)
}

val default_options : options

type site_plan = {
  site : Site.t;
  region : Region.t;
  verdict : Optimize.verdict;  (** final, after inter-procedural rescue *)
  local_verdict : Optimize.verdict;  (** before it *)
  interprocedural : bool;
  points : Region.point list;  (** final reexecution points *)
}

type t = {
  program : Program.t;
  mode : mode;
  options : options;
  site_plans : site_plan list;
  all_points : Region.point list;
      (** deduplicated union over recoverable sites — each becomes one
          checkpoint *)
}

val analyze : ?options:options -> Program.t -> mode -> (t, string) result

val static_points : t -> int
(** The "Static" reexecution-point count of Table 5. *)

val pp_site_plan : Format.formatter -> site_plan -> unit
