(* The ConAir code transformation (§3.3), driven by an analysis plan:

   - one [Checkpoint] per live reexecution point (shared between the sites
     that agree on the point, as in the paper);
   - a recovery guard at every recoverable, detectable failure site;
   - [Lock]s at recoverable deadlock sites become [Timed_lock]s;
     unrecoverable deadlock candidates stay plain [Lock]s (§4.2).

   The output also carries the metadata the runtime needs (fail-arm labels
   per site) and the static report feeding Tables 4-6. *)

open Conair_ir
open Conair_analysis
module Label = Ident.Label

type options = {
  lock_timeout : int;  (** scheduler steps before a lock acquisition times out *)
}

let default_options = { lock_timeout = 400 }

type t = {
  program : Program.t;  (** the hardened program *)
  plan : Plan.t;
  checkpoints : (Region.point * int) list;  (** point -> checkpoint id *)
  site_fail_blocks : (Label.t * int) list;
  options : options;
}

(** Number of [Checkpoint] instructions inserted — the static
    reexecution-point count of Table 5. *)
let static_reexec_points h = List.length h.checkpoints

(* A Deadlock-kind site is either a lock acquisition or an event wait;
   the site message distinguishes them (set by Site.classify_instr). *)
let guard_of_site (sp : Plan.site_plan) =
  let site = sp.site in
  match site.kind with
  | Instr.Deadlock when site.msg = "event wait timed out" ->
      fun opts ->
        Rewrite.Guard_wait { site_id = site.site_id; timeout = opts.lock_timeout }
  | Instr.Deadlock -> fun opts -> Rewrite.Guard_lock { site_id = site.site_id; timeout = opts.lock_timeout }
  | Instr.Seg_fault -> fun _ -> Rewrite.Guard_deref { site_id = site.site_id }
  | Instr.Assert_fail | Instr.Wrong_output ->
      fun _ ->
        Rewrite.Guard_assert
          { site_id = site.site_id; kind = site.kind; msg = site.msg }

(** Harden [plan.program] according to [plan]. *)
let apply ?(options = default_options) (plan : Plan.t) : t =
  let edits = Rewrite.create () in
  (* 1. Checkpoints at every live reexecution point. *)
  let checkpoints =
    List.mapi (fun id point -> (point, id)) plan.all_points
  in
  List.iter
    (fun (point, id) ->
      match point with
      | Region.After iid -> Rewrite.insert_after edits iid [ Instr.Checkpoint id ]
      | Region.Entry fname -> Rewrite.prepend_entry edits fname [ Instr.Checkpoint id ])
    checkpoints;
  (* 2. Recovery guards at recoverable, detectable sites. Undetectable
     wrong-output sites (outputs without an oracle) are hardened with
     checkpoints only — there is nothing to branch on. *)
  List.iter
    (fun (sp : Plan.site_plan) ->
      if sp.verdict = Optimize.Recoverable && sp.site.detectable then
        Rewrite.set_guard edits sp.site.iid (guard_of_site sp options))
    plan.site_plans;
  let program, site_fail_blocks = Rewrite.apply edits plan.program in
  { program; plan; checkpoints; site_fail_blocks; options }
