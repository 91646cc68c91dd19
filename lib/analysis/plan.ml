(* The complete ConAir analysis pipeline: sites -> regions -> local
   recoverability -> inter-procedural recovery -> per-site recovery plans.

   The ordering follows §4.3 "Other issues": intra-procedural analysis runs
   first; sites selected for inter-procedural recovery replace their
   intra-procedural points; the §4.2 optimization applies only to sites
   that stay intra-procedural. *)

open Conair_ir
module Fname = Ident.Fname

type mode = Survival | Fix of int list  (** fix mode carries the site iids *)

type options = {
  optimize : bool;  (** apply the §4.2 unrecoverable-site pruning *)
  interproc : bool;  (** attempt §4.3 inter-procedural recovery *)
  max_depth : int;  (** caller-chain depth budget (paper default: 3) *)
  prune_safe : bool;
      (** drop sites statically proven unable to fail (§3.4 extension;
          off by default, like the paper's prototype) *)
  exclude_iids : int list;
      (** sites at these instructions are skipped — the hook for
          profile-based (ConSeq-style) pruning, §3.4 *)
}

let default_options =
  {
    optimize = true;
    interproc = true;
    max_depth = 3;
    prune_safe = false;
    exclude_iids = [];
  }

type site_plan = {
  site : Site.t;
  region : Region.t;
  verdict : Optimize.verdict;  (** after optimization and interproc *)
  local_verdict : Optimize.verdict;  (** before interproc rescue *)
  interprocedural : bool;  (** recovery points live in caller(s) *)
  points : Region.point list;  (** final reexecution points, this site *)
}

type t = {
  program : Program.t;
  mode : mode;
  options : options;
  site_plans : site_plan list;
  all_points : Region.point list;
      (** union of points of recoverable + undetectable-but-hardened sites,
          deduplicated — each becomes one checkpoint *)
}

(* Points that survive: the paper keeps reexecution points only for sites
   that still carry recovery code. Undetectable wrong-output sites keep
   their points too — the paper's survival mode hardens every output
   function to measure worst-case overhead (§5). *)
let live_points site_plans =
  List.fold_left
    (fun acc sp ->
      let keep =
        sp.verdict = Optimize.Recoverable
        || ((not sp.site.detectable) && sp.verdict = Optimize.Recoverable)
      in
      if keep then
        List.fold_left
          (fun acc p ->
            if List.exists (Region.point_equal p) acc then acc else p :: acc)
          acc sp.points
      else acc)
    [] site_plans
  |> List.rev

(** Run the full analysis. *)
let analyze ?(options = default_options) (p : Program.t) (mode : mode) :
    (t, string) result =
  let sites =
    match mode with
    | Survival -> Ok (Find_sites.survival p)
    | Fix iids -> Find_sites.fix p ~iids
  in
  match sites with
  | Error e -> Error e
  | Ok sites ->
      let sites =
        if options.prune_safe then fst (Prune.filter_sites p sites) else sites
      in
      let sites =
        match options.exclude_iids with
        | [] -> sites
        | iids ->
            List.filter
              (fun (s : Site.t) -> not (List.mem s.iid iids))
              sites
      in
      let cfg_cache : (string, Cfg.t) Hashtbl.t = Hashtbl.create 16 in
      let cfg_of fname =
        let key = Fname.name fname in
        match Hashtbl.find_opt cfg_cache key with
        | Some c -> c
        | None ->
            let c = Cfg.of_func (Program.func_exn p fname) in
            Hashtbl.add cfg_cache key c;
            c
      in
      let graph = Callgraph.of_program p in
      let site_plans =
        List.map
          (fun (site : Site.t) ->
            let cfg = cfg_of site.func in
            let region = Region.of_site cfg site in
            let local_verdict =
              if options.optimize then Optimize.judge cfg region
              else Optimize.Recoverable
            in
            let ip =
              if options.interproc && options.optimize then
                Interproc.analyze ~cfg_of ~graph ~max_depth:options.max_depth
                  region local_verdict
              else Interproc.not_selected
            in
            if ip.selected && ip.success then
              {
                site;
                region;
                verdict = Optimize.Recoverable;
                local_verdict;
                interprocedural = true;
                points = ip.points;
              }
            else
              {
                site;
                region;
                verdict = local_verdict;
                local_verdict;
                interprocedural = false;
                points = region.points;
              })
          sites
      in
      Ok
        {
          program = p;
          mode;
          options;
          site_plans;
          all_points = live_points site_plans;
        }

(** Static reexecution-point count (the "Static" columns of Table 5). *)
let static_points t = List.length t.all_points

let pp_site_plan ppf sp =
  Format.fprintf ppf "@[<v 2>%a: %a%s%s@ points: %a@]" Site.pp sp.site
    Optimize.pp_verdict sp.verdict
    (if sp.interprocedural then " (inter-procedural)" else "")
    (if sp.region.reaches_entry_clean then " [clean-to-entry]" else "")
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Region.pp_point)
    sp.points
