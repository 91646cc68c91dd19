(* The paper-style overhead harness: paired unhardened/hardened runs with
   the cost profiler attached, reproducing the EXPERIMENTS.md Table 3
   numbers (recovery verdicts, fix/survival overhead %) and extending them
   with what only the profiler can see — per-site retry counts, max/mean
   recovery cost in steps, and wasted-step attribution.

   The module is parameterized over [case] values instead of reading the
   bugbench registry directly: the obs library sits *below* the bugbench
   library in the dependency order (bugbench depends on the core facade,
   which re-exports obs), so the CLI builds the case list from the
   registry and hands it down. The four instances per case mirror exactly
   what [bench/main.ml]'s table3 runs:

   - [buggy_fix]: buggy variant, output oracle always on — fix mode needs
     the observed failure's assert;
   - [buggy_survival]: buggy variant, oracle only when the paper needed a
     developer oracle ([needs_oracle]);
   - [clean_fix] / [clean_survival]: the clean variants paired the same
     way, for the overhead measurements.

   Overhead is the paper's §5 measure transplanted to virtual time:
   (hardened instrs - base instrs) / base instrs on the *clean* runs,
   where checkpoint executions are the hardening's only dynamic cost. *)

open Conair_ir
open Conair_runtime
module Plan = Conair_analysis.Plan
module Harden = Conair_transform.Harden

type inst = {
  program : Program.t;
  fix_iids : int list;  (** instruction ids of the observed failure *)
  accept : string list -> bool;  (** output oracle *)
}

type case = {
  name : string;
  needs_oracle : bool;
  buggy_fix : inst;
  buggy_survival : inst;
  clean_fix : inst;
  clean_survival : inst;
}

(** Per failure site, from the deterministic survival-mode buggy run:
    episodes/retries from the episode list, wasted steps from the
    profiler. *)
type site_retry = {
  sr_site : int;
  sr_episodes : int;
  sr_retries : int;
  sr_wasted : int;
}

type row = {
  o_name : string;
  o_needs_oracle : bool;
  o_fix_recovered : bool;
  o_fix_ok : int;  (** successful runs, out of [o_runs] *)
  o_surv_recovered : bool;
  o_surv_ok : int;
  o_runs : int;  (** deterministic run + seeded random runs *)
  o_fix_overhead_pct : float;
  o_surv_overhead_pct : float;
  o_rollbacks : int;
  o_retries : int;
  o_max_recovery_steps : int;
  o_mean_recovery_steps : float;
  o_useful_steps : int;
  o_checkpoint_steps : int;
  o_wasted_steps : int;
  o_sites : site_retry list;
  o_detected_by : string list;
      (** which detector lenses flagged the buggy program ("hb",
          "lockset", "deadlock"); empty when no detector was supplied *)
}

type summary = {
  s_cases : int;
  s_fix_recovered : int;
  s_surv_recovered : int;
  s_max_fix_overhead_pct : float;
  s_max_surv_overhead_pct : float;
}

let harden_exn name mode (i : inst) : Harden.t =
  match Plan.analyze i.program mode with
  | Error e -> failwith (Printf.sprintf "overhead: %s: analysis failed: %s" name e)
  | Ok plan -> Harden.apply plan

let run_hardened ~config (h : Harden.t) =
  let meta = Machine.meta_of_harden h in
  Engine.run_program ~config ~meta Engine.default h.Harden.program

(* The bench's recovery verdict: the deterministic failure-inducing
   schedule, plus [random_runs] seeded random schedules. *)
let verdict ~config ~random_runs (i : inst) (h : Harden.t) =
  let ok (m, outcome) =
    Outcome.is_success outcome && i.accept (Engine.outputs m)
  in
  let det_ok = ok (run_hardened ~config h) in
  let rand_ok = ref 0 in
  for k = 1 to random_runs do
    if ok (run_hardened ~config:{ config with policy = Sched.Random (2 + k) } h)
    then incr rand_ok
  done;
  let total_ok = (if det_ok then 1 else 0) + !rand_ok in
  (det_ok && !rand_ok = random_runs, total_ok)

let pct part whole =
  if whole = 0 then 0. else 100. *. float_of_int part /. float_of_int whole

let overhead_pct ~config (base : inst) (h : Harden.t) =
  let bm, _ = Engine.run_program ~config Engine.default base.program in
  let hm, _ = run_hardened ~config h in
  let bi = (Engine.stats bm).Stats.instrs
  and hi = (Engine.stats hm).Stats.instrs in
  pct (hi - bi) bi

let site_retries (stats : Stats.t) (prof : Prof.t) : site_retry list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : Stats.episode) ->
      let eps, rts =
        Option.value ~default:(0, 0) (Hashtbl.find_opt tbl e.Stats.ep_site_id)
      in
      Hashtbl.replace tbl e.Stats.ep_site_id (eps + 1, rts + e.Stats.ep_retries))
    (Stats.episodes_chronological stats);
  (* a site can waste steps without completing an episode (fail-stop);
     union with the profiler's site table *)
  List.iter
    (fun (sc : Prof.site_cost) ->
      if not (Hashtbl.mem tbl sc.Prof.sc_site) then
        Hashtbl.replace tbl sc.Prof.sc_site (0, 0))
    (Prof.site_costs prof);
  let wasted_of site =
    match
      List.find_opt
        (fun (sc : Prof.site_cost) -> sc.Prof.sc_site = site)
        (Prof.site_costs prof)
    with
    | Some sc -> sc.Prof.sc_wasted
    | None -> 0
  in
  Hashtbl.fold
    (fun site (eps, rts) acc ->
      { sr_site = site; sr_episodes = eps; sr_retries = rts;
        sr_wasted = wasted_of site }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.sr_site b.sr_site)

(** Measure one case: recovery verdicts in both modes, overhead in both
    modes, and a profiled deterministic survival-mode buggy run for the
    recovery-cost columns. [random_runs] extra seeded schedules per
    verdict (default 5, the bench's "6/6"). [detect] names the detector
    lenses that flag the case's buggy program — a callback because the
    detector library sits above this one in the dependency order, so the
    CLI closes over it and hands it down (same pattern as [case]
    itself). *)
let measure ?(config = Machine.default_config) ?(random_runs = 5) ?detect
    (c : case) : row =
  let h_fix = harden_exn c.name (Plan.Fix c.buggy_fix.fix_iids) c.buggy_fix in
  let h_surv = harden_exn c.name Plan.Survival c.buggy_survival in
  let fix_recovered, fix_ok = verdict ~config ~random_runs c.buggy_fix h_fix in
  let surv_recovered, surv_ok =
    verdict ~config ~random_runs c.buggy_survival h_surv
  in
  let fix_ovh =
    overhead_pct ~config c.clean_fix
      (harden_exn c.name (Plan.Fix c.clean_fix.fix_iids) c.clean_fix)
  in
  let surv_ovh =
    overhead_pct ~config c.clean_survival
      (harden_exn c.name Plan.Survival c.clean_survival)
  in
  (* the profiled run: deterministic buggy schedule, survival hardening *)
  let prof = Prof.create () in
  let meta = Machine.meta_of_harden h_surv in
  let m, _ =
    Engine.run_program ~config ~meta ~observer:(Prof.probe prof)
      Engine.default h_surv.Harden.program
  in
  Prof.finalize prof;
  let stats = Engine.stats m in
  {
    o_name = c.name;
    o_needs_oracle = c.needs_oracle;
    o_fix_recovered = fix_recovered;
    o_fix_ok = fix_ok;
    o_surv_recovered = surv_recovered;
    o_surv_ok = surv_ok;
    o_runs = 1 + random_runs;
    o_fix_overhead_pct = fix_ovh;
    o_surv_overhead_pct = surv_ovh;
    o_rollbacks = stats.Stats.rollbacks;
    o_retries = Stats.total_retries stats;
    o_max_recovery_steps = Stats.max_recovery_time stats;
    o_mean_recovery_steps = Stats.mean_recovery_time stats;
    o_useful_steps = Prof.useful_steps prof;
    o_checkpoint_steps = Prof.checkpoint_steps prof;
    o_wasted_steps = Prof.wasted_steps prof;
    o_sites = site_retries stats prof;
    o_detected_by = (match detect with None -> [] | Some f -> f c);
  }

let measure_all ?config ?random_runs ?detect cases =
  List.map (measure ?config ?random_runs ?detect) cases

let summary rows =
  {
    s_cases = List.length rows;
    s_fix_recovered =
      List.length (List.filter (fun r -> r.o_fix_recovered) rows);
    s_surv_recovered =
      List.length (List.filter (fun r -> r.o_surv_recovered) rows);
    s_max_fix_overhead_pct =
      List.fold_left (fun m r -> Float.max m r.o_fix_overhead_pct) 0. rows;
    s_max_surv_overhead_pct =
      List.fold_left (fun m r -> Float.max m r.o_surv_overhead_pct) 0. rows;
  }

(* --- export ---------------------------------------------------------- *)

let row_json (r : row) : Json.t =
  Json.Obj
    [
      ("app", Json.String r.o_name);
      ("needs_oracle", Json.Bool r.o_needs_oracle);
      ( "fix",
        Json.Obj
          [
            ("recovered", Json.Bool r.o_fix_recovered);
            ("ok_runs", Json.Int r.o_fix_ok);
            ("runs", Json.Int r.o_runs);
            ("overhead_pct", Json.Float r.o_fix_overhead_pct);
          ] );
      ( "survival",
        Json.Obj
          [
            ("recovered", Json.Bool r.o_surv_recovered);
            ("ok_runs", Json.Int r.o_surv_ok);
            ("runs", Json.Int r.o_runs);
            ("overhead_pct", Json.Float r.o_surv_overhead_pct);
          ] );
      ( "recovery",
        Json.Obj
          [
            ("rollbacks", Json.Int r.o_rollbacks);
            ("retries", Json.Int r.o_retries);
            ("max_steps", Json.Int r.o_max_recovery_steps);
            ("mean_steps", Json.Float r.o_mean_recovery_steps);
            ("useful_steps", Json.Int r.o_useful_steps);
            ("checkpoint_steps", Json.Int r.o_checkpoint_steps);
            ("wasted_steps", Json.Int r.o_wasted_steps);
            ( "sites",
              Json.List
                (List.map
                   (fun s ->
                     Json.Obj
                       [
                         ("site", Json.Int s.sr_site);
                         ("episodes", Json.Int s.sr_episodes);
                         ("retries", Json.Int s.sr_retries);
                         ("wasted_steps", Json.Int s.sr_wasted);
                       ])
                   r.o_sites) );
          ] );
      ( "detected_by",
        Json.List (List.map (fun s -> Json.String s) r.o_detected_by) );
    ]

let to_json rows : Json.t =
  let s = summary rows in
  Json.Obj
    [
      ("type", Json.String "overhead");
      ("cases", Json.List (List.map row_json rows));
      ( "summary",
        Json.Obj
          [
            ("cases", Json.Int s.s_cases);
            ("fix_recovered", Json.Int s.s_fix_recovered);
            ("survival_recovered", Json.Int s.s_surv_recovered);
            ("max_fix_overhead_pct", Json.Float s.s_max_fix_overhead_pct);
            ("max_survival_overhead_pct", Json.Float s.s_max_surv_overhead_pct);
          ] );
    ]

(* Text rows in the shape of EXPERIMENTS.md Table 3, one line per case
   (yes* = recovered given a developer output oracle). *)
let table_rows rows : string list =
  let verdict_cell recovered ok runs needs_oracle =
    if recovered then
      Printf.sprintf "%s (%d/%d)" (if needs_oracle then "yes*" else "yes") ok runs
    else Printf.sprintf "NO (%d/%d)" ok runs
  in
  Printf.sprintf "%-13s %-12s %-16s %9s %9s %8s %8s %10s %11s  %s" "App."
    "fix recov." "survival recov." "fix ovh." "surv ovh." "retries"
    "rollbacks" "max rec." "wasted" "detected by"
  :: List.map
       (fun r ->
         Printf.sprintf
           "%-13s %-12s %-16s %8.1f%% %8.1f%% %8d %8d %10d %11d  %s" r.o_name
           (verdict_cell r.o_fix_recovered r.o_fix_ok r.o_runs r.o_needs_oracle)
           (verdict_cell r.o_surv_recovered r.o_surv_ok r.o_runs
              r.o_needs_oracle)
           r.o_fix_overhead_pct r.o_surv_overhead_pct r.o_retries r.o_rollbacks
           r.o_max_recovery_steps r.o_wasted_steps
           (match r.o_detected_by with
           | [] -> "-"
           | l -> String.concat "," l))
       rows

(* --- deterministic run-cost measurement ----------------------------- *)

(* The fix synthesizer ranks surviving candidates by this: the
   deterministic round-robin run plus a small fixed seed sweep, totalled
   in executed instructions and scheduler steps. *)

type cost = {
  k_runs : int;
  k_instrs : int;  (* total executed instructions across the runs *)
  k_steps : int;  (* total scheduler steps across the runs *)
  k_mean_instrs : float;
}

(* Runs already made, by program (physical identity: a hardening is a
   copy of its original) and policy: their instruction and step counts.
   Runs are deterministic and their counts engine-independent, so a
   noted run stands for a fresh one made under the same configuration
   and metadata. *)
type ledger = {
  mutable programs : (Program.t * (Sched.policy, int * int) Hashtbl.t) list;
}

let ledger () = { programs = [] }

let runs_of l p =
  match List.assq_opt p l.programs with
  | Some t -> t
  | None ->
      let t = Hashtbl.create 32 in
      l.programs <- (p, t) :: l.programs;
      t

let note l p policy ~instrs ~steps =
  Hashtbl.replace (runs_of l p) policy (instrs, steps)

let cost_in l ~config ~meta ~seeds (p : Program.t) : cost =
  let runs = runs_of l p in
  let instrs = ref 0 and steps = ref 0 and n = ref 0 in
  let one policy =
    let i, s =
      match Hashtbl.find_opt runs policy with
      | Some c -> c
      | None ->
          let m, _ =
            Engine.run_program ~config:{ config with policy } ?meta
              Engine.default p
          in
          let st = Engine.stats m in
          Hashtbl.replace runs policy (st.Stats.instrs, st.Stats.steps);
          (st.Stats.instrs, st.Stats.steps)
    in
    instrs := !instrs + i;
    steps := !steps + s;
    incr n
  in
  one Sched.Round_robin;
  List.iter (fun s -> one (Sched.Random s)) seeds;
  {
    k_runs = !n;
    k_instrs = !instrs;
    k_steps = !steps;
    k_mean_instrs = float_of_int !instrs /. float_of_int (max 1 !n);
  }

let cost_of ?(config = Machine.default_config) ?meta ?(seeds = [ 1; 2; 3 ])
    p =
  cost_in (ledger ()) ~config ~meta ~seeds p

let cost_overhead_pct ~base (c : cost) =
  if base.k_instrs = 0 then 0.
  else 100. *. (c.k_mean_instrs -. base.k_mean_instrs) /. base.k_mean_instrs

let cost_json (c : cost) : Json.t =
  Json.Obj
    [
      ("runs", Json.Int c.k_runs);
      ("instrs", Json.Int c.k_instrs);
      ("steps", Json.Int c.k_steps);
      ("mean_instrs", Json.Float c.k_mean_instrs);
    ]
