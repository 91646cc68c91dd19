(* Tests for ConSeq-style profile-based pruning (§3.4): the profile counts
   executions correctly, exclusion shrinks the hardened footprint — and
   the technique's real trade-off shows: a hidden bug at a well-tested
   site loses its recovery. *)

open Test_util
module Spec = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry
module Plan = Conair.Analysis.Plan
module Machine = Conair.Runtime.Machine
module Outcome = Conair.Runtime.Outcome

let config = { Machine.default_config with fuel = 2_000_000 }

let profile_counts_executions () =
  (* A clean ZSNES run executes its render-loop sites several times. *)
  let s = Option.get (Registry.find "ZSNES") in
  let inst = s.make ~variant:Spec.Clean ~oracle:false in
  let profiles = Conair.profile_sites ~config ~runs:2 inst.program in
  Alcotest.(check bool) "profiles cover all sites" true
    (List.length profiles > 0);
  (* the assert inside the 4-frame loop executed 4 times per run *)
  let loop_assert =
    List.find
      (fun (p : Conair.site_profile) ->
        p.site.msg = "video depth configured")
      profiles
  in
  Alcotest.(check int) "loop assert executed 4x per run" 8
    loop_assert.executions;
  (* sites in never-executed library functions have zero counts *)
  Alcotest.(check bool) "some sites never executed" true
    (List.exists (fun (p : Conair.site_profile) -> p.executions = 0) profiles)

let exclusion_shrinks_footprint () =
  let s = Option.get (Registry.find "ZSNES") in
  let inst = s.make ~variant:Spec.Clean ~oracle:false in
  let profiles = Conair.profile_sites ~config ~runs:2 inst.program in
  let excluded = Conair.well_tested ~threshold:1 profiles in
  Alcotest.(check bool) "something is well-tested" true (excluded <> []);
  let h0 = Conair.harden_exn inst.program Conair.Survival in
  let h1 =
    Conair.harden_exn
      ~analysis:{ Plan.default_options with exclude_iids = excluded }
      inst.program Conair.Survival
  in
  Alcotest.(check bool) "fewer sites" true
    (List.length h1.plan.site_plans < List.length h0.plan.site_plans);
  Alcotest.(check bool) "no more checkpoints than before" true
    (h1.report.static_points <= h0.report.static_points)

let tradeoff_well_tested_bug_loses_recovery () =
  (* The ZSNES bug site *is* well tested on clean runs: excluding
     well-tested sites removes exactly the recovery the hidden bug needs —
     the documented danger of aggressive profile pruning. *)
  let s = Option.get (Registry.find "ZSNES") in
  let clean = s.make ~variant:Spec.Clean ~oracle:false in
  let profiles = Conair.profile_sites ~config ~runs:2 clean.program in
  let excluded = Conair.well_tested ~threshold:1 profiles in
  (* iids are stable across clean/buggy variants only for the prefix
     before any variant-dependent sleep, so re-derive the exclusion from
     the buggy program's own clean-run profile shape: use message
     matching. *)
  let buggy = s.make ~variant:Spec.Buggy ~oracle:false in
  let buggy_sites = Conair.Analysis.Find_sites.survival buggy.program in
  let excluded_msgs =
    List.filter_map
      (fun (p : Conair.site_profile) ->
        if List.mem p.site.iid excluded then Some p.site.msg else None)
      profiles
  in
  let excluded_buggy =
    List.filter_map
      (fun (st : Conair.Analysis.Site.t) ->
        if List.mem st.msg excluded_msgs then Some st.iid else None)
      buggy_sites
  in
  let h =
    Conair.harden_exn
      ~analysis:{ Plan.default_options with exclude_iids = excluded_buggy }
      buggy.program Conair.Survival
  in
  let r = Conair.execute_hardened ~config h in
  Alcotest.(check bool) "the hidden bug is no longer recovered" false
    (Outcome.is_success r.outcome)

let profiling_off_by_default () =
  let s = Option.get (Registry.find "ZSNES") in
  let inst = s.make ~variant:Spec.Clean ~oracle:false in
  let r = Conair.execute ~config inst.program in
  Alcotest.(check bool) "no observer attached" true
    (Option.is_none (machine_state r).Machine.obs)

let suites =
  [
    ( "profile-prune",
      [
        case "profile counts executions" profile_counts_executions;
        case "exclusion shrinks the footprint" exclusion_shrinks_footprint;
        case "trade-off: well-tested bug loses recovery"
          tradeoff_well_tested_bug_loses_recovery;
        case "profiling is off by default" profiling_off_by_default;
      ] );
  ]
