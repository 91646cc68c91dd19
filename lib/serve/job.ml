(* Job execution: one function per job kind, each deliberately the
   same code path as the corresponding CLI subcommand so that a served
   report is byte-identical to the CLI's output for the same inputs:

   - run      = [Conair.run] with the report lens  (conair_cli run / report)
   - harden   = [Conair.harden_exn]      (conair_cli harden)
   - detect   = [Conair.run] with the detect lens  (conair_cli races)
   - minimize = [Conair.minimize]        (conair_cli minimize)
   - fuzz     = hardened seed sweep folding fuzz-style run records into
                an [Obs.Aggregate] (conair_cli aggregate over a fuzz log)
   - fix      = [Conair.Fix.Pipeline.run]  (conair_cli fix)

   Exit codes mirror the CLI too (0 ok, 2 failed run, 3 findings), so
   a client can script against the daemon exactly as against the CLI. *)

module Json = Conair_obs.Json
module Jsonl = Conair_obs.Jsonl
module Span = Conair_obs.Span
module Aggregate = Conair_obs.Aggregate
module Outcome = Conair_runtime.Outcome
module Machine = Conair_runtime.Machine
module Engine = Conair_runtime.Engine
module Sched = Conair_runtime.Sched
module Spec = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry

type outcome = {
  jr_status : string;  (** "ok" | "error" *)
  jr_exit : int;  (** the CLI-equivalent exit code *)
  jr_report : Json.t;  (** the job's structured result document *)
  jr_record : Json.t option;
      (** fuzz-style run record for cross-job aggregation *)
  jr_spans : Json.t option;  (** Chrome trace doc (run jobs) *)
  jr_bundle : Json.t option;
      (** flight-recorder diagnostic bundle (failed run jobs) *)
}

let failed ?(exit = 1) msg =
  {
    jr_status = "error";
    jr_exit = exit;
    jr_report =
      Json.Obj
        [ ("type", Json.String "job_error"); ("message", Json.String msg) ];
    jr_record = None;
    jr_spans = None;
    jr_bundle = None;
  }

(* Sequence the resolution steps of a job: the first [Error] is the
   job's failure. *)
let ( let* ) r k = match r with Ok x -> k x | Error e -> failed e

let config_of_exec (e : Protocol.exec) =
  {
    Machine.default_config with
    fuel = e.fuel;
    max_retries = e.max_retries;
    policy =
      (match e.seed with
      | None -> Sched.Round_robin
      | Some s -> Sched.Random s);
  }

(* Resolve a job target to (label, variant name, instance). Inline
   source programs get the trivial instance (no fix sites, accept-all),
   labelled "source" in telemetry. *)
let resolve (target : Protocol.target) =
  match target with
  | Protocol.Bench { app; variant; oracle } ->
      Result.map
        (fun (spec : Spec.t) ->
          let v = if variant = "clean" then Spec.Clean else Spec.Buggy in
          let oracle = oracle || spec.info.needs_oracle in
          (app, variant, spec.make ~variant:v ~oracle))
        (Registry.lookup app)
  | Protocol.Source src -> (
      match Conair.Ir.Parse.program src with
      | Error e ->
          Error (Format.asprintf "bad program: %a" Conair.Ir.Parse.pp_error e)
      | Ok p -> Ok ("source", "buggy", Spec.instance p))

let mode_of ~(inst : Spec.instance) = function
  | "none" -> Ok None
  | "survival" -> Ok (Some Conair.Survival)
  | "fix" ->
      if inst.Spec.fix_site_iids = [] then
        Error "fix mode needs a benchmark with known failing sites"
      else Ok (Some (Conair.Fix inst.Spec.fix_site_iids))
  | m -> Error (Printf.sprintf "unknown mode %S" m)

(* The same per-run record the fuzzer streams — [Aggregate]'s input
   vocabulary — so the daemon's per-tenant aggregates and a fuzz log
   fold identically. *)
let run_record ~case ~seed (r : Conair.run) =
  Aggregate.run_record ~case ~seed r.outcome r.stats

(* --- the job kinds ------------------------------------------------- *)

let exec_run ~telemetry ~target ~mode ~(exec : Protocol.exec) =
  let* app, variant, inst = resolve target in
  let* mode = mode_of ~inst mode in
  let* engine = Engine.of_string exec.engine in
  let config = config_of_exec exec in
  (* identical to the CLI: the same report lens and meta line *)
  let meta_info = Jsonl.run_meta ~variant ?seed:exec.seed app in
  (* The flight recorder rides the same run; only a failed run packages
     its bundle — the post-mortem the CLI dumps under [--flight] — which
     telemetry retains for the [bundle] fetch op, so a client can pull
     it after the fact. *)
  let ident =
    Conair.Replay.Log.ident ~variant ~mode:(Conair.mode_name mode) app
  in
  let failed (r : Conair.run) = not (Outcome.is_success r.outcome) in
  let r, (rr, bundle) =
    Conair.run ~config ~engine
      (Conair.pair
         (Conair.report ~meta_info ~trace_writer:{ Jsonl.write = telemetry } ())
         (Conair.only_if failed (Conair.flight ~reason:"failure" ~ident ())))
      (Conair.target ?mode inst.Spec.program)
  in
  let seed = Option.value ~default:0 exec.seed in
  {
    jr_status = "ok";
    jr_exit = (if failed r then 2 else 0);
    jr_report = rr.Conair.report;
    jr_record = Some (run_record ~case:app ~seed r);
    jr_spans = Some (Span.to_chrome rr.Conair.spans);
    jr_bundle = Option.map Conair.Replay.Bundle.to_json bundle;
  }

let exec_harden ~target ~mode =
  let* app, _variant, inst = resolve target in
  let* mode = mode_of ~inst mode in
  let* mode =
    Option.to_result ~none:"harden job needs mode survival or fix" mode
  in
  let* h = Conair.harden inst.Spec.program mode in
  {
    jr_status = "ok";
    jr_exit = 0;
    jr_report =
      Json.Obj
        [
          ("type", Json.String "harden_report");
          ("app", Json.String app);
          ("sites", Json.Int (List.length h.Conair.plan.site_plans));
          ( "program",
            Json.String
              (Format.asprintf "%a@." Conair.Ir.Program.pp
                 h.Conair.hardened.program) );
        ];
    jr_record = None;
    jr_spans = None;
    jr_bundle = None;
  }

let exec_detect ~target ~original ~(exec : Protocol.exec) =
  let* _app, _variant, inst = resolve target in
  let* engine = Engine.of_string exec.engine in
  let config = config_of_exec exec in
  let mode = if original then None else Some Conair.Survival in
  let _, report =
    Conair.run ~config ~engine (Conair.detect ())
      (Conair.target ?mode inst.Spec.program)
  in
  let actual =
    List.filter
      (fun c -> c.Conair.Race.Report.cy_actual)
      report.Conair.Race.Report.cycles
  in
  {
    jr_status = "ok";
    jr_exit =
      (* exit 3 on findings, as the races subcommand does *)
      (if report.Conair.Race.Report.races <> [] || actual <> [] then 3 else 0);
    jr_report = Conair.Race.Report.to_json report;
    jr_record = None;
    jr_spans = None;
    jr_bundle = None;
  }

let exec_minimize ~log ~max_tests ~detect =
  match Conair.Replay.Log.of_lines log with
  | Error e -> failed (Printf.sprintf "bad schedule log: %s" e)
  | Ok slog ->
      let* m = Conair.minimize ~max_tests ~detect slog in
      {
        jr_status = "ok";
        jr_exit = 0;
        jr_report = Conair.Replay.Minimize.to_json m;
        jr_record = None;
        jr_spans = None;
        jr_bundle = None;
      }

let exec_fuzz ~telemetry ~target ~runs ~base_seed ~(exec : Protocol.exec) =
  let* app, _variant, inst = resolve target in
  let* h = Conair.harden inst.Spec.program Conair.Survival in
  let* engine = Engine.of_string exec.engine in
  let records = ref [] in
  for i = 0 to runs - 1 do
    let seed = base_seed + i in
    let config = config_of_exec { exec with Protocol.seed = Some seed } in
    let r = Conair.execute_hardened ~config ~engine h in
    let rec_j = run_record ~case:app ~seed r in
    records := rec_j :: !records;
    telemetry rec_j
  done;
  let records = List.rev !records in
  {
    jr_status = "ok";
    jr_exit = 0;
    jr_report = Aggregate.to_json (Aggregate.of_records records);
    jr_record =
      (* the sweep's last record stands in for the job *)
      (match List.rev records with last :: _ -> Some last | [] -> None);
    jr_spans = None;
    jr_bundle = None;
  }

let exec_fix ~target ~max_candidates ~sweep_seeds ~search_seeds
    ~(exec : Protocol.exec) =
  let* app, variant, inst = resolve target in
  let* engine = Engine.of_string exec.engine in
  let module Pipeline = Conair.Fix.Pipeline in
  let base = config_of_exec exec in
  let options =
    {
      Pipeline.default_options with
      Pipeline.engine;
      fuel = base.Machine.fuel;
      max_retries = base.Machine.max_retries;
      max_candidates;
      sweep_seeds;
      search_seeds;
    }
  in
  let report =
    Pipeline.run ~options ~accept:inst.Spec.accept ~app ~variant
      inst.Spec.program
  in
  {
    jr_status = "ok";
    jr_exit =
      (* exit 2 with no surviving candidate, as the fix subcommand *)
      (if report.Pipeline.fx_survivors > 0 then 0 else 2);
    jr_report = Pipeline.to_json report;
    jr_record = None;
    jr_spans = None;
    jr_bundle = None;
  }

(* Execute [spec], streaming any per-job telemetry records through
   [telemetry] as they are produced. Never raises: failures come back
   as an ["error"] outcome. *)
let execute ?(telemetry = fun (_ : Json.t) -> ()) (spec : Protocol.spec) :
    outcome =
  try
    match spec with
    | Protocol.Run { target; mode; exec } ->
        exec_run ~telemetry ~target ~mode ~exec
    | Protocol.Harden { target; mode } -> exec_harden ~target ~mode
    | Protocol.Detect { target; original; exec } ->
        exec_detect ~target ~original ~exec
    | Protocol.Minimize { log; max_tests; detect } ->
        exec_minimize ~log ~max_tests ~detect
    | Protocol.Fuzz { target; runs; base_seed; exec } ->
        exec_fuzz ~telemetry ~target ~runs ~base_seed ~exec
    | Protocol.Fix { target; max_candidates; sweep_seeds; search_seeds; exec }
      ->
        exec_fix ~target ~max_candidates ~sweep_seeds ~search_seeds ~exec
  with
  | Invalid_argument e -> failed e
  | Failure e -> failed e
