(* The observability layer: the JSON encoder (escaping, round-trips, the
   parser), the streaming JSONL encoder (golden log for a tiny
   deterministic program, live/stored agreement on a catalog app), the
   metrics registry (JSON and Prometheus exposition), and the span
   collector — in particular the invariant that every completed
   [Stats.episode] yields exactly one [Recovered] span with matching
   start/end steps — plus pinned digests of every observation artifact
   over the catalog. *)

open Conair.Ir
open Test_util
module B = Builder
module Json = Conair.Obs.Json
module Jsonl = Conair.Obs.Jsonl
module Metrics = Conair.Obs.Metrics
module Span = Conair.Obs.Span
module Report = Conair.Obs.Report
module Prof = Conair.Obs.Prof
module Overhead = Conair.Obs.Overhead
module Aggregate = Conair.Obs.Aggregate
module Machine = Conair.Runtime.Machine
module Event = Conair.Runtime.Event
module Engine = Conair.Runtime.Engine
module Stats = Conair.Runtime.Stats
module Spec = Conair_bugbench.Bench_spec
module Registry = Conair_bugbench.Registry
module Catalog = Conair_bugbench.Catalog

(* --- Json: encoding and escaping ----------------------------------- *)

let json_escaping () =
  let enc v = Json.to_string v in
  Alcotest.(check string) "quote and backslash" {|"a\"b\\c"|}
    (enc (Json.String "a\"b\\c"));
  Alcotest.(check string) "newline tab cr" {|"x\ny\tz\r"|}
    (enc (Json.String "x\ny\tz\r"));
  Alcotest.(check string) "control chars as \\u" {|"\u0001\u001f"|}
    (enc (Json.String "\x01\x1f"));
  Alcotest.(check string) "utf-8 passes through" "\"\xc3\xa9\""
    (enc (Json.String "\xc3\xa9"));
  Alcotest.(check string) "empty containers" {|{"a":[],"b":{}}|}
    (enc (Json.Obj [ ("a", Json.List []); ("b", Json.Obj []) ]));
  Alcotest.(check string) "scalars" {|[null,true,false,-3,1.5]|}
    (enc
       (Json.List
          [ Json.Null; Json.Bool true; Json.Bool false; Json.Int (-3);
            Json.Float 1.5 ]));
  (* non-finite floats have no JSON encoding; they degrade to null *)
  Alcotest.(check string) "nan is null" "[null,null,null]"
    (enc (Json.List [ Json.Float nan; Json.Float infinity;
                      Json.Float neg_infinity ]))

let json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool false;
      Json.Int max_int;
      Json.Int min_int;
      Json.Float 0.1;
      Json.Float (-1e-30);
      Json.Float 1.7976931348623157e308;
      Json.String "";
      Json.String "plain";
      Json.String "esc \" \\ \n \t \x00 \x7f é";
      Json.List [];
      Json.Obj [];
      Json.Obj
        [
          ("nested", Json.List [ Json.Obj [ ("k", Json.Int 1) ]; Json.Null ]);
          ("s", Json.String "v");
        ];
    ]
  in
  List.iter
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' ->
          if not (Json.equal v v') then
            Alcotest.failf "compact round-trip changed %s" (Json.to_string v)
      | Error e -> Alcotest.failf "reparse of %s: %s" (Json.to_string v) e)
    samples;
  (* the pretty encoding parses back to the same value too *)
  let big = Json.Obj [ ("all", Json.List samples) ] in
  (match Json.of_string (Json.to_string_pretty big) with
  | Ok v' ->
      Alcotest.(check bool) "pretty round-trip" true (Json.equal big v')
  | Error e -> Alcotest.failf "pretty reparse: %s" e)

let json_parser () =
  let parse s =
    match Json.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  Alcotest.(check bool) "unicode escape" true
    (Json.equal (Json.String "A") (parse {|"\u0041"|}));
  Alcotest.(check bool) "surrogate pair" true
    (Json.equal (Json.String "\xf0\x9f\x98\x80") (parse {|"\ud83d\ude00"|}));
  Alcotest.(check bool) "whitespace tolerated" true
    (Json.equal
       (Json.Obj [ ("a", Json.List [ Json.Int 1 ]) ])
       (parse " {\n \"a\" : [ 1 ] } \t"));
  Alcotest.(check bool) "exponent is float" true
    (Json.equal (Json.Float 1500.) (parse "1.5e3"));
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "parser accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "\"unterminated"; "nul";
      "{\"a\" 1}"; "[1] garbage" ]

(* --- Jsonl: the streaming encoder ------------------------------------ *)

(* A two-instruction single-threaded program: the whole event log is
   small and stable enough to pin as a golden value. *)
let tiny_program () =
  B.build ~main:"main" @@ fun b ->
  B.func b "main" ~params:[] @@ fun f ->
  B.label f "entry";
  B.output f "hi" [];
  B.exit_ f

let jsonl_golden () =
  let b = Buffer.create 256 in
  let meta =
    Jsonl.meta_json ~engine:Engine.Block ~hardened:false
      (Jsonl.run_meta ~variant:"clean" "tiny")
  in
  let _, outcome =
    Engine.run_program
      ~observer:(Jsonl.observer ~meta (Jsonl.buffer_writer b))
      Engine.Block (tiny_program ())
  in
  Alcotest.(check bool) "tiny program succeeds" true
    (Conair.Runtime.Outcome.is_success outcome);
  let expected =
    String.concat "\n"
      [
        {|{"type":"meta","app":"tiny","variant":"clean","engine":"block","hardened":false}|};
        {|{"type":"event","ev":"schedule","step":0,"tid":0}|};
        {|{"type":"event","ev":"output","step":0,"tid":0,"text":"hi"}|};
        {|{"type":"event","ev":"schedule","step":1,"tid":0}|};
      ]
    ^ "\n"
  in
  Alcotest.(check string) "golden JSONL log" expected (Buffer.contents b)

(* A view for feeding stored events to an observer by hand. *)
let no_view =
  {
    Event.stack = (fun _ -> []);
    block = (fun _ -> "");
    locks = (fun _ -> []);
  }

let jsonl_stream_matches_batch () =
  (* on a real catalog app: the log streamed as the machine ran equals
     the encoding of the stored event stream fed through afterwards (the
     encoder reads nothing but the events), every line parses, and the
     meta header comes first *)
  let entry =
    List.find (fun (e : Catalog.entry) -> e.name = "uninit-read")
      (Catalog.all ())
  in
  let b = Buffer.create 4096 in
  let config = Machine.default_config in
  let meta =
    Jsonl.meta_json ~config ~engine:Engine.Block ~hardened:false
      (Jsonl.run_meta ~variant:"buggy" "uninit-read")
  in
  let events = ref [] in
  let store =
    Event.observer ~sync:true ~steps:true (fun _ ev -> events := ev :: !events)
  in
  ignore
    (Engine.run_program ~config
       ~observer:
         (Event.combine [ Jsonl.observer ~meta (Jsonl.buffer_writer b); store ])
       Engine.Block entry.program);
  let events = List.rev !events in
  Alcotest.(check bool) "events retained" true (events <> []);
  let streamed = Buffer.contents b in
  let batch = Buffer.create 4096 in
  let encode = Jsonl.observer ~meta (Jsonl.buffer_writer batch) in
  List.iter (encode.Event.on no_view) events;
  Alcotest.(check string) "stream equals batch" (Buffer.contents batch)
    streamed;
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' streamed)
  in
  let count p l = List.length (List.filter p l) in
  Alcotest.(check int) "one schedule record per step"
    (count (function Event.Step _ -> true | _ -> false) events)
    (count
       (fun l -> Json.member "ev" (Result.get_ok (Json.of_string l))
                 = Some (Json.String "schedule"))
       lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok (Json.Obj _) -> ()
      | Ok _ -> Alcotest.failf "line is not an object: %s" line
      | Error e -> Alcotest.failf "unparseable line %s: %s" line e)
    lines;
  (* the meta header carries the config *)
  match Json.of_string (List.hd lines) with
  | Ok meta_line ->
      Alcotest.(check bool) "meta has config" true
        (Json.member "config" meta_line <> None);
      Alcotest.(check bool) "meta type" true
        (Json.member "type" meta_line = Some (Json.String "meta"))
  | Error e -> Alcotest.failf "meta line: %s" e

(* --- Span builder: one span per episode ---------------------------- *)

let run_observed_app name =
  let spec =
    List.find
      (fun (s : Spec.t) ->
        String.lowercase_ascii s.info.name = String.lowercase_ascii name)
      (Registry.all @ Registry.extended)
  in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:true in
  let h = Conair.harden_exn inst.program Conair.Survival in
  Conair.run_observed h

let spans_match_episodes () =
  let total_episodes = ref 0 in
  List.iter
    (fun app ->
      let rr = run_observed_app app in
      let stats = rr.Conair.run.stats in
      let episodes = Stats.episodes_chronological stats in
      total_episodes := !total_episodes + List.length episodes;
      let recovered =
        List.filter
          (fun s -> s.Span.sp_outcome = Span.Recovered)
          (Span.spans rr.spans)
      in
      Alcotest.(check int)
        (app ^ ": one Recovered span per completed episode")
        (List.length episodes) (List.length recovered);
      List.iter
        (fun (ep : Stats.episode) ->
          match
            List.find_opt
              (fun s ->
                s.Span.sp_tid = ep.ep_tid
                && s.Span.sp_site_id = ep.ep_site_id
                && s.Span.sp_start = ep.ep_start)
              recovered
          with
          | None ->
              Alcotest.failf "%s: no span for episode at site %d step %d" app
                ep.ep_site_id ep.ep_start
          | Some s ->
              Alcotest.(check int)
                (app ^ ": span end matches episode end")
                ep.ep_end s.Span.sp_end;
              Alcotest.(check bool)
                (app ^ ": span counted rollbacks")
                true
                (s.Span.sp_rollbacks >= 1))
        episodes)
    [ "HawkNL"; "Apache"; "MozillaXP" ];
  Alcotest.(check bool) "the sweep exercised real episodes" true
    (!total_episodes > 0)

let spans_synthetic () =
  (* hand-built streams pin the outcome classification, protocol
     violations included *)
  let c = Span.collector () in
  let fold = (Span.observer c).Event.on no_view in
  List.iter fold
    Event.
      [
        Step { step = 0; tid = 1; iid = 0; ckpt = false; woke = false };
        Failure_detected
          { step = 5; tid = 1; site_id = 3; kind = Instr.Assert_fail };
        Rollback { step = 5; tid = 1; site_id = 3; retry = 1 };
        Rollback { step = 9; tid = 1; site_id = 3; retry = 2 };
        Recovered { step = 12; tid = 1; site_id = 3 };
        Failure_detected
          { step = 20; tid = 2; site_id = 7; kind = Instr.Deadlock };
        Rollback { step = 20; tid = 2; site_id = 7; retry = 1 };
        Failed { step = 31; tid = 2; site_id = 7; msg = "retries exhausted" };
        (* a second site rolls back with t3's first episode still open *)
        Rollback { step = 40; tid = 3; site_id = 4; retry = 1 };
        Rollback { step = 44; tid = 3; site_id = 5; retry = 1 };
        (* a fail-stop with nothing to roll back to *)
        Failed { step = 45; tid = 4; site_id = 9; msg = "no checkpoint" };
        Step { step = 50; tid = 0; iid = 1; ckpt = false; woke = false };
        (* an unhardened failure and an idle tick are not trace events:
           the open episode still ends at step 50 *)
        Failed { step = 60; tid = 0; site_id = -1; msg = "assert" };
        Idle { step = 70 };
      ];
  match Span.spans c with
  | [ a; b; v; o; p ] ->
      Alcotest.(check int) "span 1 start" 5 a.Span.sp_start;
      Alcotest.(check int) "span 1 end" 12 a.Span.sp_end;
      Alcotest.(check int) "span 1 rollbacks" 2 a.Span.sp_rollbacks;
      Alcotest.(check bool) "span 1 recovered" true
        (a.Span.sp_outcome = Span.Recovered);
      Alcotest.(check bool) "span 1 kind" true
        (a.Span.sp_kind = Some Instr.Assert_fail);
      Alcotest.(check int) "span 2 tid" 2 b.Span.sp_tid;
      Alcotest.(check bool) "span 2 fail-stopped" true
        (b.Span.sp_outcome = Span.Fail_stopped);
      Alcotest.(check int) "span 2 duration" 11 (Span.duration b);
      Alcotest.(check (list int)) "violated span: site, start, end"
        [ 4; 40; 44 ]
        [ v.Span.sp_site_id; v.Span.sp_start; v.Span.sp_end ];
      Alcotest.(check bool) "violated span unresolved" true
        (v.Span.sp_outcome = Span.Unresolved && v.Span.sp_kind = None);
      Alcotest.(check (list int)) "open span: site, start, end"
        [ 5; 44; 50 ]
        [ o.Span.sp_site_id; o.Span.sp_start; o.Span.sp_end ];
      Alcotest.(check bool) "open span unresolved" true
        (o.Span.sp_outcome = Span.Unresolved);
      Alcotest.(check (list int)) "point span: tid, site, duration, rollbacks"
        [ 4; 9; 0; 0 ]
        [
          p.Span.sp_tid; p.Span.sp_site_id; Span.duration p;
          p.Span.sp_rollbacks;
        ];
      Alcotest.(check bool) "point span fail-stopped" true
        (p.Span.sp_outcome = Span.Fail_stopped)
  | spans -> Alcotest.failf "expected 5 spans, got %d" (List.length spans)

let chrome_trace_shape () =
  let rr = run_observed_app "HawkNL" in
  let doc = Span.to_chrome rr.Conair.spans in
  (* must survive a serialization round-trip *)
  (match Json.of_string (Json.to_string_pretty doc) with
  | Error e -> Alcotest.failf "chrome doc reparse: %s" e
  | Ok _ -> ());
  match Json.member "traceEvents" doc with
  | Some (Json.List evs) ->
      let phase ev =
        match Json.member "ph" ev with
        | Some (Json.String p) -> p
        | _ -> Alcotest.fail "trace event without ph"
      in
      let phases = List.map phase evs in
      Alcotest.(check bool) "has metadata events" true
        (List.mem "M" phases);
      let completes =
        List.filter (fun ev -> phase ev = "X") evs
      in
      Alcotest.(check int) "one complete event per span"
        (List.length (Span.spans rr.Conair.spans))
        (List.length completes);
      List.iter
        (fun ev ->
          List.iter
            (fun k ->
              if Json.member k ev = None then
                Alcotest.failf "complete event missing %S" k)
            [ "name"; "ts"; "dur"; "pid"; "tid" ])
        completes
  | _ -> Alcotest.fail "no traceEvents list"

(* --- Pinned bytes of every observation artifact ------------------------ *)

(* MD5 of the JSONL event lines (no meta line), the spans JSON, the
   Chrome document and the [--trace] summary text of every Table 2 app,
   buggy, survival-hardened, round-robin. The digests were taken from the
   encoder and span builder that translated the stream into a stored
   trace first; the fold over the live stream must keep every byte. *)
let catalog_digests =
  [
    ( "FFT",
      "cd4b9fc404c9b681637bd4365c7d051e",
      "44afee00c6f2092f926ea90bb9188700",
      "a35e5f63ce85128ef21683c503d6a393",
      "c86e93c87f57d1f44235ee9fa9879dc3" );
    ( "HawkNL",
      "0e90b2d63d0fbe38207b66c3b415d869",
      "f2d8d65cbaeb7fd8b62c6e5a3396e0a3",
      "696d1f0a7d4ccfe5ef62afff05974695",
      "c5e70016fae3639a17933ec4500e379e" );
    ( "HTTrack",
      "56fbc171b2450ebd1c8951960c202539",
      "5b84c18bc75c1dc740f90c896ee57950",
      "31df709486edcbe741753e0b62792e62",
      "0f88ea7e2ce8087fb4ce1ea02b3d7a41" );
    ( "MozillaXP",
      "ed30fc6d07018e7b285f84791f1346fa",
      "b3d881ed313f6866a258c725840feb21",
      "a5dc5b825bb8007cec1d290b2f947afc",
      "0a00e04240f6a0500971bb6b324485b6" );
    ( "MozillaJS",
      "88841f95559125eb5d5fad3338a29152",
      "e9cd9c86e3a95a3acc5312c5f1438ab5",
      "0ab805c178bf2c0bef4e4a920e3207b5",
      "41ab8bd2f8e7b854ad86294a9acf4055" );
    ( "MySQL1",
      "9ee15d53fd8fcba255cb81739b35403e",
      "476566d2ebcca6f6981880778106d518",
      "632853cc00af8cf7e0e099f1de834298",
      "78f6f41924520d1ea7e10ca21179355b" );
    ( "MySQL2",
      "307c0c3e118231200f801793cd50eee5",
      "5bd5bfd2aafa7d7a65fc81f8d9753a30",
      "74905ac6ad6d7d23c789a15a621343d1",
      "47ef1bf398cf42f836391544496a9b06" );
    ( "SQLite",
      "8513db3d72b41b4c2300e45d586ea8fb",
      "431cdb992d842a777e3662af459f3057",
      "006fdc9de045d1952fac881855724b44",
      "4c64baa468667e0258c4ccf7a5a967ce" );
    ( "Transmission",
      "79903e86740cd7129865e688dd22a0f1",
      "0b2a48320d25b2beb3f774a505a99ded",
      "91b793b17add0ce6dd169397125e6702",
      "64d220dbdfb91080c1740f3bbb9d89e5" );
    ( "ZSNES",
      "39bebae1756c3204df27326c9c84f9e1",
      "d4c4aa683461418ccedd920264f07ae2",
      "3daba35af84260e846396e31d75c81bc",
      "07a76b14079383a3603719d7328ae22d" );
  ]

let observation_digests () =
  Alcotest.(check (list string))
    "one pinned row per Table 2 app"
    (List.map (fun (s : Spec.t) -> s.info.name) Registry.all)
    (List.map (fun (name, _, _, _, _) -> name) catalog_digests);
  List.iter
    (fun (name, jsonl, spans, chrome, summary) ->
      let spec = Option.get (Registry.find name) in
      let inst =
        spec.make ~variant:Spec.Buggy ~oracle:spec.info.needs_oracle
      in
      let b = Buffer.create 4096 in
      let _, rr =
        Conair.run
          (Conair.report ~trace_writer:(Jsonl.buffer_writer b) ())
          (Conair.target ~mode:Conair.Survival inst.program)
      in
      let md5 what expected text =
        Alcotest.(check string)
          (name ^ ": " ^ what) expected
          (Digest.to_hex (Digest.string text))
      in
      md5 "JSONL event lines" jsonl (Buffer.contents b);
      md5 "spans JSON" spans
        (Json.to_string
           (Json.List (List.map Span.to_json (Span.spans rr.spans))));
      md5 "Chrome document" chrome (Json.to_string (Span.to_chrome rr.spans));
      md5 "recovery summary" summary
        (Format.asprintf "@[<v 2>recovery trace:@ %a@]@."
           Span.pp_recovery_summary rr.spans))
    catalog_digests

(* The meta record and the run report name the engine the run executed
   on and whether a mode hardened the program. *)
let meta_names_the_run () =
  let inst =
    (Option.get (Registry.find "MySQL1")).make ~variant:Spec.Buggy
      ~oracle:true
  in
  let meta_info = Jsonl.run_meta ~variant:"buggy" "MySQL1" in
  List.iter
    (fun engine ->
      List.iter
        (fun mode ->
          let label =
            Printf.sprintf "%s/%s" (Engine.name engine)
              (if mode = None then "original" else "hardened")
          in
          let records = ref [] in
          let _, rr =
            Conair.run ~engine
              (Conair.report ~meta_info
                 ~trace_writer:
                   { Jsonl.write = (fun j -> records := j :: !records) }
                 ())
              (Conair.target ?mode inst.program)
          in
          let meta = List.hd (List.rev !records) in
          List.iter
            (fun (what, doc) ->
              Alcotest.(check bool)
                (label ^ ": " ^ what ^ " engine") true
                (Json.member "engine" doc
                = Some (Json.String (Engine.name engine)));
              Alcotest.(check bool)
                (label ^ ": " ^ what ^ " hardened") true
                (Json.member "hardened" doc = Some (Json.Bool (mode <> None))))
            [ ("meta record", meta); ("run report", rr.report) ])
        [ None; Some Conair.Survival ])
    Engine.all

(* --- Stats.episodes_chronological ---------------------------------- *)

let episodes_are_chronological () =
  let rr = run_observed_app "HawkNL" in
  let eps = Stats.episodes_chronological rr.Conair.run.stats in
  Alcotest.(check bool) "has episodes" true (eps <> []);
  let rec ascending = function
    | a :: (b :: _ as rest) ->
        a.Stats.ep_start <= b.Stats.ep_start && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "ascending start steps" true (ascending eps);
  Alcotest.(check int) "same episodes, reversed"
    (List.length rr.Conair.run.stats.episodes)
    (List.length eps)

(* --- Metrics registry ---------------------------------------------- *)

let metrics_basics () =
  let t = Metrics.create () in
  let c = Metrics.counter t "jobs_total" ~help:"jobs" in
  Metrics.inc c;
  Metrics.inc ~by:4 c;
  Alcotest.(check int) "counter value" 5 (Metrics.counter_value c);
  (match Metrics.inc ~by:(-1) c with
  | () -> Alcotest.fail "negative increment accepted"
  | exception Invalid_argument _ -> ());
  let c' = Metrics.counter t "jobs_total" in
  Metrics.inc c';
  Alcotest.(check int) "same identity, same cell" 6 (Metrics.counter_value c);
  let labeled = Metrics.counter t "jobs_total" ~labels:[ ("k", "v") ] in
  Metrics.inc labeled;
  Alcotest.(check int) "labels split identity" 1
    (Metrics.counter_value labeled);
  let g = Metrics.gauge t "depth" in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge" 2.5 (Metrics.gauge_value g);
  let h = Metrics.histogram t "lat" ~buckets:[ 1.; 5.; 10. ] in
  List.iter (Metrics.observe h) [ 0.5; 3.; 7.; 100. ];
  Alcotest.(check int) "histogram count" 4 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "histogram sum" 110.5 (Metrics.histogram_sum h);
  (match Metrics.histogram t "bad" ~buckets:[ 5.; 5. ] with
  | _ -> Alcotest.fail "non-increasing buckets accepted"
  | exception Invalid_argument _ -> ())

let metrics_exposition () =
  let t = Metrics.create () in
  let c = Metrics.counter t "reqs_total" ~help:"requests" in
  Metrics.inc ~by:3 c;
  let h = Metrics.histogram t "lat_steps" ~buckets:[ 1.; 10. ] in
  List.iter (Metrics.observe h) [ 0.5; 2.; 50. ];
  let json = Metrics.to_json t in
  (match Json.of_string (Json.to_string json) with
  | Error e -> Alcotest.failf "metrics json reparse: %s" e
  | Ok _ -> ());
  (match Json.member "metrics" json with
  | Some (Json.List [ cj; hj ]) ->
      Alcotest.(check bool) "counter value in json" true
        (Json.member "value" cj = Some (Json.Int 3));
      (match Json.member "buckets" hj with
      | Some (Json.List buckets) ->
          (* cumulative: le=1 → 1, le=10 → 2, +Inf → 3 *)
          let counts =
            List.map
              (fun b ->
                match Json.member "count" b with
                | Some (Json.Int n) -> n
                | _ -> Alcotest.fail "bucket without count")
              buckets
          in
          Alcotest.(check (list int)) "cumulative buckets" [ 1; 2; 3 ] counts
      | _ -> Alcotest.fail "histogram without buckets")
  | _ -> Alcotest.fail "unexpected metrics json shape");
  let text = Metrics.to_prometheus t in
  List.iter
    (fun needle ->
      if
        not
          (List.exists
             (fun line -> line = needle)
             (String.split_on_char '\n' text))
      then Alcotest.failf "prometheus text missing %S:\n%s" needle text)
    [
      "# HELP reqs_total requests";
      "# TYPE reqs_total counter";
      "reqs_total 3";
      "lat_steps_bucket{le=\"1.0\"} 1";
      "lat_steps_bucket{le=\"10.0\"} 2";
      "lat_steps_bucket{le=\"+Inf\"} 3";
      "lat_steps_sum 52.5";
      "lat_steps_count 3";
    ]

let standard_metrics_track_stats () =
  let rr = run_observed_app "HawkNL" in
  let stats = rr.Conair.run.stats in
  let v name =
    match Json.member "metrics" (Metrics.to_json rr.Conair.metrics) with
    | Some (Json.List ms) -> (
        match
          List.find_opt (fun m -> Json.member "name" m = Some (Json.String name))
            ms
        with
        | Some m -> Json.member "value" m
        | None -> None)
    | _ -> None
  in
  Alcotest.(check bool) "steps metric" true
    (v "conair_steps_total" = Some (Json.Int stats.steps));
  Alcotest.(check bool) "rollbacks metric" true
    (v "conair_rollbacks_total" = Some (Json.Int stats.rollbacks));
  Alcotest.(check bool) "episodes metric" true
    (v "conair_recovery_episodes_total"
    = Some (Json.Int (List.length stats.episodes)));
  (* live counters agree with the final stats *)
  Alcotest.(check bool) "live rollbacks agree" true
    (v "conair_live_rollbacks_total" = Some (Json.Int stats.rollbacks))

(* --- Prof: the deterministic cost profiler ------------------------- *)

let prof_tiny_exact () =
  (* the two-instruction program pins the attribution exactly: two useful
     steps, both in main/entry, nothing else *)
  let prof = Prof.create () in
  ignore
    (Engine.run_program ~observer:(Prof.probe prof) Engine.Block
       (tiny_program ()));
  Prof.finalize prof;
  Alcotest.(check int) "useful" 2 (Prof.useful_steps prof);
  Alcotest.(check int) "checkpoint" 0 (Prof.checkpoint_steps prof);
  Alcotest.(check int) "wasted" 0 (Prof.wasted_steps prof);
  Alcotest.(check int) "idle" 0 (Prof.idle_steps prof);
  Alcotest.(check (list string)) "collapsed total" [ "main;entry 2" ]
    (Prof.to_collapsed prof Prof.Total);
  Alcotest.(check (list string)) "collapsed wasted is empty" []
    (Prof.to_collapsed prof Prof.Wasted)

let run_profiled_app name =
  let spec =
    List.find
      (fun (s : Spec.t) -> s.info.name = name)
      (Registry.all @ Registry.extended)
  in
  let inst = spec.make ~variant:Spec.Buggy ~oracle:true in
  let h = Conair.harden_exn inst.program Conair.Survival in
  Conair.run_profiled h

let prof_accounts_for_every_step () =
  List.iter
    (fun app ->
      let r, prof = run_profiled_app app in
      let stats = r.Conair.stats in
      (* conservation: every scheduler step lands in exactly one class *)
      Alcotest.(check int)
        (app ^ ": attributed + idle = total steps")
        stats.steps
        (Prof.attributed_steps prof + Prof.idle_steps prof);
      Alcotest.(check int)
        (app ^ ": attributed = useful + checkpoint + wasted")
        (Prof.useful_steps prof + Prof.checkpoint_steps prof
        + Prof.wasted_steps prof)
        (Prof.attributed_steps prof);
      Alcotest.(check int)
        (app ^ ": one checkpoint step per dynamic checkpoint")
        stats.checkpoints (Prof.checkpoint_steps prof);
      (* per-site charges cover the run's rollbacks and wasted steps *)
      let costs = Prof.site_costs prof in
      Alcotest.(check int)
        (app ^ ": site rollbacks sum to stats.rollbacks")
        stats.rollbacks
        (List.fold_left (fun acc c -> acc + c.Prof.sc_rollbacks) 0 costs);
      Alcotest.(check int)
        (app ^ ": site wasted steps sum to the wasted total")
        (Prof.wasted_steps prof)
        (List.fold_left (fun acc c -> acc + c.Prof.sc_wasted) 0 costs);
      if stats.rollbacks > 0 then begin
        Alcotest.(check bool) (app ^ ": rollbacks wasted steps") true
          (Prof.wasted_steps prof > 0);
        Alcotest.(check bool) (app ^ ": wasted ratio positive") true
          (Prof.wasted_ratio prof > 0.)
      end)
    [ "HawkNL"; "MozillaXP"; "Transmission" ]

let prof_collapsed_and_json () =
  let _, prof = run_profiled_app "HawkNL" in
  (* every collapsed line is "frame;frame;... N" with positive count *)
  let parse_line line =
    match String.rindex_opt line ' ' with
    | None -> Alcotest.failf "collapsed line without count: %s" line
    | Some i ->
        let frames = String.sub line 0 i in
        let count = int_of_string (String.sub line (i + 1) (String.length line - i - 1)) in
        Alcotest.(check bool) "positive count" true (count > 0);
        List.iter
          (fun f ->
            Alcotest.(check bool) "non-empty frame" true (f <> ""))
          (String.split_on_char ';' frames);
        count
  in
  let total kind =
    List.fold_left (fun acc l -> acc + parse_line l) 0
      (Prof.to_collapsed prof kind)
  in
  Alcotest.(check int) "total lines sum to attributed steps"
    (Prof.attributed_steps prof) (total Prof.Total);
  Alcotest.(check int) "useful lines sum" (Prof.useful_steps prof)
    (total Prof.Useful);
  Alcotest.(check int) "wasted lines sum" (Prof.wasted_steps prof)
    (total Prof.Wasted);
  (* the JSON document and the counter events survive a round-trip *)
  (match Json.of_string (Json.to_string (Prof.to_json prof)) with
  | Error e -> Alcotest.failf "profile json reparse: %s" e
  | Ok j ->
      Alcotest.(check bool) "profile type tag" true
        (Json.member "type" j = Some (Json.String "profile")));
  List.iter
    (fun ev ->
      Alcotest.(check bool) "counter event phase" true
        (Json.member "ph" ev = Some (Json.String "C")))
    (Prof.counter_events prof);
  Alcotest.(check bool) "samples exist" true (Prof.samples prof <> [])

let prof_is_deterministic () =
  let profile_once () =
    let _, prof = run_profiled_app "MozillaXP" in
    Json.to_string (Prof.to_json prof)
  in
  Alcotest.(check string) "same program, same profile bytes"
    (profile_once ()) (profile_once ())

(* --- Aggregate: cross-run percentile summaries --------------------- *)

let aggregate_percentiles () =
  Alcotest.(check int) "empty" 0 (Aggregate.percentile [] 50.);
  let hundred = List.init 100 (fun i -> 100 - i) in
  Alcotest.(check int) "p50 of 1..100" 50 (Aggregate.percentile hundred 50.);
  Alcotest.(check int) "p95 of 1..100" 95 (Aggregate.percentile hundred 95.);
  Alcotest.(check int) "p100 of 1..100" 100
    (Aggregate.percentile hundred 100.);
  Alcotest.(check int) "p50 of singleton" 7 (Aggregate.percentile [ 7 ] 50.)

let aggregate_synthetic () =
  let record i =
    Printf.sprintf
      {|{"type":"run","case":"racy","seed":%d,"outcome":"success","steps":100,"episodes":%d,"retries":%d,"max_episode_steps":%d,"sites":[{"site":3,"episodes":%d,"retries":%d,"steps":%d}]}|}
      i
      (if i mod 2 = 0 then 1 else 0)
      (if i mod 2 = 0 then i else 0)
      (if i mod 2 = 0 then 10 * i else 0)
      (if i mod 2 = 0 then 1 else 0)
      (if i mod 2 = 0 then i else 0)
      (if i mod 2 = 0 then 10 * i else 0)
  in
  let lines =
    {|{"type":"meta","app":"conair_fuzz"}|}
    :: List.init 10 (fun i -> record (i + 1))
    @ [ {|{"type":"fuzz_summary","checks":1}|}; "" ]
  in
  match Aggregate.of_lines lines with
  | Error e -> Alcotest.failf "aggregate: %s" e
  | Ok agg ->
      (* runs 1..10; even seeds (2,4,6,8,10) have one episode each *)
      Alcotest.(check int) "runs counted, meta/summary skipped" 10
        agg.Aggregate.g_runs;
      Alcotest.(check int) "recovery runs" 5 agg.Aggregate.g_recovery_runs;
      Alcotest.(check int) "total steps" 1000 agg.Aggregate.g_total_steps;
      (* recovery steps are 20,40,60,80,100 *)
      Alcotest.(check int) "p50 recovery steps" 60
        agg.Aggregate.g_p50_recovery_steps;
      Alcotest.(check int) "max recovery steps" 100
        agg.Aggregate.g_max_recovery_steps;
      Alcotest.(check int) "max retries" 10 agg.Aggregate.g_max_retries;
      (match agg.Aggregate.g_sites with
      | [ s ] ->
          Alcotest.(check int) "site id" 3 s.Aggregate.g_site;
          Alcotest.(check int) "site episodes" 5 s.Aggregate.g_episodes;
          Alcotest.(check int) "site retries" 30 s.Aggregate.g_retries;
          Alcotest.(check int) "site steps" 300 s.Aggregate.g_steps;
          Alcotest.(check (float 1e-9)) "site ratio" 0.3 s.Aggregate.g_ratio
      | sites -> Alcotest.failf "expected 1 site, got %d" (List.length sites));
      (match Json.of_string (Json.to_string (Aggregate.to_json agg)) with
      | Error e -> Alcotest.failf "aggregate json reparse: %s" e
      | Ok _ -> ());
      Alcotest.(check bool) "render is non-empty" true
        (Aggregate.render agg <> [])

let aggregate_rejects_corrupt_lines () =
  match Aggregate.of_lines [ {|{"type":"run","steps":1}|}; "{oops" ] with
  | Ok _ -> Alcotest.fail "corrupt line accepted"
  | Error e ->
      Alcotest.(check bool) "error names the line" true
        (String.length e >= 7 && String.sub e 0 7 = "line 2:")

(* --- Overhead: the paper-style harness ----------------------------- *)

let overhead_case name =
  let spec =
    List.find (fun (s : Spec.t) -> s.info.name = name) Registry.all
  in
  let inst variant oracle =
    let i = spec.Spec.make ~variant ~oracle in
    {
      Overhead.program = i.Spec.program;
      fix_iids = i.Spec.fix_site_iids;
      accept = i.Spec.accept;
    }
  in
  let needs = spec.Spec.info.needs_oracle in
  {
    Overhead.name;
    needs_oracle = needs;
    buggy_fix = inst Spec.Buggy true;
    buggy_survival = inst Spec.Buggy needs;
    clean_fix = inst Spec.Clean true;
    clean_survival = inst Spec.Clean needs;
  }

let overhead_harness () =
  let rows =
    Overhead.measure_all [ overhead_case "HawkNL"; overhead_case "MySQL2" ]
  in
  Alcotest.(check int) "one row per case" 2 (List.length rows);
  List.iter
    (fun (r : Overhead.row) ->
      Alcotest.(check bool) (r.o_name ^ ": fix recovers") true
        r.o_fix_recovered;
      Alcotest.(check bool) (r.o_name ^ ": survival recovers") true
        r.o_surv_recovered;
      Alcotest.(check int)
        (r.o_name ^ ": all random runs succeed")
        r.o_runs r.o_fix_ok;
      Alcotest.(check bool)
        (r.o_name ^ ": fix overhead below the paper bound")
        true
        (r.o_fix_overhead_pct >= 0. && r.o_fix_overhead_pct < 1.);
      Alcotest.(check bool)
        (r.o_name ^ ": survival overhead small")
        true
        (r.o_surv_overhead_pct >= 0. && r.o_surv_overhead_pct < 5.);
      Alcotest.(check bool) (r.o_name ^ ": recovery did work") true
        (r.o_rollbacks > 0 && r.o_wasted_steps > 0);
      Alcotest.(check int)
        (r.o_name ^ ": site retries sum to the total")
        r.o_retries
        (List.fold_left (fun acc s -> acc + s.Overhead.sr_retries) 0 r.o_sites))
    rows;
  let s = Overhead.summary rows in
  Alcotest.(check int) "summary counts cases" 2 s.Overhead.s_cases;
  Alcotest.(check int) "summary fix recoveries" 2 s.Overhead.s_fix_recovered;
  (match Json.of_string (Json.to_string (Overhead.to_json rows)) with
  | Error e -> Alcotest.failf "overhead json reparse: %s" e
  | Ok j ->
      Alcotest.(check bool) "overhead type tag" true
        (Json.member "type" j = Some (Json.String "overhead")));
  (* header plus one line per case *)
  Alcotest.(check int) "table rows" 3
    (List.length (Overhead.table_rows rows))

let suites =
  [
    ( "obs",
      [
        case "json escaping" json_escaping;
        case "json round-trips" json_roundtrip;
        case "json parser" json_parser;
        case "jsonl golden log" jsonl_golden;
        case "jsonl stream equals batch" jsonl_stream_matches_batch;
        case "one span per recovery episode" spans_match_episodes;
        case "span builder on synthetic streams" spans_synthetic;
        case "chrome trace shape" chrome_trace_shape;
        case "observation artifacts keep their bytes" observation_digests;
        case "meta and report name the engine and hardening"
          meta_names_the_run;
        case "episodes are chronological" episodes_are_chronological;
        case "metrics basics" metrics_basics;
        case "metrics exposition" metrics_exposition;
        case "standard metrics track stats" standard_metrics_track_stats;
        case "profiler: exact attribution on the tiny program"
          prof_tiny_exact;
        case "profiler: every step accounted for" prof_accounts_for_every_step;
        case "profiler: collapsed stacks and json exports"
          prof_collapsed_and_json;
        case "profiler: byte-identical across runs" prof_is_deterministic;
        case "aggregate: nearest-rank percentiles" aggregate_percentiles;
        case "aggregate: synthetic run records" aggregate_synthetic;
        case "aggregate: corrupt lines rejected"
          aggregate_rejects_corrupt_lines;
        case "overhead: harness on two benchmarks" overhead_harness;
      ] );
  ]
