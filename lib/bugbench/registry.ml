(* The benchmark registry: the paper's Table 2, as data. *)

let all : Bench_spec.t list =
  [
    App_fft.spec;
    App_hawknl.spec;
    App_httrack.spec;
    App_mozilla_xp.spec;
    App_mozilla_js.spec;
    App_mysql1.spec;
    App_mysql2.spec;
    App_sqlite.spec;
    App_transmission.spec;
    App_zsnes.spec;
  ]

(* Extended set: real-world bugs from the broader concurrency-bug
   literature, beyond the paper's Table 2 — used to check that nothing in
   the pipeline is overfitted to the ten headline benchmarks. *)
let extended : Bench_spec.t list = [ App_pbzip2.spec; App_apache.spec ]

let find name =
  List.find_opt
    (fun (s : Bench_spec.t) ->
      String.lowercase_ascii s.info.name = String.lowercase_ascii name)
    (all @ extended)

let lookup name =
  match find name with
  | Some s -> Ok s
  | None ->
      let names set =
        String.concat ", "
          (List.map (fun (s : Bench_spec.t) -> s.info.name) set)
      in
      Error
        (Printf.sprintf "unknown application %S; try: %s (extended: %s)" name
           (names all) (names extended))
