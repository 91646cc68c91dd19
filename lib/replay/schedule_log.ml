(* The schedule log: a recorded run's scheduling decisions plus enough
   metadata to re-execute it from the file alone.

   Serialized as JSONL so the existing line-oriented tooling (json_check,
   plain grep/jq) works on it unchanged:

     {"type":"sched_meta", ...}     identification, config, program text
     {"type":"sched_chunk","d":[...]}   decision stream, <= 4096 per line
     {"type":"sched_end", ...}      counts, preemption ordinals, outcome

   The meta line embeds the *executed* program (hardened text when the
   run was hardened) and its MD5, so a log replays without access to the
   original registry entry — and a replay against a supplied program can
   detect a mismatch before running a single step. The fail-block table
   (label name -> site id) reconstructs the [Machine.meta] recovery
   metadata for hardened programs.

   A flight bundle is the same record over a window of the decision
   stream: its header, tail chunks and trailer go through the encoders
   and the decoder below, so the two artifacts cannot drift. *)

open Conair_ir
open Conair_runtime
module Json = Conair_obs.Json
module Jsonl = Conair_obs.Jsonl
module Report = Conair_obs.Report

type ident = {
  id_app : string;
  id_variant : string;
  id_oracle : bool;
  id_mode : string;  (** "none" (unhardened), "survival" or "fix" *)
}

let ident ?(variant = "buggy") ?(oracle = false) ?(mode = "none") app =
  { id_app = app; id_variant = variant; id_oracle = oracle; id_mode = mode }

type t = {
  ident : ident;
  engine : string;  (** which engine recorded it: "ref" or "block" *)
  config : Machine.config;
  program_md5 : string;
  program_text : string option;
  fail_blocks : (string * int) list;  (** fail-arm label name -> site id *)
  decisions : int array;
  preemptions : int array;  (** ordinals into [decisions], ascending *)
  steps : int;
  instrs : int;
  rollbacks : int;
  outcome : Outcome.t;
  outputs : string list;
}

let version = 1
let digest text = Digest.to_hex (Digest.string text)
let digest_program p = digest (Emit.program p)

let fail_blocks_of_meta : Machine.meta option -> (string * int) list = function
  | None -> []
  | Some mm ->
      List.map
        (fun (l, site) -> (Ident.Label.name l, site))
        mm.Machine.fail_blocks

let meta_of_fail_blocks : (string * int) list -> Machine.meta option = function
  | [] -> None
  | fbs ->
      Some
        {
          Machine.fail_blocks =
            List.map (fun (name, site) -> (Ident.Label.v name, site)) fbs;
        }

let machine_meta t : Machine.meta option = meta_of_fail_blocks t.fail_blocks

(* The programs behind the logs of this process, by MD5: the one a log
   was recorded from, or the first parse of a log's text. A log then
   replays on that program, which is linked and compiled once
   ([Link.cache] keys on the program itself), instead of on a fresh
   parse per replay. Like [Link.cache] the table is weak: an entry is
   an ephemeron on the MD5 string of the log that made it, so it lives
   exactly as long as that log (or a copy of it) does. Guarded by a
   mutex for the serve daemon's in-process workers. *)
module Programs = Ephemeron.K1.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let programs : Program.t Programs.t = Programs.create 16
let programs_lock = Mutex.create ()

let remember_program t p =
  Mutex.lock programs_lock;
  if not (Programs.mem programs t.program_md5) then
    Programs.add programs t.program_md5 p;
  Mutex.unlock programs_lock

let program t =
  match t.program_text with
  | None -> Error "schedule log: no embedded program"
  | Some text when digest text <> t.program_md5 ->
      Error
        (Printf.sprintf
           "schedule log: embedded program MD5 %s does not match recorded %s"
           (digest text) t.program_md5)
  | Some text -> (
      Mutex.lock programs_lock;
      let known = Programs.find_opt programs t.program_md5 in
      Mutex.unlock programs_lock;
      match known with
      | Some p -> Ok p
      | None -> (
          let bad pp x =
            Error (Format.asprintf "schedule log: embedded program: %a" pp x)
          in
          match Parse.program text with
          | Error e -> bad Parse.pp_error e
          | Ok p -> (
              match Validate.check p with
              | [] ->
                  remember_program t p;
                  Ok p
              | problem :: _ -> bad Validate.pp_problem problem)))

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let ints a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

let header_members ~ty ~reason t =
  [
    ("type", Json.String ty);
    ("version", Json.Int version);
    ("app", Json.String t.ident.id_app);
    ("variant", Json.String t.ident.id_variant);
    ("oracle", Json.Bool t.ident.id_oracle);
    ("mode", Json.String t.ident.id_mode);
    ("engine", Json.String t.engine);
  ]
  @ (match reason with None -> [] | Some r -> [ ("reason", Json.String r) ])
  @ [
      ("config", Jsonl.config_json t.config);
      ("program_md5", Json.String t.program_md5);
    ]
  @ (match t.program_text with
    | None -> []
    | Some text -> [ ("program", Json.String text) ])
  @
  match t.fail_blocks with
  | [] -> []
  | fbs ->
      [
        ( "fail_blocks",
          Json.List
            (List.map
               (fun (name, site) ->
                 Json.List [ Json.String name; Json.Int site ])
               fbs) );
      ]

let trailer_members t =
  [
    ("steps", Json.Int t.steps);
    ("instrs", Json.Int t.instrs);
    ("rollbacks", Json.Int t.rollbacks);
    ("outcome", Report.outcome_json t.outcome);
    ("outputs", Json.List (List.map (fun s -> Json.String s) t.outputs));
  ]

let chunk_size = 4096

let chunks d =
  let n = Array.length d in
  List.init
    ((n + chunk_size - 1) / chunk_size)
    (fun c ->
      let pos = c * chunk_size in
      Json.Obj
        [
          ("type", Json.String "sched_chunk");
          ( "d",
            Json.List
              (List.init
                 (min chunk_size (n - pos))
                 (fun i -> Json.Int d.(pos + i))) );
        ])

let to_lines t =
  List.map Json.to_string
    ((Json.Obj (header_members ~ty:"sched_meta" ~reason:None t)
     :: chunks t.decisions)
    @ [
        Json.Obj
          (("type", Json.String "sched_end")
          :: ("decisions", Json.Int (Array.length t.decisions))
          :: ("preemptions", ints t.preemptions)
          :: trailer_members t);
      ])

let save t file =
  Out_channel.with_open_text file (fun oc ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (to_lines t))

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

module Decode = struct
  type 'a decoder = Json.t -> 'a option

  let str = function Json.String s -> Some s | _ -> None
  let nonempty = function Json.String s when s <> "" -> Some s | _ -> None
  let int = function Json.Int n -> Some n | _ -> None
  let nat = function Json.Int n when n >= 0 -> Some n | _ -> None
  let bool = function Json.Bool b -> Some b | _ -> None

  let list d = function
    | Json.List l ->
        let rec go acc = function
          | [] -> Some (List.rev acc)
          | x :: rest -> (
              match d x with Some v -> go (v :: acc) rest | None -> None)
        in
        go [] l
    | _ -> None

  let member name j =
    match Json.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing %S field" name)

  let get d name j =
    let* v = member name j in
    match d v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "malformed %S field" name)
end

open Decode

let line_type j =
  match Json.member "type" j with Some (Json.String s) -> s | _ -> ""

let of_chunks cs =
  let chunk c =
    if line_type c <> "sched_chunk" then None
    else Option.map Array.of_list (Option.bind (Json.member "d" c) (list int))
  in
  match list chunk (Json.List cs) with
  | Some ds -> Ok (Array.concat ds)
  | None -> Error "malformed sched_chunk record"

let md5_hex = function
  | Json.String d
    when String.length d = 32
         && String.for_all
              (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
              d ->
      Some d
  | _ -> None

let fail_block = function
  | Json.List [ Json.String name; Json.Int site ] -> Some (name, site)
  | _ -> None

(* Producers mint a fresh label per guard, so a label that occurs twice
   marks a doctored table. *)
let repeated_label fail_blocks =
  let rec go = function
    | a :: (b :: _ as rest) -> if a = b then Some a else go rest
    | _ -> None
  in
  go (List.sort compare (List.map fst fail_blocks))

(* Preemption ordinals strictly ascending inside [first, total). *)
let in_window ~first ~total preemptions =
  let rec go last i =
    i = Array.length preemptions
    || (let p = preemptions.(i) in
        p > last && p < total && go p (i + 1))
  in
  go (first - 1) 0

let decode ~header ~trailer ~first ~decisions ~preemptions =
  let* v = get int "version" header in
  if v < 1 || v > version then Error (Printf.sprintf "unsupported version %d" v)
  else
    let* app = get nonempty "app" header in
    let* variant = get nonempty "variant" header in
    let* oracle = get bool "oracle" header in
    let* mode = get nonempty "mode" header in
    let* engine = get str "engine" header in
    let* _ = Engine.of_string engine in
    let* config = Result.bind (member "config" header) Jsonl.config_of_json in
    let* program_md5 = get md5_hex "program_md5" header in
    let* program_text =
      match Json.member "program" header with
      | None -> Ok None
      | Some (Json.String text) when digest text = program_md5 -> Ok (Some text)
      | Some (Json.String _) ->
          Error "embedded program does not hash to program_md5"
      | Some _ -> Error "malformed \"program\" field"
    in
    let* fail_blocks =
      if Json.member "fail_blocks" header = None then Ok []
      else get (list fail_block) "fail_blocks" header
    in
    let* () =
      match repeated_label fail_blocks with
      | Some l -> Error (Printf.sprintf "fail_blocks repeats label %S" l)
      | None -> Ok ()
    in
    let* steps = get nat "steps" trailer in
    let* instrs = get nat "instrs" trailer in
    let* rollbacks = get nat "rollbacks" trailer in
    let* outcome =
      Result.bind (member "outcome" trailer) Report.outcome_of_json
    in
    let* outputs = get (list str) "outputs" trailer in
    let total = first + Array.length decisions in
    if config.Machine.fuel <= 0 then Error "config: fuel is not positive"
    else if first < 0 then
      Error (Printf.sprintf "the window starts at negative ordinal %d" first)
    else if not (in_window ~first ~total preemptions) then
      Error
        (Printf.sprintf
           "preemption ordinals are not ascending inside the window [%d, %d)"
           first total)
    else
      Ok
        {
          ident =
            {
              id_app = app;
              id_variant = variant;
              id_oracle = oracle;
              id_mode = mode;
            };
          engine;
          config;
          program_md5;
          program_text;
          fail_blocks;
          decisions;
          preemptions;
          steps;
          instrs;
          rollbacks;
          outcome;
          outputs;
        }

(* meta line, decision chunks, then exactly one trailing end record *)
let of_lines lines =
  Result.map_error (( ^ ) "schedule log: ")
  @@
  let* docs =
    List.fold_right
      (fun line acc ->
        let* acc = acc in
        let* j = Json.of_string line in
        Ok (j :: acc))
      lines (Ok [])
  in
  match docs with
  | [] -> Error "empty"
  | header :: _ when line_type header <> "sched_meta" ->
      Error "first line is not a sched_meta record"
  | header :: body -> (
      match List.rev body with
      | trailer :: rev_chunks when line_type trailer = "sched_end" ->
          let* decisions = of_chunks (List.rev rev_chunks) in
          let* count = get int "decisions" trailer in
          if count <> Array.length decisions then
            Error
              (Printf.sprintf "sched_end declares %d decisions, chunks carry %d"
                 count (Array.length decisions))
          else
            let* preemptions = get (list int) "preemptions" trailer in
            decode ~header ~trailer ~first:0 ~decisions
              ~preemptions:(Array.of_list preemptions)
      | _ -> Error "missing sched_end record")

let load file =
  match In_channel.with_open_text file In_channel.input_lines with
  | lines -> of_lines (List.filter (fun l -> String.trim l <> "") lines)
  | exception Sys_error e -> Error ("schedule log: " ^ e)
