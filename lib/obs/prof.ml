(* The deterministic virtual-time cost profiler: a fold over the run's
   observation stream ([Runtime.Event]) — its steps, idle ticks and
   rollbacks.

   Attribution model. Every scheduler step belongs to a *context* — the
   call stack (function names, outermost first) plus the current block's
   label, rendered as the collapsed-stack frame path
   ["main;worker;loop_body"]. A step's *class* is decided later than it
   executes:

   - steps first land in a per-thread *pending* pool keyed by context;
   - a [Checkpoint] step flushes the thread's pending pool to *useful*
     (steps retired before a fresh checkpoint can never be rolled back —
     the rollback target has just moved past them) and counts itself as
     *checkpoint* cost, ConAir's proactive overhead;
   - a rollback moves the thread's pending pool to *wasted*, charged both
     per-context and to the failure site that triggered it ([Try_recover]
     resumes after the checkpoint instruction, so exactly the pending
     steps are the ones about to be re-executed);
   - [finalize] flushes what remains to useful.

   Everything is counted in scheduler steps, so a profile is a pure
   function of (program, config, seed) and byte-identical across the fast
   and reference engines — the differential test asserts this. All
   exports iterate in sorted key order; no Hashtbl iteration order leaks
   into output. *)

open Conair_runtime

type kind = Useful | Checkpoint | Wasted | Total

let kind_name = function
  | Useful -> "useful"
  | Checkpoint -> "checkpoint"
  | Wasted -> "wasted"
  | Total -> "total"

type site_cost = { sc_site : int; sc_wasted : int; sc_rollbacks : int }

type row = { r_ctx : string; r_useful : int; r_ckpt : int; r_wasted : int }

type sample = {
  sm_step : int;
  sm_useful : int;
  sm_ckpt : int;
  sm_wasted : int;
}

(* internal mutable per-site accumulator *)
type site_acc = { mutable a_wasted : int; mutable a_rollbacks : int }

type t = {
  useful : (string, int) Hashtbl.t;
  ckpt : (string, int) Hashtbl.t;
  wasted : (string, int) Hashtbl.t;
  pending : (int, (string, int) Hashtbl.t) Hashtbl.t;  (** per tid *)
  sites : (int, site_acc) Hashtbl.t;
  mutable useful_total : int;
  mutable ckpt_total : int;
  mutable wasted_total : int;
  mutable idle_total : int;
  mutable last_step : int;
  mutable samples : sample list;  (** newest first *)
  mutable finalized : bool;
}

let create () =
  {
    useful = Hashtbl.create 64;
    ckpt = Hashtbl.create 16;
    wasted = Hashtbl.create 16;
    pending = Hashtbl.create 8;
    sites = Hashtbl.create 8;
    useful_total = 0;
    ckpt_total = 0;
    wasted_total = 0;
    idle_total = 0;
    last_step = 0;
    samples = [];
    finalized = false;
  }

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let pending_of t tid =
  match Hashtbl.find_opt t.pending tid with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.replace t.pending tid tbl;
      tbl

(* Move a thread's pending pool into [target]; the sum moved is returned.
   Order-independent: per-key adds only. *)
let flush_pending tbl target =
  let moved = ref 0 in
  Hashtbl.iter
    (fun key n ->
      bump target key n;
      moved := !moved + n)
    tbl;
  Hashtbl.reset tbl;
  !moved

let take_sample t =
  t.samples <-
    {
      sm_step = t.last_step;
      sm_useful = t.useful_total;
      sm_ckpt = t.ckpt_total;
      sm_wasted = t.wasted_total;
    }
    :: t.samples

(* --- the probe ----------------------------------------------------- *)

let context_key ~stack ~block =
  (* [stack] arrives innermost frame first (thread stack order); the
     collapsed convention is root first with the block as leaf frame. *)
  String.concat ";" (List.rev_append stack [ block ])

let on_step t ~step ~tid ~stack ~block ~ckpt =
  t.last_step <- step;
  let key = context_key ~stack ~block in
  if ckpt then begin
    t.useful_total <- t.useful_total + flush_pending (pending_of t tid) t.useful;
    bump t.ckpt key 1;
    t.ckpt_total <- t.ckpt_total + 1
  end
  else bump (pending_of t tid) key 1

let on_rollback t ~step ~tid ~site_id =
  t.last_step <- step;
  let moved = flush_pending (pending_of t tid) t.wasted in
  t.wasted_total <- t.wasted_total + moved;
  let acc =
    match Hashtbl.find_opt t.sites site_id with
    | Some a -> a
    | None ->
        let a = { a_wasted = 0; a_rollbacks = 0 } in
        Hashtbl.replace t.sites site_id a;
        a
  in
  acc.a_wasted <- acc.a_wasted + moved;
  acc.a_rollbacks <- acc.a_rollbacks + 1;
  take_sample t

let on_idle t ~step =
  t.last_step <- step;
  t.idle_total <- t.idle_total + 1

let probe t =
  Event.observer ~sync:true ~steps:true (fun (v : Event.view) ev ->
      match (ev : Event.t) with
      | Step { step; tid; ckpt; _ } ->
          on_step t ~step ~tid ~stack:(v.stack tid) ~block:(v.block tid) ~ckpt
      | Rollback { step; tid; site_id; _ } -> on_rollback t ~step ~tid ~site_id
      | Idle { step } -> on_idle t ~step
      | _ -> ())

(** Flush the remaining pending steps to useful and close the profile.
    Idempotent; call once the run has finished, before reading. *)
let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    Hashtbl.iter
      (fun _tid tbl -> t.useful_total <- t.useful_total + flush_pending tbl t.useful)
      t.pending;
    take_sample t
  end

(* --- accessors ------------------------------------------------------ *)

let useful_steps t = t.useful_total
let checkpoint_steps t = t.ckpt_total
let wasted_steps t = t.wasted_total
let idle_steps t = t.idle_total
let attributed_steps t = t.useful_total + t.ckpt_total + t.wasted_total

let wasted_ratio t =
  let att = attributed_steps t in
  if att = 0 then 0. else float_of_int t.wasted_total /. float_of_int att

let site_costs t =
  Hashtbl.fold
    (fun site (a : site_acc) acc ->
      { sc_site = site; sc_wasted = a.a_wasted; sc_rollbacks = a.a_rollbacks }
      :: acc)
    t.sites []
  |> List.sort (fun a b -> compare a.sc_site b.sc_site)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let rows t =
  let tbl = Hashtbl.create 64 in
  let collect field src =
    Hashtbl.iter
      (fun key n ->
        let u, c, w =
          Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl key)
        in
        Hashtbl.replace tbl key
          (match field with
          | `U -> (u + n, c, w)
          | `C -> (u, c + n, w)
          | `W -> (u, c, w + n)))
      src
  in
  collect `U t.useful;
  collect `C t.ckpt;
  collect `W t.wasted;
  Hashtbl.fold
    (fun key (u, c, w) acc ->
      { r_ctx = key; r_useful = u; r_ckpt = c; r_wasted = w } :: acc)
    tbl []
  |> List.sort (fun a b ->
         compare
           (b.r_useful + b.r_ckpt + b.r_wasted, a.r_ctx)
           (a.r_useful + a.r_ckpt + a.r_wasted, b.r_ctx))

let samples t = List.rev t.samples

(* --- collapsed-stack export ----------------------------------------- *)

let to_collapsed t kind =
  let lines tbl =
    List.filter_map
      (fun (key, n) -> if n > 0 then Some (Printf.sprintf "%s %d" key n) else None)
      (sorted_bindings tbl)
  in
  match kind with
  | Useful -> lines t.useful
  | Checkpoint -> lines t.ckpt
  | Wasted -> lines t.wasted
  | Total ->
      let merged = Hashtbl.create 64 in
      List.iter
        (fun tbl -> Hashtbl.iter (fun k n -> bump merged k n) tbl)
        [ t.useful; t.ckpt; t.wasted ];
      lines merged

(* --- JSON export ----------------------------------------------------- *)

let table_json tbl =
  Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) (sorted_bindings tbl))

let to_json t : Json.t =
  Json.Obj
    [
      ("type", Json.String "profile");
      ("useful_steps", Json.Int t.useful_total);
      ("checkpoint_steps", Json.Int t.ckpt_total);
      ("wasted_steps", Json.Int t.wasted_total);
      ("idle_steps", Json.Int t.idle_total);
      ("wasted_ratio", Json.Float (wasted_ratio t));
      ("useful", table_json t.useful);
      ("checkpoint", table_json t.ckpt);
      ("wasted", table_json t.wasted);
      ( "sites",
        Json.List
          (List.map
             (fun sc ->
               Json.Obj
                 [
                   ("site", Json.Int sc.sc_site);
                   ("wasted", Json.Int sc.sc_wasted);
                   ("rollbacks", Json.Int sc.sc_rollbacks);
                 ])
             (site_costs t)) );
      ( "samples",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("step", Json.Int s.sm_step);
                   ("useful", Json.Int s.sm_useful);
                   ("checkpoint", Json.Int s.sm_ckpt);
                   ("wasted", Json.Int s.sm_wasted);
                 ])
             (samples t)) );
    ]

(* --- Chrome counter track ------------------------------------------- *)

(* One "ph":"C" counter event per sample; rendered by Perfetto as a
   stacked area track alongside the recovery spans ([Span.to_chrome]
   appends these via its [?counters] argument). Same clock as the spans:
   one scheduler step = one microsecond. *)
let counter_events t : Json.t list =
  List.map
    (fun s ->
      Json.Obj
        [
          ("name", Json.String "conair cost (steps)");
          ("ph", Json.String "C");
          ("pid", Json.Int 0);
          ("ts", Json.Int s.sm_step);
          ( "args",
            Json.Obj
              [
                ("useful", Json.Int s.sm_useful);
                ("checkpoint", Json.Int s.sm_ckpt);
                ("wasted", Json.Int s.sm_wasted);
              ] );
        ])
    (samples t)
