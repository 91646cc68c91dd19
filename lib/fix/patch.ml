(* Candidate-patch synthesis over Mir (see docs/FIXING.md).

   From a race/deadlock report we derive a small, ordered grammar of
   candidate rewrites, each expressed as a Transform.Rewrite pass so the
   patched program keeps every original instruction id:

   - the lock ladder, for atomicity violations: protect the racy
     accesses with a fresh mutex at three widening extents — each access
     individually (rung 0), the first-to-last access span per block
     (rung 1), the whole enclosing block (rung 2). Narrow extents are
     tried first and the synthesizer "walks outward" simply by emitting
     the wider rungs as further candidates;

   - order enforcement, for order violations: a [Notify] after one
     access and a [Timed_wait] before the other, in both directions —
     the wrong direction times out or still fails and is rejected by the
     validation gates, so we need not guess which access must go first;

   - lock fusion, for lock-order cycles: every acquisition of a lock in
     the cycle becomes an acquisition of one fresh fused mutex (nested
     re-acquisitions become [Nop] — the runtime's mutexes are
     non-reentrant), eliminating the inversion by construction;

   - a combined candidate when a report carries both races and cycles.

   Synthesis is purely static and makes no claim of correctness: every
   candidate here is merely *plausible* and must survive the three
   validation gates (Gates / Pipeline) to be reported as a fix. *)

open Conair_ir
module Rewrite = Conair_transform.Rewrite
module Region = Conair_analysis.Region
module Site = Conair_analysis.Site
module Report = Conair_race.Report
module Event = Conair_runtime.Event
module Label = Ident.Label
module Reg = Ident.Reg

type strategy = Lock_access | Lock_span | Lock_block | Order | Fuse | Combined

let strategy_name = function
  | Lock_access -> "lock-access"
  | Lock_span -> "lock-span"
  | Lock_block -> "lock-block"
  | Order -> "order"
  | Fuse -> "fuse-locks"
  | Combined -> "combined"

type t = {
  p_id : string;  (* "strategy:target", unique within a synthesis run *)
  p_strategy : strategy;
  p_rung : int;  (* widening step within the strategy (lock ladder) *)
  p_target : string;  (* racy address / cycle key the candidate attacks *)
  p_sync : string list;  (* fresh mutexes/events the patch introduces *)
  p_edits : string list;  (* human-readable edit list, deterministic *)
  p_region_local : bool;
      (* the protected extent lies inside the racy access's idempotent
         region, i.e. the new critical section is no wider than what
         ConAir would re-execute on recovery *)
  p_program : Program.t;  (* the patched program, Validate-clean *)
}

let fix_mutex = "__fix_m"
let fuse_mutex = "__fix_f"
let fix_event = "__fix_e"
let fix_reg = Reg.v "__fix_ok"
let mutex_ref name = Instr.Const (Value.Mutex name)

let with_mutex name (p : Program.t) =
  if List.mem name p.Program.mutexes then p
  else { p with Program.mutexes = p.Program.mutexes @ [ name ] }

(* ---- locating the racy accesses ---------------------------------- *)

(* Every static access to a racy address. Named globals are located
   statically (every instruction reading or writing the global); for
   dynamic addresses (heap cells, stack slots) only the two reported
   access instructions are known. *)
let access_iids (p : Program.t) (r : Report.race) =
  let reported =
    [ r.Report.rc_prev.Report.ac_iid; r.Report.rc_curr.Report.ac_iid ]
  in
  let iids =
    match r.Report.rc_addr with
    | Event.A_global g ->
        let hits = ref [] in
        Program.iter_funcs p (fun f ->
            Func.iter_instrs f (fun _ i ->
                let touches =
                  List.exists (function
                    | Instr.Global g' -> String.equal g g'
                    | Instr.Stack _ -> false)
                in
                if
                  touches (Instr.mem_reads i.Instr.op)
                  || touches (Instr.mem_writes i.Instr.op)
                then hits := i.Instr.iid :: !hits));
        !hits @ reported
    | Event.A_slot _ | Event.A_cell _ | Event.A_block _ ->
        reported
  in
  List.sort_uniq compare iids

(* The accesses grouped per basic block, index-sorted — the unit the
   lock ladder protects. *)
type group = {
  g_func : Func.t;
  g_block : Block.t;
  g_idxs : int list;  (* ascending instruction indexes of the accesses *)
}

let group_by_block (p : Program.t) iids =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun iid ->
      match Program.find_instr p iid with
      | None -> ()
      | Some (f, b, idx) ->
          let key = (Ident.Fname.name f.Func.name, Label.name b.Block.label) in
          (match Hashtbl.find_opt tbl key with
          | None ->
              Hashtbl.replace tbl key [ idx ];
              order := (key, f, b) :: !order
          | Some idxs -> Hashtbl.replace tbl key (idx :: idxs)))
    iids;
  List.rev_map
    (fun (key, f, b) ->
      { g_func = f; g_block = b; g_idxs = List.sort compare (Hashtbl.find tbl key) })
    !order
  |> List.sort (fun a b ->
         compare
           (Ident.Fname.name a.g_func.Func.name, Label.name a.g_block.Block.label)
           (Ident.Fname.name b.g_func.Func.name, Label.name b.g_block.Block.label))

let loc_string g idx =
  Printf.sprintf "%s/%s[%d]"
    (Ident.Fname.name g.g_func.Func.name)
    (Label.name g.g_block.Block.label)
    idx

(* ---- region locality --------------------------------------------- *)

(* Would ConAir's recovery re-execute the whole protected extent? We
   take the *last* access of the extent as a synthetic failure site,
   compute its idempotent region, and ask whether every other protected
   instruction lies inside it. The access itself is excluded: regions
   end just before their site. *)
let extent_region_local g ~first ~last =
  let cfg = Cfg.of_func g.g_func in
  let site_instr = g.g_block.Block.instrs.(last) in
  let site =
    {
      Site.site_id = 0;
      iid = site_instr.Instr.iid;
      func = g.g_func.Func.name;
      kind = Instr.Assert_fail;
      detectable = false;
      msg = "fix extent";
    }
  in
  match Region.of_site cfg site with
  | region ->
      let extent = ref [] in
      for i = first to last - 1 do
        extent := g.g_block.Block.instrs.(i).Instr.iid :: !extent
      done;
      Region.covers_iids region !extent
  | exception Invalid_argument _ -> false

(* ---- the lock ladder --------------------------------------------- *)

(* Lock/unlock insertion around the [first..last] instruction-index
   extents of each group, all under one fresh mutex. *)
let lock_candidate ~strategy ~rung ~target (p : Program.t) groups extents =
  let ed = Rewrite.create () in
  let edits = ref [] in
  let local = ref true in
  List.iter2
    (fun g (first, last) ->
      let b_first = g.g_block.Block.instrs.(first).Instr.iid in
      let b_last = g.g_block.Block.instrs.(last).Instr.iid in
      Rewrite.insert_before ed b_first [ Instr.Lock (mutex_ref fix_mutex) ];
      Rewrite.insert_after ed b_last [ Instr.Unlock (mutex_ref fix_mutex) ];
      edits :=
        Printf.sprintf "lock %s before %s; unlock after %s" fix_mutex
          (loc_string g first) (loc_string g last)
        :: !edits;
      if not (extent_region_local g ~first ~last) then local := false)
    groups extents;
  let program, _ = Rewrite.apply ed p in
  let program = with_mutex fix_mutex program in
  {
    p_id = Printf.sprintf "%s:%s" (strategy_name strategy) target;
    p_strategy = strategy;
    p_rung = rung;
    p_target = target;
    p_sync = [ fix_mutex ];
    p_edits = List.rev !edits;
    p_region_local = !local;
    p_program = program;
  }

let ladder (p : Program.t) target groups =
  let per_access =
    (* rung 0: each access individually *)
    let groups', extents =
      List.concat_map
        (fun g -> List.map (fun idx -> (g, (idx, idx))) g.g_idxs)
        groups
      |> List.split
    in
    lock_candidate ~strategy:Lock_access ~rung:0 ~target p groups' extents
  in
  let span =
    (* rung 1: first-to-last access per block *)
    let extents =
      List.map
        (fun g ->
          (List.hd g.g_idxs, List.nth g.g_idxs (List.length g.g_idxs - 1)))
        groups
    in
    lock_candidate ~strategy:Lock_span ~rung:1 ~target p groups extents
  in
  let block =
    (* rung 2: the whole enclosing block *)
    let extents =
      List.map (fun g -> (0, Array.length g.g_block.Block.instrs - 1)) groups
    in
    lock_candidate ~strategy:Lock_block ~rung:2 ~target p groups extents
  in
  [ per_access; span; block ]

(* ---- order enforcement ------------------------------------------- *)

let order_candidate ~dir ~timeout ~target (p : Program.t)
    (first : Report.access) (second : Report.access) =
  if first.Report.ac_iid = second.Report.ac_iid then None
  else
    let ed = Rewrite.create () in
    Rewrite.insert_after ed first.Report.ac_iid [ Instr.Notify fix_event ];
    Rewrite.insert_before ed second.Report.ac_iid
      [ Instr.Timed_wait (fix_reg, fix_event, timeout) ];
    let program, _ = Rewrite.apply ed p in
    Some
      {
        p_id = Printf.sprintf "order-%s:%s" dir target;
        p_strategy = Order;
        p_rung = 0;
        p_target = target;
        p_sync = [ fix_event ];
        p_edits =
          [
            Printf.sprintf "notify %s after iid %d" fix_event
              first.Report.ac_iid;
            Printf.sprintf "timed-wait %s (timeout %d) before iid %d" fix_event
              timeout second.Report.ac_iid;
          ];
        p_region_local = false;
        p_program = program;
      }

let order_pair ~timeout ~target p (r : Report.race) =
  List.filter_map
    (fun x -> x)
    [
      order_candidate ~dir:"prev-first" ~timeout ~target p r.Report.rc_prev
        r.Report.rc_curr;
      order_candidate ~dir:"curr-first" ~timeout ~target p r.Report.rc_curr
        r.Report.rc_prev;
    ]

(* ---- lock fusion ------------------------------------------------- *)

(* Rewrite every acquisition/release of a lock in [cycle] to the fused
   mutex, tracking nesting depth per function so nested re-acquisitions
   become [Nop] (the runtime's mutexes are non-reentrant). Infeasible
   when lock operands are dynamic (register-valued) or critical sections
   cross function boundaries — those shapes need data the static scan
   does not have. *)
let fuse_edits ed (p : Program.t) cycle_locks =
  let in_cycle l = List.mem l cycle_locks in
  let edits = ref [] in
  let feasible = ref true in
  Program.iter_funcs p (fun f ->
      let depth = ref 0 in
      Func.iter_instrs f (fun b i ->
          ignore b;
          match i.Instr.op with
          | Instr.Lock (Instr.Const (Value.Mutex l)) when in_cycle l ->
              (if !depth = 0 then begin
                 Rewrite.replace_op ed i.Instr.iid
                   (Instr.Lock (mutex_ref fuse_mutex));
                 edits :=
                   Printf.sprintf "fuse lock %s -> %s at iid %d" l fuse_mutex
                     i.Instr.iid
                   :: !edits
               end
               else begin
                 Rewrite.replace_op ed i.Instr.iid Instr.Nop;
                 edits :=
                   Printf.sprintf "drop nested lock %s at iid %d" l i.Instr.iid
                   :: !edits
               end);
              incr depth
          | Instr.Unlock (Instr.Const (Value.Mutex l)) when in_cycle l ->
              decr depth;
              if !depth < 0 then feasible := false
              else if !depth = 0 then begin
                Rewrite.replace_op ed i.Instr.iid
                  (Instr.Unlock (mutex_ref fuse_mutex));
                edits :=
                  Printf.sprintf "fuse unlock %s -> %s at iid %d" l fuse_mutex
                    i.Instr.iid
                  :: !edits
              end
              else begin
                Rewrite.replace_op ed i.Instr.iid Instr.Nop;
                edits :=
                  Printf.sprintf "drop nested unlock %s at iid %d" l
                    i.Instr.iid
                  :: !edits
              end
          | Instr.Lock _ | Instr.Unlock _ | Instr.Timed_lock _ ->
              (* dynamic lock operand: it may alias a cycle lock *)
              feasible := false
          | _ -> ());
      if !depth <> 0 then feasible := false);
  if !feasible then Some (List.rev !edits) else None

let fuse_candidate (p : Program.t) (c : Report.cycle) =
  let key = Report.cycle_key c in
  let ed = Rewrite.create () in
  match fuse_edits ed p c.Report.cy_locks with
  | None -> None
  | Some edits ->
      let program, _ = Rewrite.apply ed p in
      let program = with_mutex fuse_mutex program in
      Some
        {
          p_id = Printf.sprintf "fuse-locks:%s" key;
          p_strategy = Fuse;
          p_rung = 0;
          p_target = key;
          p_sync = [ fuse_mutex ];
          p_edits = edits;
          p_region_local = false;
          p_program = program;
        }

(* ---- the combined candidate -------------------------------------- *)

let combined_candidate (p : Program.t) races cycles =
  let ed = Rewrite.create () in
  let edits = ref [] in
  let ok = ref true in
  (* span-lock every distinct racy address under __fix_m *)
  List.iter
    (fun (target, groups) ->
      List.iter
        (fun g ->
          let first = List.hd g.g_idxs in
          let last = List.nth g.g_idxs (List.length g.g_idxs - 1) in
          let b_first = g.g_block.Block.instrs.(first).Instr.iid in
          let b_last = g.g_block.Block.instrs.(last).Instr.iid in
          Rewrite.insert_before ed b_first [ Instr.Lock (mutex_ref fix_mutex) ];
          Rewrite.insert_after ed b_last [ Instr.Unlock (mutex_ref fix_mutex) ];
          edits :=
            Printf.sprintf "lock %s span %s..%s (%s)" fix_mutex
              (loc_string g first) (loc_string g last) target
            :: !edits)
        groups)
    races;
  (* fuse every cycle's locks into __fix_f *)
  let cycle_locks =
    List.concat_map (fun c -> c.Report.cy_locks) cycles
    |> List.sort_uniq compare
  in
  (match fuse_edits ed p cycle_locks with
  | Some fe -> edits := List.rev_append fe !edits
  | None -> ok := false);
  if not !ok then None
  else
    let program, _ = Rewrite.apply ed p in
    let program = with_mutex fix_mutex (with_mutex fuse_mutex program) in
    Some
      {
        p_id = "combined:all";
        p_strategy = Combined;
        p_rung = 0;
        p_target = "all";
        p_sync = [ fix_mutex; fuse_mutex ];
        p_edits = List.rev !edits;
        p_region_local = false;
        p_program = program;
      }

(* ---- synthesis --------------------------------------------------- *)

let dedupe_races (report : Report.t) =
  let seen = Hashtbl.create 4 in
  List.filter
    (fun r ->
      let k = Report.addr_string r.Report.rc_addr in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    report.Report.races

let dedupe_cycles (report : Report.t) =
  let seen = Hashtbl.create 4 in
  List.filter
    (fun c ->
      let k = Report.cycle_key c in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    report.Report.cycles

let synthesize ?(max_candidates = 8) ?(order_timeout = 30_000)
    (p : Program.t) (report : Report.t) : t list =
  let races = dedupe_races report in
  let cycles = dedupe_cycles report in
  let race_groups =
    List.filter_map
      (fun r ->
        let target = Report.addr_string r.Report.rc_addr in
        match group_by_block p (access_iids p r) with
        | [] -> None
        | groups -> Some (r, target, groups))
      races
  in
  let cands = ref [] in
  List.iter
    (fun (r, target, groups) ->
      cands := List.rev_append (ladder p target groups) !cands;
      cands := List.rev_append (order_pair ~timeout:order_timeout ~target p r) !cands)
    race_groups;
  List.iter
    (fun c ->
      match fuse_candidate p c with
      | Some cand -> cands := cand :: !cands
      | None -> ())
    cycles;
  (if race_groups <> [] && cycles <> [] then
     let rg = List.map (fun (_, t, g) -> (t, g)) race_groups in
     match combined_candidate p rg cycles with
     | Some cand -> cands := cand :: !cands
     | None -> ());
  (* drop duplicates (identical edit lists) and anything that fails
     validation — candidates must be well-formed programs *)
  let seen = Hashtbl.create 8 in
  List.rev !cands
  |> List.filter (fun c ->
         let key = String.concat "\n" c.p_edits in
         (not (Hashtbl.mem seen key))
         && begin
              Hashtbl.replace seen key ();
              Validate.check c.p_program = []
            end)
  |> List.filteri (fun i _ -> i < max_candidates)
