(* Happens-before race detection: FastTrack epochs over SHB order.

   The order tracked is *schedulable* happens-before (SHB): program
   order, release→acquire on the same lock, spawn→first-event,
   last-event→join, notify→wake — plus reads-from edges (a read joins
   the clock its value's writer had at the write). Race checks fire only
   at writes, against the last write and the readers since; reads never
   report, they only order. This is Mathur/Kini/Viswanathan's fix to
   plain HB's unsoundness after the first race: every race SHB reports
   is schedulable, and a write that is read-ordered behind its observer
   is quiet — which is what makes the bugbench clean variants quiet.

   FastTrack compression: last write is an epoch; readers are an epoch
   until two concurrent reads force a full vector clock. Per-component
   increments happen after every event whose clock gets copied out
   (write → LW, release → L_m, spawn → child, notify → woken), so the
   copy never falsely orders the copier's later events. *)

open Conair_runtime

type read_state =
  | R_none
  | R_epoch of Vclock.epoch * Report.access
  | R_vc of Vclock.t * (int, Report.access) Hashtbl.t

type var_state = {
  mutable vs_w : Vclock.epoch;  (* last write *)
  mutable vs_w_acc : Report.access option;
  mutable vs_lw : Vclock.t option;  (* writer's clock at last write *)
  mutable vs_r : read_state;  (* reads since last ordered write *)
}

type t = {
  clocks : (int, Vclock.t) Hashtbl.t;
  vars : (Event.addr, var_state) Hashtbl.t;
  locks_vc : (string, Vclock.t) Hashtbl.t;
  cells_of_block : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  seen : (string, unit) Hashtbl.t;  (* race dedup: addr + iid pair *)
  mutable races : Report.race list;  (* newest first *)
}

let create () =
  {
    clocks = Hashtbl.create 16;
    vars = Hashtbl.create 64;
    locks_vc = Hashtbl.create 16;
    cells_of_block = Hashtbl.create 16;
    seen = Hashtbl.create 16;
    races = [];
  }

let clock_of t tid =
  match Hashtbl.find_opt t.clocks tid with
  | Some c -> c
  | None ->
      let c = Vclock.create () in
      Vclock.set c tid 1;
      Hashtbl.replace t.clocks tid c;
      c

let var_of t addr =
  match Hashtbl.find_opt t.vars addr with
  | Some v -> v
  | None ->
      let v =
        { vs_w = Vclock.bottom; vs_w_acc = None; vs_lw = None; vs_r = R_none }
      in
      Hashtbl.replace t.vars addr v;
      (match addr with
      | Event.A_cell (b, off) ->
          let cells =
            match Hashtbl.find_opt t.cells_of_block b with
            | Some s -> s
            | None ->
                let s = Hashtbl.create 8 in
                Hashtbl.replace t.cells_of_block b s;
                s
          in
          Hashtbl.replace cells off ()
      | _ -> ());
      v

let report t addr (prev : Report.access) (curr : Report.access) =
  let key =
    Printf.sprintf "%s/%d/%d" (Report.addr_string addr) prev.Report.ac_iid
      curr.Report.ac_iid
  in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    t.races <- { Report.rc_addr = addr; rc_prev = prev; rc_curr = curr } :: t.races
  end

let on_read t (acc : Report.access) =
  let c = clock_of t acc.Report.ac_tid in
  let v = var_of t acc.Report.ac_addr in
  (* reads-from: order this read after the write it observes. *)
  (match v.vs_lw with None -> () | Some lw -> Vclock.join ~into:c lw);
  let tid = acc.Report.ac_tid in
  let e = Vclock.epoch_of c tid in
  match v.vs_r with
  | R_none -> v.vs_r <- R_epoch (e, acc)
  | R_epoch (old, _) when old.Vclock.e_tid = tid || Vclock.epoch_leq old c ->
      v.vs_r <- R_epoch (e, acc)
  | R_epoch (old, old_acc) ->
      (* two concurrent readers: promote to a full clock. *)
      let vc = Vclock.create () in
      Vclock.set vc old.Vclock.e_tid old.Vclock.e_clock;
      Vclock.set vc tid e.Vclock.e_clock;
      let accs = Hashtbl.create 4 in
      Hashtbl.replace accs old.Vclock.e_tid old_acc;
      Hashtbl.replace accs tid acc;
      v.vs_r <- R_vc (vc, accs)
  | R_vc (vc, accs) ->
      Vclock.set vc tid e.Vclock.e_clock;
      Hashtbl.replace accs tid acc

(* Check [v]'s write and read history against clock [c]; report races
   with [acc]. Does not update [v]. *)
let check_var t v (acc : Report.access) c =
  let addr = acc.Report.ac_addr in
  (match v.vs_w_acc with
  | Some prev when not (Vclock.epoch_leq v.vs_w c) -> report t addr prev acc
  | _ -> ());
  match v.vs_r with
  | R_none -> ()
  | R_epoch (e, prev) -> if not (Vclock.epoch_leq e c) then report t addr prev acc
  | R_vc (vc, accs) ->
      for tid = 0 to Vclock.max_tid vc do
        if Vclock.get vc tid > Vclock.get c tid then
          match Hashtbl.find_opt accs tid with
          | Some prev -> report t addr prev acc
          | None -> ()
      done

let on_write t (acc : Report.access) =
  let tid = acc.Report.ac_tid in
  let c = clock_of t tid in
  (* Freeing a block conflicts with every unordered access to any of its
     cells: check (but do not update) each recorded cell. *)
  (match acc.Report.ac_addr with
  | Event.A_block b -> (
      match Hashtbl.find_opt t.cells_of_block b with
      | None -> ()
      | Some cells ->
          let offs = Hashtbl.fold (fun off () l -> off :: l) cells [] in
          List.iter
            (fun off ->
              match
                Hashtbl.find_opt t.vars (Event.A_cell (b, off))
              with
              | Some v ->
                  check_var t v
                    { acc with Report.ac_addr = Event.A_cell (b, off) }
                    c
              | None -> ())
            (List.sort compare offs))
  | _ -> ());
  let v = var_of t acc.Report.ac_addr in
  check_var t v acc c;
  v.vs_w <- Vclock.epoch_of c tid;
  v.vs_w_acc <- Some acc;
  v.vs_lw <- Some (Vclock.copy c);
  v.vs_r <- R_none;
  Vclock.incr c tid

let on_access t (acc : Report.access) =
  match acc.Report.ac_kind with
  | Event.Read -> on_read t acc
  | Event.Write -> on_write t acc

let on_acquire t ~tid ~lock =
  match Hashtbl.find_opt t.locks_vc lock with
  | None -> ()
  | Some lm -> Vclock.join ~into:(clock_of t tid) lm

let on_release t ~tid ~lock =
  let c = clock_of t tid in
  Hashtbl.replace t.locks_vc lock (Vclock.copy c);
  Vclock.incr c tid

let on_spawn t ~parent ~child =
  let cp = clock_of t parent in
  let cc = Vclock.copy cp in
  Vclock.set cc child (Vclock.get cc child + 1);
  Hashtbl.replace t.clocks child cc;
  Vclock.incr cp parent

let on_join t ~tid ~joined =
  Vclock.join ~into:(clock_of t tid) (clock_of t joined)

let on_wake t ~waker ~woken =
  let cw = clock_of t waker in
  Vclock.join ~into:(clock_of t woken) cw;
  Vclock.incr cw waker

let races t = List.rev t.races
