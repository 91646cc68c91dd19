(* Eraser-style lockset discipline checking: the second lens.

   Per location, the classic state machine — Virgin, Exclusive(first
   thread), Shared (read-shared), Shared_modified — with a candidate
   lockset initialized when the location first goes cross-thread and
   refined by intersection with the held set at every later access. An
   empty candidate set in Shared_modified means no single lock
   consistently protects the location: a discipline violation, warned
   once per location.

   This lens is heuristic where happens-before is precise: it flags
   locations that *happen* to be consistently locked as fine even if a
   schedule could race them, and flags lock-free but ordered idioms
   (spawn hand-off and the like are forgiven via the Exclusive state,
   but e.g. flag-based hand-off is not). It complements [Hb]: warnings
   are hints, not races. *)

type state = Virgin | Exclusive of int | Shared | Shared_modified

type entry = {
  mutable st : state;
  mutable cand : string list option;  (* sorted; None until cross-thread *)
  mutable last : Report.access option;
  mutable warned : bool;
}

type t = {
  vars : (Conair_runtime.Event.addr, entry) Hashtbl.t;
  mutable warnings : Report.warning list;  (* newest first *)
}

let create () = { vars = Hashtbl.create 64; warnings = [] }

let inter a b = List.filter (fun l -> List.mem l b) a

let entry_of t addr =
  match Hashtbl.find_opt t.vars addr with
  | Some e -> e
  | None ->
      let e = { st = Virgin; cand = None; last = None; warned = false } in
      Hashtbl.replace t.vars addr e;
      e

let warn t e (acc : Report.access) =
  if not e.warned then begin
    e.warned <- true;
    t.warnings <-
      { Report.w_addr = acc.Report.ac_addr; w_prev = e.last; w_curr = acc }
      :: t.warnings
  end

let on_access t (acc : Report.access) =
  let e = entry_of t acc.Report.ac_addr in
  let tid = acc.Report.ac_tid in
  let locks = acc.Report.ac_locks in
  (match (e.st, acc.Report.ac_kind) with
  | Virgin, _ -> e.st <- Exclusive tid
  | Exclusive t0, _ when t0 = tid -> ()
  | Exclusive _, kind ->
      (* first cross-thread access: candidate set starts here. *)
      e.cand <- Some locks;
      e.st <-
        (match kind with
        | Conair_runtime.Event.Read -> Shared
        | Conair_runtime.Event.Write -> Shared_modified);
      if e.st = Shared_modified && locks = [] then warn t e acc
  | Shared, kind ->
      let c = match e.cand with Some c -> inter c locks | None -> locks in
      e.cand <- Some c;
      if kind = Conair_runtime.Event.Write then begin
        e.st <- Shared_modified;
        if c = [] then warn t e acc
      end
  | Shared_modified, _ ->
      let c = match e.cand with Some c -> inter c locks | None -> locks in
      e.cand <- Some c;
      if c = [] then warn t e acc);
  e.last <- Some acc

let warnings t = List.rev t.warnings
