(* Race/deadlock findings, and their JSON form.

   Everything here is deterministic given the event stream: accesses are
   recorded in arrival order, cycles are canonicalized (minimum lock
   first) and sorted, and the JSON encoder visits fields in a fixed
   order — so reports are byte-identical across runs with the same seed
   and across the two engines. *)

open Conair_runtime
module Json = Conair_obs.Json

type access = {
  ac_step : int;
  ac_tid : int;
  ac_iid : int;
  ac_stack : string list;  (* innermost first *)
  ac_block : string;
  ac_kind : Event.kind;
  ac_addr : Event.addr;
  ac_locks : string list;  (* sorted *)
}

type race = { rc_addr : Event.addr; rc_prev : access; rc_curr : access }

type warning = {
  w_addr : Event.addr;
  w_prev : access option;  (* last access under a different lockset *)
  w_curr : access;
}

type edge = {
  e_from : string;
  e_to : string;
  e_tid : int;
  e_iid : int;
  e_step : int;
  e_req : bool;  (* witnessed as a blocked request, not an acquisition *)
}

type cycle = { cy_locks : string list; cy_actual : bool; cy_edges : edge list }
type t = { races : race list; warnings : warning list; cycles : cycle list }

let empty = { races = []; warnings = []; cycles = [] }

let addr_string : Event.addr -> string = function
  | A_global g -> "global:" ^ g
  | A_slot (tid, s) -> Printf.sprintf "slot:%d:%s" tid s
  | A_cell (b, i) -> Printf.sprintf "cell:%d:%d" b i
  | A_block b -> Printf.sprintf "block:%d" b

(* Canonical identity of a lock-order cycle: its lock set, which the
   detector already canonicalizes (minimum lock first). Actual and
   potential findings share a key deliberately — a fix that demotes an
   actual deadlock to a still-possible potential one has not removed the
   inversion. *)
let cycle_key c = String.concat "->" c.cy_locks

let kind_string (prev : Event.kind) (curr : Event.kind) =
  match (prev, curr) with
  | Read, Write -> "read-write"
  | Write, Write -> "write-write"
  | Write, Read -> "write-read"
  | Read, Read -> "read-read"

let access_json a =
  Json.Obj
    [
      ("step", Json.Int a.ac_step);
      ("tid", Json.Int a.ac_tid);
      ("iid", Json.Int a.ac_iid);
      ("kind", Json.String (match a.ac_kind with Read -> "read" | Write -> "write"));
      ("block", Json.String a.ac_block);
      ("stack", Json.List (List.map (fun s -> Json.String s) a.ac_stack));
      ("locks", Json.List (List.map (fun s -> Json.String s) a.ac_locks));
    ]

let race_json r =
  Json.Obj
    [
      ("addr", Json.String (addr_string r.rc_addr));
      ("kind", Json.String (kind_string r.rc_prev.ac_kind r.rc_curr.ac_kind));
      ("prev", access_json r.rc_prev);
      ("curr", access_json r.rc_curr);
    ]

let warning_json w =
  Json.Obj
    [
      ("addr", Json.String (addr_string w.w_addr));
      ( "prev",
        match w.w_prev with None -> Json.Null | Some a -> access_json a );
      ("curr", access_json w.w_curr);
    ]

let edge_json e =
  Json.Obj
    [
      ("from", Json.String e.e_from);
      ("to", Json.String e.e_to);
      ("tid", Json.Int e.e_tid);
      ("iid", Json.Int e.e_iid);
      ("step", Json.Int e.e_step);
      ("request", Json.Bool e.e_req);
    ]

let cycle_json c =
  Json.Obj
    [
      ("locks", Json.List (List.map (fun s -> Json.String s) c.cy_locks));
      ("actual", Json.Bool c.cy_actual);
      ("edges", Json.List (List.map edge_json c.cy_edges));
    ]

let to_json t =
  Json.Obj
    [
      ("type", Json.String "races");
      ("races", Json.List (List.map race_json t.races));
      ("lockset_warnings", Json.List (List.map warning_json t.warnings));
      ("deadlock_cycles", Json.List (List.map cycle_json t.cycles));
      ( "summary",
        Json.Obj
          [
            ("races", Json.Int (List.length t.races));
            ("lockset_warnings", Json.Int (List.length t.warnings));
            ( "actual_deadlocks",
              Json.Int
                (List.length (List.filter (fun c -> c.cy_actual) t.cycles)) );
            ( "potential_deadlocks",
              Json.Int
                (List.length (List.filter (fun c -> not c.cy_actual) t.cycles))
            );
          ] );
    ]

let pp_access ppf a =
  Fmt.pf ppf "step %d tid %d iid %d in %s [%s] locks {%s}" a.ac_step a.ac_tid
    a.ac_iid
    (match a.ac_stack with f :: _ -> f | [] -> "?")
    a.ac_block
    (String.concat "," a.ac_locks)

let pp ppf t =
  List.iter
    (fun r ->
      Fmt.pf ppf "race %s on %s@.  prev: %a@.  curr: %a@."
        (kind_string r.rc_prev.ac_kind r.rc_curr.ac_kind)
        (addr_string r.rc_addr) pp_access r.rc_prev pp_access r.rc_curr)
    t.races;
  List.iter
    (fun w ->
      Fmt.pf ppf "lockset warning on %s@.  curr: %a@." (addr_string w.w_addr)
        pp_access w.w_curr)
    t.warnings;
  List.iter
    (fun c ->
      Fmt.pf ppf "%s deadlock cycle: %s@."
        (if c.cy_actual then "actual" else "potential")
        (String.concat " -> " (c.cy_locks @ [ List.hd c.cy_locks ])))
    t.cycles
