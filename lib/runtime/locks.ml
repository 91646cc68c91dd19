(* Named mutexes. Non-reentrant, like [pthread_mutex_t]: a thread that
   re-acquires a lock it already holds blocks itself forever. *)

type state = { mutable owner : int option; mutable acquisitions : int }
type t = (string, state) Hashtbl.t

let create names =
  let t = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace t n { owner = None; acquisitions = 0 }) names;
  t

(* Locks may also be created dynamically by first use; real programs
   initialize mutexes at run time too. *)
let get (t : t) name =
  match Hashtbl.find_opt t name with
  | Some s -> s
  | None ->
      let s = { owner = None; acquisitions = 0 } in
      Hashtbl.replace t name s;
      s

let is_free t name = (get t name).owner = None
let owner t name = (get t name).owner

(** Acquire [name] for [tid]; false if held (including by [tid] itself). *)
let try_acquire t name ~tid =
  let s = get t name in
  match s.owner with
  | None ->
      s.owner <- Some tid;
      s.acquisitions <- s.acquisitions + 1;
      true
  | Some _ -> false

(** Release [name]; error if [tid] is not the owner. *)
let release t name ~tid =
  let s = get t name in
  match s.owner with
  | Some o when o = tid ->
      s.owner <- None;
      Ok ()
  | Some _ -> Error "unlock of a lock held by another thread"
  | None -> Error "unlock of a lock that is not held"

(** Unconditional release used by the recovery compensation; true if the
    lock was indeed held by [tid]. *)
let force_release t name ~tid =
  let s = get t name in
  match s.owner with
  | Some o when o = tid ->
      s.owner <- None;
      true
  | Some _ | None -> false

(** The locks currently held by [tid], sorted by name — the lockset
    observers read through [Event.view]. Sorting makes the result
    independent of hash-table iteration order, so every engine reports
    byte-identical locksets. *)
let held_by (t : t) ~tid =
  Hashtbl.fold
    (fun name s acc -> if s.owner = Some tid then name :: acc else acc)
    t []
  |> List.sort compare

let snapshot (t : t) : t =
  let c = Hashtbl.create (Hashtbl.length t) in
  Hashtbl.iter
    (fun n s ->
      Hashtbl.replace c n { owner = s.owner; acquisitions = s.acquisitions })
    t;
  c
