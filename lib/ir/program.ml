(* A whole Mir program: global variable initializers, named mutexes, the
   function table, and the entry function run by the main thread. *)

module Fname = Ident.Fname

type t = {
  globals : (string * Value.t) list;  (** initial values of globals *)
  mutexes : string list;  (** statically-declared named locks *)
  funcs : Func.t list;
  main : Fname.t;
  stamp : int;  (** unique per [v]; [{ p with ... }] copies share it *)
}

let stamps = Atomic.make 0

let v ?(globals = []) ?(mutexes = []) ~funcs ~main () =
  { globals; mutexes; funcs; main; stamp = Atomic.fetch_and_add stamps 1 }

let find_func p name =
  List.find_opt (fun (f : Func.t) -> Fname.equal f.name name) p.funcs

let func_exn p name =
  match find_func p name with
  | Some f -> f
  | None ->
      invalid_arg
        (Format.asprintf "Program.func_exn: no function %a" Fname.pp name)

let iter_funcs p g = List.iter g p.funcs

(** Total static instruction count, a proxy for program size. *)
let instr_count p =
  List.fold_left (fun n f -> n + Func.instr_count f) 0 p.funcs

(** Locate an instruction by id anywhere in the program. *)
let find_instr p iid =
  List.find_map
    (fun f ->
      Option.map (fun (b, i) -> (f, b, i)) (Func.find_instr f iid))
    p.funcs

(** The largest instruction id in use; fresh ids for transformation-inserted
    instructions start above this. *)
let max_iid p =
  List.fold_left
    (fun acc f ->
      List.fold_left
        (fun acc (i : Instr.t) -> max acc i.iid)
        acc (Func.instrs f))
    (-1) p.funcs

let pp ppf p =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (g, v) -> Format.fprintf ppf "global $%s = %a@ " g Value.pp v)
    p.globals;
  List.iter (fun m -> Format.fprintf ppf "mutex %s@ " m) p.mutexes;
  Format.fprintf ppf "main = %a@ " Fname.pp p.main;
  List.iter (fun f -> Format.fprintf ppf "%a@ " Func.pp f) p.funcs;
  Format.fprintf ppf "@]"
