(* Static well-formedness checks for Mir programs.

   [check] returns the list of problems found (empty = well-formed); it is
   run by tests on every benchmark program and on every hardened program, so
   the ConAir transformation is itself validated. *)

module Label = Ident.Label
module Fname = Ident.Fname
module Reg = Ident.Reg

type problem = { where : string; what : string }

let pp_problem ppf p = Format.fprintf ppf "%s: %s" p.where p.what

let problem acc where fmt =
  Format.kasprintf (fun what -> { where; what } :: acc) fmt

let check_func (p : Program.t) acc (f : Func.t) =
  let where = Format.asprintf "%a" Fname.pp f.name in
  let labels =
    List.fold_left
      (fun s (b : Block.t) -> Label.Set.add b.label s)
      Label.Set.empty f.blocks
  in
  let acc =
    if List.length f.blocks <> Label.Set.cardinal labels then
      problem acc where "duplicate block labels"
    else acc
  in
  let acc =
    if Label.Set.mem f.entry labels then acc
    else problem acc where "entry label %a missing" Label.pp f.entry
  in
  let check_target acc b l =
    if Label.Set.mem l labels then acc
    else
      problem acc where "block %a jumps to unknown label %a" Label.pp
        b.Block.label Label.pp l
  in
  let check_callee acc b (name : Fname.t) =
    match Program.find_func p name with
    | Some _ -> acc
    | None ->
        problem acc where "block %a calls unknown function %a" Label.pp
          b.Block.label Fname.pp name
  in
  let acc =
    List.fold_left
      (fun acc (b : Block.t) ->
        let acc =
          Array.fold_left
            (fun acc (i : Instr.t) ->
              match i.op with
              | Instr.Call (_, callee, args) | Instr.Spawn (_, callee, args)
                -> (
                  let acc = check_callee acc b callee in
                  match Program.find_func p callee with
                  | Some g when List.length g.params <> List.length args ->
                      problem acc where
                        "call to %a passes %d args, expected %d" Fname.pp
                        callee (List.length args) (List.length g.params)
                  | Some _ | None -> acc)
              | _ -> acc)
            acc b.instrs
        in
        List.fold_left (fun acc l -> check_target acc b l) acc
          (Block.successors b))
      acc f.blocks
  in
  (* Unreachable blocks are suspicious in hand-written programs and would
     silently hide bugs in CFG surgery. *)
  let reach = Cfg.reachable (Cfg.of_func f) in
  List.fold_left
    (fun acc (b : Block.t) ->
      if Label.Set.mem b.label reach then acc
      else problem acc where "block %a is unreachable" Label.pp b.label)
    acc f.blocks

let check_unique_iids (p : Program.t) acc =
  let seen = Hashtbl.create 256 in
  let dup = ref [] in
  Program.iter_funcs p (fun f ->
      Func.iter_instrs f (fun _ (i : Instr.t) ->
          if Hashtbl.mem seen i.iid then dup := i.iid :: !dup
          else Hashtbl.add seen i.iid ()));
  List.fold_left
    (fun acc iid -> problem acc "program" "duplicate instruction id %d" iid)
    acc !dup

let check (p : Program.t) =
  let acc = [] in
  let acc =
    match Program.find_func p p.main with
    | Some f when f.params <> [] ->
        problem acc "program" "main function %a must take no parameters"
          Fname.pp p.main
    | Some _ -> acc
    | None -> problem acc "program" "missing main function %a" Fname.pp p.main
  in
  let acc = check_unique_iids p acc in
  List.rev (List.fold_left (check_func p) acc p.funcs)
