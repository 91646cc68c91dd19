(* Parser for the Mir concrete syntax produced by {!Emit}.

   Hand-written lexer + recursive-descent parser; errors carry line
   numbers. [Parse.program (Emit.program p)] reconstructs [p] up to
   instruction ids (ids are reassigned densely in reading order), which is
   property-tested as a round-trip through a second serialization. *)

module Reg = Ident.Reg
module Label = Ident.Label
module Fname = Ident.Fname

type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

exception Error of error

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | IDENT of string  (** bare identifier or keyword *)
  | REG of string  (** %name *)
  | GLOBAL of string  (** $name *)
  | STACK of string  (** ~name *)
  | FNAME of string  (** @name *)
  | MUTEX of string  (** &name *)
  | INT of int
  | STRING of string
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | EQUALS
  | COLON
  | EOF

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | REG s -> Printf.sprintf "register %%%s" s
  | GLOBAL s -> Printf.sprintf "global $%s" s
  | STACK s -> Printf.sprintf "stack slot ~%s" s
  | FNAME s -> Printf.sprintf "function @%s" s
  | MUTEX s -> Printf.sprintf "mutex &%s" s
  | INT n -> Printf.sprintf "integer %d" n
  | STRING s -> Printf.sprintf "string %S" s
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | COMMA -> "','"
  | EQUALS -> "'='"
  | COLON -> "':'"
  | EOF -> "end of input"

type lexer = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable tok : token;  (** current token *)
  mutable tok_line : int;
}

let fail_at line fmt =
  Format.kasprintf (fun message -> raise (Error { line; message })) fmt

let is_digit c = c >= '0' && c <= '9'

(* A decimal literal, sign included so [min_int] is writable; one that
   does not fit an OCaml int is a parse error, not an exception. *)
let lex_int lx ~sign =
  let start = lx.pos in
  while lx.pos < String.length lx.src && is_digit lx.src.[lx.pos] do
    lx.pos <- lx.pos + 1
  done;
  let digits = String.sub lx.src start (lx.pos - start) in
  match int_of_string_opt (sign ^ digits) with
  | Some n -> n
  | None -> fail_at lx.line "integer literal %s%s is out of range" sign digits

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

let lex_ident lx =
  let start = lx.pos in
  while lx.pos < String.length lx.src && is_ident_char lx.src.[lx.pos] do
    lx.pos <- lx.pos + 1
  done;
  if lx.pos = start then fail_at lx.line "expected an identifier";
  String.sub lx.src start (lx.pos - start)

let lex_string lx =
  (* lx.pos points at the opening quote *)
  let buf = Buffer.create 16 in
  lx.pos <- lx.pos + 1;
  let rec go () =
    if lx.pos >= String.length lx.src then
      fail_at lx.line "unterminated string literal"
    else
      match lx.src.[lx.pos] with
      | '"' -> lx.pos <- lx.pos + 1
      | '\\' ->
          if lx.pos + 1 >= String.length lx.src then
            fail_at lx.line "unterminated escape";
          (match lx.src.[lx.pos + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | '\\' -> Buffer.add_char buf '\\'
          | '"' -> Buffer.add_char buf '"'
          | c -> fail_at lx.line "unknown escape '\\%c'" c);
          lx.pos <- lx.pos + 2;
          go ()
      | '\n' -> fail_at lx.line "newline in string literal"
      | c ->
          Buffer.add_char buf c;
          lx.pos <- lx.pos + 1;
          go ()
  in
  go ();
  Buffer.contents buf

let rec next_token lx =
  if lx.pos >= String.length lx.src then EOF
  else
    match lx.src.[lx.pos] with
    | ' ' | '\t' | '\r' ->
        lx.pos <- lx.pos + 1;
        next_token lx
    | '\n' ->
        lx.pos <- lx.pos + 1;
        lx.line <- lx.line + 1;
        next_token lx
    | '#' ->
        (* comment to end of line *)
        while lx.pos < String.length lx.src && lx.src.[lx.pos] <> '\n' do
          lx.pos <- lx.pos + 1
        done;
        next_token lx
    | '(' -> lx.pos <- lx.pos + 1; LPAREN
    | ')' -> lx.pos <- lx.pos + 1; RPAREN
    | '{' -> lx.pos <- lx.pos + 1; LBRACE
    | '}' -> lx.pos <- lx.pos + 1; RBRACE
    | '[' -> lx.pos <- lx.pos + 1; LBRACKET
    | ']' -> lx.pos <- lx.pos + 1; RBRACKET
    | ',' -> lx.pos <- lx.pos + 1; COMMA
    | '=' -> lx.pos <- lx.pos + 1; EQUALS
    | ':' -> lx.pos <- lx.pos + 1; COLON
    | '%' -> lx.pos <- lx.pos + 1; REG (lex_ident lx)
    | '$' -> lx.pos <- lx.pos + 1; GLOBAL (lex_ident lx)
    | '~' -> lx.pos <- lx.pos + 1; STACK (lex_ident lx)
    | '@' -> lx.pos <- lx.pos + 1; FNAME (lex_ident lx)
    | '&' -> lx.pos <- lx.pos + 1; MUTEX (lex_ident lx)
    | '"' -> STRING (lex_string lx)
    | '-' ->
        lx.pos <- lx.pos + 1;
        if lx.pos < String.length lx.src && is_digit lx.src.[lx.pos] then
          INT (lex_int lx ~sign:"-")
        else (
          match next_token lx with
          | INT n -> INT (-n)
          | t -> fail_at lx.line "expected a number after '-', got %s"
                   (token_to_string t))
    | c when is_digit c -> INT (lex_int lx ~sign:"")
    | c when is_ident_char c -> IDENT (lex_ident lx)
    | c -> fail_at lx.line "unexpected character '%c'" c

let advance lx =
  lx.tok_line <- lx.line;
  lx.tok <- next_token lx

let init src =
  let lx = { src; pos = 0; line = 1; tok = EOF; tok_line = 1 } in
  advance lx;
  lx

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let expect lx tok =
  if lx.tok = tok then advance lx
  else
    fail_at lx.tok_line "expected %s, got %s" (token_to_string tok)
      (token_to_string lx.tok)

let ident lx =
  match lx.tok with
  | IDENT s ->
      advance lx;
      s
  | t -> fail_at lx.tok_line "expected an identifier, got %s" (token_to_string t)

let keyword lx kw =
  match lx.tok with
  | IDENT s when s = kw -> advance lx
  | t ->
      fail_at lx.tok_line "expected keyword %S, got %s" kw (token_to_string t)

let reg lx =
  match lx.tok with
  | REG s ->
      advance lx;
      Reg.v s
  | t -> fail_at lx.tok_line "expected a register, got %s" (token_to_string t)

let int_lit lx =
  match lx.tok with
  | INT n ->
      advance lx;
      n
  | t -> fail_at lx.tok_line "expected an integer, got %s" (token_to_string t)

let string_lit lx =
  match lx.tok with
  | STRING s ->
      advance lx;
      s
  | t -> fail_at lx.tok_line "expected a string, got %s" (token_to_string t)

let fname lx =
  match lx.tok with
  | FNAME s ->
      advance lx;
      Fname.v s
  | t -> fail_at lx.tok_line "expected @function, got %s" (token_to_string t)

let value lx : Value.t =
  match lx.tok with
  | INT n ->
      advance lx;
      Value.Int n
  | IDENT "true" ->
      advance lx;
      Value.Bool true
  | IDENT "false" ->
      advance lx;
      Value.Bool false
  | IDENT "null" ->
      advance lx;
      Value.Null
  | STRING s ->
      advance lx;
      Value.Str s
  | MUTEX m ->
      advance lx;
      Value.Mutex m
  | t -> fail_at lx.tok_line "expected a value, got %s" (token_to_string t)

let operand lx : Instr.operand =
  match lx.tok with
  | REG s ->
      advance lx;
      Instr.Reg (Reg.v s)
  | _ -> Instr.Const (value lx)

let mem lx : Instr.mem =
  match lx.tok with
  | GLOBAL g ->
      advance lx;
      Instr.Global g
  | STACK s ->
      advance lx;
      Instr.Stack s
  | t ->
      fail_at lx.tok_line "expected $global or ~slot, got %s"
        (token_to_string t)

let binop_of_name = function
  | "add" -> Some Instr.Add
  | "sub" -> Some Instr.Sub
  | "mul" -> Some Instr.Mul
  | "div" -> Some Instr.Div
  | "mod" -> Some Instr.Mod
  | "eq" -> Some Instr.Eq
  | "ne" -> Some Instr.Ne
  | "lt" -> Some Instr.Lt
  | "le" -> Some Instr.Le
  | "gt" -> Some Instr.Gt
  | "ge" -> Some Instr.Ge
  | "and" -> Some Instr.And
  | "or" -> Some Instr.Or
  | _ -> None

let unop_of_name = function
  | "not" -> Some Instr.Not
  | "neg" -> Some Instr.Neg
  | "is_null" -> Some Instr.Is_null
  | _ -> None

let kind_of_name lx = function
  | "assert" -> Instr.Assert_fail
  | "wrong_output" -> Instr.Wrong_output
  | "segfault" -> Instr.Seg_fault
  | "deadlock" -> Instr.Deadlock
  | s -> fail_at lx.tok_line "unknown failure kind %S" s

let args lx =
  expect lx LPAREN;
  if lx.tok = RPAREN then begin
    advance lx;
    []
  end
  else begin
    let rec go acc =
      let a = operand lx in
      if lx.tok = COMMA then begin
        advance lx;
        go (a :: acc)
      end
      else begin
        expect lx RPAREN;
        List.rev (a :: acc)
      end
    in
    go []
  end

(* [%r = <rhs>] — everything that can follow the '='. *)
let assignment lx (dst : Reg.t) : Instr.op =
  let kw = ident lx in
  match binop_of_name kw with
  | Some b ->
      let x = operand lx in
      expect lx COMMA;
      let y = operand lx in
      Instr.Binop (dst, b, x, y)
  | None -> (
      match unop_of_name kw with
      | Some u -> Instr.Unop (dst, u, operand lx)
      | None -> (
          match kw with
          | "move" -> Instr.Move (dst, operand lx)
          | "load" -> (
              match lx.tok with
              | GLOBAL _ | STACK _ -> Instr.Load (dst, mem lx)
              | _ ->
                  let p = operand lx in
                  expect lx LBRACKET;
                  let i = operand lx in
                  expect lx RBRACKET;
                  Instr.Load_idx (dst, p, i))
          | "alloc" -> Instr.Alloc (dst, operand lx)
          | "call" ->
              let f = fname lx in
              Instr.Call (Some dst, f, args lx)
          | "spawn" ->
              let f = fname lx in
              Instr.Spawn (dst, f, args lx)
          | "ptr_guard" ->
              let p = operand lx in
              expect lx LBRACKET;
              let i = operand lx in
              expect lx RBRACKET;
              Instr.Ptr_guard (dst, p, i)
          | "timedlock" ->
              let m = operand lx in
              expect lx COMMA;
              Instr.Timed_lock (dst, m, int_lit lx)
          | "timedwait" ->
              let e = ident lx in
              expect lx COMMA;
              Instr.Timed_wait (dst, e, int_lit lx)
          | kw -> fail_at lx.tok_line "unknown instruction %S" kw))

(* An instruction or terminator; [`Instr op] or [`Term t]. *)
let statement lx =
  match lx.tok with
  | REG r ->
      advance lx;
      expect lx EQUALS;
      `Instr (assignment lx (Reg.v r))
  | IDENT kw -> (
      advance lx;
      match kw with
      | "store" -> (
          match lx.tok with
          | GLOBAL _ | STACK _ ->
              let m = mem lx in
              expect lx COMMA;
              `Instr (Instr.Store (m, operand lx))
          | _ ->
              let p = operand lx in
              expect lx LBRACKET;
              let i = operand lx in
              expect lx RBRACKET;
              expect lx COMMA;
              `Instr (Instr.Store_idx (p, i, operand lx)))
      | "free" -> `Instr (Instr.Free (operand lx))
      | "lock" -> `Instr (Instr.Lock (operand lx))
      | "unlock" -> `Instr (Instr.Unlock (operand lx))
      | "assert" | "oracle" ->
          let cond = operand lx in
          expect lx COMMA;
          let msg = string_lit lx in
          `Instr (Instr.Assert { cond; msg; oracle = kw = "oracle" })
      | "output" ->
          let fmt = string_lit lx in
          let rec go acc =
            if lx.tok = COMMA then begin
              advance lx;
              go (operand lx :: acc)
            end
            else List.rev acc
          in
          `Instr (Instr.Output { fmt; args = go [] })
      | "call" ->
          let f = fname lx in
          `Instr (Instr.Call (None, f, args lx))
      | "join" -> `Instr (Instr.Join (operand lx))
      | "sleep" -> `Instr (Instr.Sleep (int_lit lx))
      | "nop" -> `Instr Instr.Nop
      | "wait" -> `Instr (Instr.Wait (ident lx))
      | "notify" -> `Instr (Instr.Notify (ident lx))
      | "checkpoint" -> `Instr (Instr.Checkpoint (int_lit lx))
      | "try_recover" ->
          let site_id = int_lit lx in
          expect lx COMMA;
          let kind = kind_of_name lx (ident lx) in
          `Instr (Instr.Try_recover { site_id; kind })
      | "fail_stop" ->
          let site_id = int_lit lx in
          expect lx COMMA;
          let kind = kind_of_name lx (ident lx) in
          expect lx COMMA;
          let msg = string_lit lx in
          `Instr (Instr.Fail_stop { site_id; kind; msg })
      | "jump" -> `Term (Instr.Jump (Label.v (ident lx)))
      | "branch" ->
          let c = operand lx in
          expect lx COMMA;
          let t = ident lx in
          expect lx COMMA;
          let f = ident lx in
          `Term (Instr.Branch (c, Label.v t, Label.v f))
      | "return" -> (
          (* optional operand: absent iff the next token starts a new
             statement/label/close-brace *)
          match lx.tok with
          | RBRACE | IDENT _ | REG _ -> (
              (* "IDENT" here could be a label or keyword of the next
                 statement — a bare return is only followed by those; an
                 operand would be a value token *)
              match lx.tok with
              | IDENT ("true" | "false" | "null") ->
                  `Term (Instr.Return (Some (operand lx)))
              | REG _ -> `Term (Instr.Return (Some (operand lx)))
              | _ -> `Term (Instr.Return None))
          | INT _ | STRING _ | MUTEX _ ->
              `Term (Instr.Return (Some (operand lx)))
          | _ -> `Term (Instr.Return None))
      | "exit" -> `Term Instr.Exit
      | kw -> fail_at lx.tok_line "unknown statement %S" kw)
  | t ->
      fail_at lx.tok_line "expected an instruction, got %s" (token_to_string t)

(* One block: "label: statements... terminator". *)
let block lx ~fresh =
  let name = ident lx in
  expect lx COLON;
  let instrs = ref [] in
  let rec go () =
    match statement lx with
    | `Instr op ->
        instrs := { Instr.iid = fresh (); op } :: !instrs;
        go ()
    | `Term t -> t
  in
  let term = go () in
  {
    Block.label = Label.v name;
    instrs = Array.of_list (List.rev !instrs);
    term;
  }

let func lx ~fresh =
  keyword lx "func";
  let name = fname lx in
  expect lx LPAREN;
  let params =
    if lx.tok = RPAREN then []
    else
      let rec go acc =
        let r = reg lx in
        if lx.tok = COMMA then begin
          advance lx;
          go (r :: acc)
        end
        else List.rev (r :: acc)
      in
      go []
  in
  expect lx RPAREN;
  expect lx LBRACE;
  let blocks = ref [] in
  while lx.tok <> RBRACE do
    blocks := block lx ~fresh :: !blocks
  done;
  expect lx RBRACE;
  let blocks = List.rev !blocks in
  match blocks with
  | [] -> fail_at lx.tok_line "function @%s has no blocks" (Fname.name name)
  | first :: _ ->
      Func.v ~name ~params ~entry:first.Block.label ~blocks

(** Parse a whole program from its concrete syntax. *)
let program_exn (src : string) : Program.t =
  let lx = init src in
  let globals = ref [] in
  let mutexes = ref [] in
  let main = ref None in
  let funcs = ref [] in
  let counter = ref 0 in
  let fresh () =
    let n = !counter in
    incr counter;
    n
  in
  let rec go () =
    match lx.tok with
    | EOF -> ()
    | IDENT "global" ->
        advance lx;
        let name = ident lx in
        expect lx EQUALS;
        globals := (name, value lx) :: !globals;
        go ()
    | IDENT "mutex" ->
        advance lx;
        mutexes := ident lx :: !mutexes;
        go ()
    | IDENT "main" ->
        advance lx;
        main := Some (fname lx);
        go ()
    | IDENT "func" ->
        funcs := func lx ~fresh :: !funcs;
        go ()
    | t ->
        fail_at lx.tok_line
          "expected global/mutex/main/func, got %s" (token_to_string t)
  in
  go ();
  match !main with
  | None -> fail_at lx.tok_line "missing 'main @function' declaration"
  | Some main ->
      Program.v ~globals:(List.rev !globals) ~mutexes:(List.rev !mutexes)
        ~funcs:(List.rev !funcs) ~main ()

let program src =
  match program_exn src with
  | p -> Ok p
  | exception Error e -> Error e
