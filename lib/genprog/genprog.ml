(* Random-program generators for the property-based tests.

   Programs are derived deterministically from small integer "spec" values,
   which keeps QCheck shrinking and printing trivial and failures
   reproducible. *)

open Conair.Ir
module B = Builder

(* ------------------------------------------------------------------ *)
(* Random straight-line arithmetic with a reference evaluator           *)
(* ------------------------------------------------------------------ *)

type arith_op = { code : int; a : int; b : int }
(* [code mod 5] selects the operator; [a]/[b] select either a previous
   register (by index) or a constant. *)

let arith_spec_gen =
  QCheck.Gen.(
    list_size (int_range 1 25)
      (map3
         (fun code a b -> { code; a; b })
         (int_range 0 4) (int_range 0 1000) (int_range 0 1000)))

let arith_spec_print ops =
  String.concat ";"
    (List.map (fun o -> Printf.sprintf "(%d,%d,%d)" o.code o.a o.b) ops)

(* Build the Mir program and compute the expected result with plain OCaml
   arithmetic at the same time. *)
let arith_program (ops : arith_op list) : Program.t * int =
  let expected = ref [] in
  (* values of r0, r1, ... *)
  let operand sel =
    let prior = List.length !expected in
    if prior > 0 && sel mod 2 = 0 then begin
      let i = sel / 2 mod prior in
      (B.reg (Printf.sprintf "r%d" i), List.nth (List.rev !expected) i)
    end
    else
      let c = (sel mod 19) + 1 in
      (B.int c, c)
  in
  let p =
    B.build ~main:"main" @@ fun b ->
    B.func b "main" ~params:[] @@ fun f ->
    B.label f "entry";
    List.iteri
      (fun i (o : arith_op) ->
        let dst = Printf.sprintf "r%d" i in
        let oa, va = operand o.a and ob, vb = operand o.b in
        let v =
          match o.code mod 5 with
          | 0 ->
              B.add f dst oa ob;
              va + vb
          | 1 ->
              B.sub f dst oa ob;
              va - vb
          | 2 ->
              B.mul f dst oa ob;
              va * vb
          | 3 ->
              (* divisor is a constant >= 1 by construction of [operand]
                 when we force the constant branch *)
              let c = (o.b mod 19) + 1 in
              B.binop f dst Instr.Div oa (B.int c);
              va / c
          | _ ->
              let c = (o.b mod 19) + 1 in
              B.binop f dst Instr.Mod oa (B.int c);
              (* the interpreter uses OCaml's [mod], so the reference is
                 literally the same operator *)
              va mod c
        in
        expected := v :: !expected)
      ops;
    let last = Printf.sprintf "r%d" (List.length ops - 1) in
    B.output f "%v" [ B.reg last ];
    B.exit_ f
  in
  (p, List.hd !expected)

(* ------------------------------------------------------------------ *)
(* Random CFGs for the region-walk safety property                      *)
(* ------------------------------------------------------------------ *)

type cfg_spec = {
  nblocks : int;  (** 1..5 *)
  block_ops : int list list;  (** op codes per block, 0..5 each *)
  terms : (int * int) list;  (** per block: branch targets *)
}

let cfg_spec_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun nblocks ->
    list_repeat nblocks (list_size (int_range 0 4) (int_range 0 9))
    >>= fun block_ops ->
    list_repeat nblocks (pair (int_range 0 9) (int_range 0 9))
    >>= fun terms -> return { nblocks; block_ops; terms })

let cfg_spec_print s =
  Printf.sprintf "{n=%d; ops=[%s]; terms=[%s]}" s.nblocks
    (String.concat " | "
       (List.map
          (fun ops -> String.concat "," (List.map string_of_int ops))
          s.block_ops))
    (String.concat ";"
       (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) s.terms))

(* Op codes: 0-3 safe, 4-6 destroying, 7 compensable, 8-9 safe reads.
   Every op writes a fresh register, so the program is trivially
   well-formed for the *static* analyses (these programs are never run). *)
let emit_op f fresh code =
  let dst = Printf.sprintf "t%d" fresh in
  match code with
  | 0 | 1 -> B.move f dst (B.int code)
  | 2 -> B.add f dst (B.int 1) (B.int 2)
  | 3 -> B.unop f dst Instr.Not (B.bool false)
  | 4 -> B.store f (Instr.Global "g") (B.int 1)
  | 5 -> B.store f (Instr.Stack "s") (B.int 2)
  | 6 -> B.output f "x" []
  | 7 -> B.alloc f dst (B.int 1)
  | 8 -> B.load f dst (Instr.Global "g")
  | _ -> B.load f dst (Instr.Stack "s")

(* The site lives at the end of the last block: [load g; assert]. *)
let cfg_program (s : cfg_spec) : Program.t =
  let fresh = ref 0 in
  let next () =
    incr fresh;
    !fresh
  in
  let bname i = Printf.sprintf "b%d" i in
  B.build ~main:"main" @@ fun b ->
  B.global b "g" (Value.Int 1);
  B.func b "main" ~params:[] @@ fun f ->
  List.iteri
    (fun i ops ->
      B.label f (bname i);
      List.iter (fun code -> emit_op f (next ()) code) ops;
      if i = s.nblocks - 1 then begin
        B.load f "site_v" (Instr.Global "g");
        B.assert_ f (B.reg "site_v") ~msg:"the site";
        B.exit_ f
      end
      else begin
        let t1, t2 = List.nth s.terms i in
        let target k = bname (k mod s.nblocks) in
        if (t1 + t2) mod 3 = 0 then B.jump f (target t1)
        else begin
          let c = Printf.sprintf "c%d" (next ()) in
          B.move f c (B.bool true);
          B.branch f (B.reg c) (target t1) (target t2)
        end
      end)
    s.block_ops

(* Enumerate instruction paths from the entry to [site_iid], visiting each
   block at most twice, capped. Returns the list of paths, each a list of
   instructions in execution order (site excluded). *)
let paths_to_site (func : Func.t) ~site_iid ~cap =
  let cfg = Cfg.of_func func in
  let results = ref [] in
  let count = ref 0 in
  let rec go label visits acc_rev =
    if !count >= cap then ()
    else
      let seen = try List.assoc label visits with Not_found -> 0 in
      if seen >= 2 then ()
      else
        let visits = (label, seen + 1) :: List.remove_assoc label visits in
        let block = Cfg.block cfg label in
        (* walk instructions until the site or the end of the block *)
        let n = Array.length block.instrs in
        let rec scan i acc_rev =
          if i >= n then `Fallthrough acc_rev
          else
            let instr = block.instrs.(i) in
            if instr.Instr.iid = site_iid then `Hit acc_rev
            else scan (i + 1) (instr :: acc_rev)
        in
        match scan 0 acc_rev with
        | `Hit acc_rev ->
            incr count;
            results := List.rev acc_rev :: !results
        | `Fallthrough acc_rev ->
            List.iter
              (fun succ -> go succ visits acc_rev)
              (Block.successors block)
  in
  go func.entry [] [];
  !results

(* ------------------------------------------------------------------ *)
(* Random racy reader/writer programs                                   *)
(* ------------------------------------------------------------------ *)

type racy_spec = {
  pre_ops : int list;  (** safe ops the reader runs before the racy read *)
  writer_delay : int;  (** 1..60 *)
  expected : int;  (** the value the writer publishes *)
}

let racy_spec_gen =
  QCheck.Gen.(
    map3
      (fun pre_ops writer_delay expected ->
        { pre_ops; writer_delay; expected = 1 + expected })
      (list_size (int_range 0 6) (int_range 0 3))
      (int_range 1 60) (int_range 0 99))

let racy_spec_print s =
  Printf.sprintf "{pre=[%s]; delay=%d; expected=%d}"
    (String.concat "," (List.map string_of_int s.pre_ops))
    s.writer_delay s.expected

let racy_program (s : racy_spec) : Program.t =
  B.build ~main:"main" @@ fun b ->
  B.global b "shared" (Value.Int 0);
  (B.func b "reader" ~params:[] @@ fun f ->
   B.label f "entry";
   List.iteri
     (fun i code ->
       let dst = Printf.sprintf "p%d" i in
       match code with
       | 0 -> B.move f dst (B.int i)
       | 1 -> B.add f dst (B.int i) (B.int 1)
       | 2 -> B.load f dst (Instr.Global "shared")
       | _ -> B.unop f dst Instr.Neg (B.int i))
     s.pre_ops;
   B.load f "v" (Instr.Global "shared");
   B.assert_ f ~oracle:true (B.reg "v") ~msg:"shared published";
   B.output f "%v" [ B.reg "v" ];
   B.ret f None);
  (B.func b "writer" ~params:[] @@ fun f ->
   B.label f "entry";
   B.sleep f s.writer_delay;
   B.store f (Instr.Global "shared") (B.int s.expected);
   B.ret f None);
  B.func b "main" ~params:[] @@ fun f ->
  B.label f "entry";
  B.spawn f "t1" "reader" [];
  B.spawn f "t2" "writer" [];
  B.join f (B.reg "t1");
  B.join f (B.reg "t2");
  B.exit_ f

(* ------------------------------------------------------------------ *)
(* Ring deadlocks and lost wakeups                                      *)
(* ------------------------------------------------------------------ *)

type ring_spec = { threads : int; hold_delay : int }

let ring_spec_gen =
  QCheck.Gen.(
    map2
      (fun threads hold_delay -> { threads; hold_delay })
      (int_range 2 5) (int_range 5 40))

let ring_spec_print s =
  Printf.sprintf "{threads=%d; hold=%d}" s.threads s.hold_delay

(* k threads, k locks; thread i takes lock i then lock (i+1) mod k. Hangs
   unhardened; every inner acquisition is ConAir-recoverable. *)
let ring_program (s : ring_spec) : Program.t =
  let k = s.threads in
  let lock_name i = Printf.sprintf "L%d" (i mod k) in
  B.build ~main:"main" @@ fun b ->
  for i = 0 to k - 1 do
    B.mutex b (lock_name i)
  done;
  for i = 0 to k - 1 do
    B.func b (Printf.sprintf "w%d" i) ~params:[] @@ fun f ->
    B.label f "entry";
    B.lock f (B.mutex_ref (lock_name i));
    B.sleep f s.hold_delay;
    B.lock f (B.mutex_ref (lock_name (i + 1)));
    B.unlock f (B.mutex_ref (lock_name (i + 1)));
    B.unlock f (B.mutex_ref (lock_name i));
    B.ret f None
  done;
  B.func b "main" ~params:[] @@ fun f ->
  B.label f "entry";
  for i = 0 to k - 1 do
    B.spawn f (Printf.sprintf "t%d" i) (Printf.sprintf "w%d" i) []
  done;
  for i = 0 to k - 1 do
    B.join f (B.reg (Printf.sprintf "t%d" i))
  done;
  B.exit_ f

type wakeup_spec = { check_gap : int; notify_at : int; payload : int }

let wakeup_spec_gen =
  QCheck.Gen.(
    map3
      (fun check_gap notify_at payload ->
        { check_gap; notify_at; payload = 1 + payload })
      (int_range 8 60) (int_range 2 6) (int_range 0 99))

let wakeup_spec_print s =
  Printf.sprintf "{gap=%d; notify_at=%d; payload=%d}" s.check_gap s.notify_at
    s.payload

(* Lost wakeup: the producer notifies inside the consumer's check-to-wait
   gap; unhardened the consumer hangs, hardened the timed wait recovers. *)
let wakeup_program (s : wakeup_spec) : Program.t =
  B.build ~main:"main" @@ fun b ->
  B.global b "ready" (Value.Int 0);
  (B.func b "consumer" ~params:[] @@ fun f ->
   B.label f "entry";
   B.load f "r" (Instr.Global "ready");
   B.branch f (B.reg "r") "go" "park";
   B.label f "park";
   B.sleep f s.check_gap;
   B.wait f "data";
   B.jump f "go";
   B.label f "go";
   B.load f "r2" (Instr.Global "ready");
   B.output f "%v" [ B.reg "r2" ];
   B.ret f None);
  (B.func b "producer" ~params:[] @@ fun f ->
   B.label f "entry";
   B.sleep f s.notify_at;
   B.store f (Instr.Global "ready") (B.int s.payload);
   B.notify f "data";
   B.ret f None);
  B.func b "main" ~params:[] @@ fun f ->
  B.label f "entry";
  B.spawn f "t1" "consumer" [];
  B.spawn f "t2" "producer" [];
  B.join f (B.reg "t1");
  B.join f (B.reg "t2");
  B.exit_ f

(* ------------------------------------------------------------------ *)
(* Random heap-operation sequences with a reference model               *)
(* ------------------------------------------------------------------ *)

type heap_op = H_alloc of int | H_free of int | H_store of int * int * int
             | H_load of int * int

let heap_ops_gen =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (frequency
         [
           (3, map (fun n -> H_alloc (1 + (n mod 5))) (int_range 0 100));
           (1, map (fun i -> H_free i) (int_range 0 10));
           (3, map3 (fun i o v -> H_store (i, o, v)) (int_range 0 10)
                (int_range 0 6) (int_range 0 99));
           (3, map (fun (i, o) -> H_load (i, o))
                (pair (int_range 0 10) (int_range 0 6)));
         ]))

let heap_ops_print ops =
  String.concat ";"
    (List.map
       (function
         | H_alloc n -> Printf.sprintf "alloc %d" n
         | H_free i -> Printf.sprintf "free #%d" i
         | H_store (i, o, v) -> Printf.sprintf "#%d[%d]:=%d" i o v
         | H_load (i, o) -> Printf.sprintf "#%d[%d]" i o)
       ops)

(* Two threads run the same sequence on blocks of their own, publishing
   each fresh block through the global [shared]; an op that names a
   block before its thread allocated any goes through [shared], so the
   threads touch each other's cells and may free what the other still
   uses (a use-after-free faults). Offsets stay inside the block. A
   stack slot sums every loaded value, printed at the end. The second
   thread starts a few steps late, so the first runs alone a while. *)
let heap_program (ops : heap_op list) : Program.t =
  B.build ~main:"main" @@ fun b ->
  B.global b "shared" Value.Null;
  for k = 0 to 1 do
    B.func b (Printf.sprintf "heap%d" k) ~params:[] @@ fun f ->
    B.label f "entry";
    if k > 0 then B.sleep f (3 * k);
    B.store f (Instr.Stack "acc") (B.int 0);
    let blocks = ref [] in
    (* [(register, size)] of this thread's blocks, oldest first *)
    let target j i =
      match !blocks with
      | [] ->
          let r = Printf.sprintf "s%d" j in
          B.load f r (Instr.Global "shared");
          (r, 1)
      | l -> List.nth l (i mod List.length l)
    in
    List.iteri
      (fun j op ->
        match op with
        | H_alloc n ->
            let r = Printf.sprintf "b%d" j in
            B.alloc f r (B.int n);
            B.store f (Instr.Global "shared") (B.reg r);
            blocks := !blocks @ [ (r, n) ]
        | H_free i -> B.free f (B.reg (fst (target j i)))
        | H_store (i, o, v) ->
            let r, n = target j i in
            B.store_idx f (B.reg r) (B.int (o mod n)) (B.int v)
        | H_load (i, o) ->
            let r, n = target j i in
            let v = Printf.sprintf "v%d" j and a = Printf.sprintf "a%d" j in
            B.load_idx f v (B.reg r) (B.int (o mod n));
            B.load f a (Instr.Stack "acc");
            B.add f a (B.reg a) (B.reg v);
            B.store f (Instr.Stack "acc") (B.reg a))
      ops;
    B.load f "sum" (Instr.Stack "acc");
    B.output f "%v" [ B.reg "sum" ];
    B.ret f None
  done;
  B.func b "main" ~params:[] @@ fun f ->
  B.label f "entry";
  B.spawn f "t0" "heap0" [];
  B.spawn f "t1" "heap1" [];
  B.join f (B.reg "t0");
  B.join f (B.reg "t1");
  B.exit_ f

(* ------------------------------------------------------------------ *)
(* Contended register-only loops                                       *)
(* ------------------------------------------------------------------ *)

type shared_op = S_load | S_store | S_output

type spinner_spec = {
  rounds : int;
  body : int list;
  fault_round : int option;
  shared : shared_op option;
}

let spinner_spec_gen =
  QCheck.Gen.(
    map4
      (fun rounds body fault_round shared ->
        { rounds; body; fault_round; shared })
      (int_range 1 40)
      (list_size (int_range 1 8) (int_range 0 8))
      (frequency [ (3, return None); (1, map Option.some (int_range 0 50)) ])
      (frequency
         [
           (2, return None);
           (1, return (Some S_load));
           (1, return (Some S_store));
           (1, return (Some S_output));
         ]))

let contended_spec_gen =
  QCheck.Gen.list_size (QCheck.Gen.int_range 2 4) spinner_spec_gen

let contended_spec_print specs =
  String.concat " | "
    (List.map
       (fun s ->
         Printf.sprintf "{rounds=%d; body=[%s]; fault=%s; shared=%s}" s.rounds
           (String.concat ";" (List.map string_of_int s.body))
           (match s.fault_round with
           | None -> "-"
           | Some r -> string_of_int r)
           (match s.shared with
           | None -> "-"
           | Some S_load -> "load"
           | Some S_store -> "store"
           | Some S_output -> "output"))
       specs)

(* Each thread runs its own loop: the round guard and the generated body
   are register-only blocks (moves, binops, unops, nops, and [8] a
   branch diamond), so every round is local code but for a stack-slot
   load ([5]), which ends a register-only run, and the optional
   per-round access to the global [shared] (or an output) in a block of
   its own. A faulting round divides by a register that reaches 0
   there. Afterwards the thread outputs its registers and adds them to
   [shared] under a lock: a site hardening guards. *)
let contended_program (specs : spinner_spec list) : Program.t =
  B.build ~main:"main" @@ fun b ->
  B.global b "shared" (Value.Int 0);
  B.mutex b "m";
  List.iteri
    (fun k (s : spinner_spec) ->
      B.func b (Printf.sprintf "spin%d" k) ~params:[ "n" ] @@ fun f ->
      B.label f "entry";
      B.store f (Instr.Stack "seed") (B.int (k + 3));
      B.move f "i" (B.int 0);
      B.move f "a" (B.int (k + 1));
      B.move f "b" (B.int 7);
      B.jump f "loop";
      B.label f "loop";
      B.lt f "c" (B.reg "i") (B.reg "n");
      B.branch f (B.reg "c") "body" "done";
      B.label f "body";
      List.iteri
        (fun j code ->
          match code with
          | 0 -> B.add f "a" (B.reg "a") (B.reg "b")
          | 1 -> B.mul f "b" (B.reg "b") (B.int 3)
          | 2 -> B.binop f "a" Instr.Mod (B.reg "a") (B.int 10007)
          | 3 -> B.sub f "b" (B.reg "b") (B.reg "i")
          | 4 -> B.unop f "a" Instr.Neg (B.reg "a")
          | 5 ->
              B.load f "t" (Instr.Stack "seed");
              B.add f "a" (B.reg "a") (B.reg "t")
          | 6 -> B.nop f
          | 7 -> B.binop f "b" Instr.Mod (B.reg "b") (B.int 101)
          | _ ->
              let lo = Printf.sprintf "lo%d" j
              and hi = Printf.sprintf "hi%d" j
              and join = Printf.sprintf "join%d" j in
              B.lt f "p" (B.reg "a") (B.reg "b");
              B.branch f (B.reg "p") lo hi;
              B.label f lo;
              B.add f "a" (B.reg "a") (B.int 1);
              B.jump f join;
              B.label f hi;
              B.add f "b" (B.reg "b") (B.int 1);
              B.jump f join;
              B.label f join)
        s.body;
      (match s.fault_round with
      | None -> ()
      | Some r ->
          B.sub f "d" (B.int r) (B.reg "i");
          B.binop f "z" Instr.Div (B.reg "a") (B.reg "d");
          B.add f "a" (B.reg "a") (B.reg "z"));
      B.add f "i" (B.reg "i") (B.int 1);
      (match s.shared with
      | None -> B.jump f "loop"
      | Some op ->
          B.jump f "share";
          B.label f "share";
          (match op with
          | S_load ->
              B.load f "g" (Instr.Global "shared");
              B.add f "b" (B.reg "b") (B.reg "g")
          | S_store -> B.store f (Instr.Global "shared") (B.reg "a")
          | S_output -> B.output f (Printf.sprintf "t%d %%v" k) [ B.reg "a" ]);
          B.jump f "loop");
      B.label f "done";
      B.output f (Printf.sprintf "t%d: %%v %%v" k) [ B.reg "a"; B.reg "b" ];
      B.lock f (B.mutex_ref "m");
      B.load f "s" (Instr.Global "shared");
      B.add f "s" (B.reg "s") (B.reg "a");
      B.store f (Instr.Global "shared") (B.reg "s");
      B.unlock f (B.mutex_ref "m");
      B.ret f None)
    specs;
  B.func b "main" ~params:[] @@ fun f ->
  B.label f "entry";
  List.iteri
    (fun k (s : spinner_spec) ->
      B.spawn f (Printf.sprintf "t%d" k) (Printf.sprintf "spin%d" k)
        [ B.int s.rounds ])
    specs;
  List.iteri
    (fun k _ -> B.join f (B.reg (Printf.sprintf "t%d" k)))
    specs;
  B.load f "s" (Instr.Global "shared");
  B.output f "shared %v" [ B.reg "s" ];
  B.exit_ f

(* ------------------------------------------------------------------ *)
(* Register-only loops over ints and bools                             *)
(* ------------------------------------------------------------------ *)

type init = I_int of int | I_bool of bool | I_undef | I_ptr | I_str

type rloop_spec = {
  rl_rounds : int;
  rl_init : init list;
  rl_body : int list;
}

let init_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun k -> I_int k) (int_range (-20) 20));
        (3, map (fun b -> I_bool b) bool);
        (1, return I_undef);
        (1, return I_ptr);
        (1, return I_str);
      ])

let rloop_spec_gen =
  QCheck.Gen.(
    map3
      (fun rl_rounds rl_init rl_body -> { rl_rounds; rl_init; rl_body })
      (int_range 0 12)
      (list_repeat 5 init_gen)
      (list_size (int_range 1 8) (int_range 0 16)))

let init_print = function
  | I_int k -> string_of_int k
  | I_bool b -> string_of_bool b
  | I_undef -> "undef"
  | I_ptr -> "ptr"
  | I_str -> "str"

let rloop_spec_print s =
  Printf.sprintf "{rounds=%d; init=[%s]; body=[%s]}" s.rl_rounds
    (String.concat ";" (List.map init_print s.rl_init))
    (String.concat ";" (List.map string_of_int s.rl_body))

(* One function: the registers [a], [b] (written as ints), [p], [q]
   (written as bools) and [n] start from the spec's values — a kind the
   loop does not write, undefined, a pointer or a string among them —
   then a loop of register-only blocks runs [rounds] times: int and
   bool arithmetic, comparisons of like and unlike kinds, branch
   diamonds on a bool and on a comparison, a register written on one
   path only, and a division by a constant. Afterwards a block that is
   not register-only outputs every register; a register the loop never
   defined faults there, as a value the loop cannot use faults inside
   it. *)
let rloop_program (s : rloop_spec) : Program.t =
  B.build ~main:"main" @@ fun b ->
  B.func b "main" ~params:[] @@ fun f ->
  B.label f "entry";
  List.iteri
    (fun k init ->
      let r = List.nth [ "a"; "b"; "p"; "q"; "n" ] k in
      match init with
      | I_int v -> B.move f r (B.int v)
      | I_bool v -> B.move f r (B.bool v)
      | I_undef -> ()
      | I_ptr -> B.alloc f r (B.int 1)
      | I_str -> B.move f r (B.str "s"))
    s.rl_init;
  B.move f "i" (B.int 0);
  B.jump f "loop";
  B.label f "loop";
  B.lt f "c" (B.reg "i") (B.int s.rl_rounds);
  B.branch f (B.reg "c") "body" "done";
  B.label f "body";
  List.iteri
    (fun j code ->
      let fresh l = Printf.sprintf "%s%d" l j in
      let diamond cond lo hi =
        B.branch f cond (fresh "lo") (fresh "hi");
        B.label f (fresh "lo");
        lo ();
        B.jump f (fresh "join");
        B.label f (fresh "hi");
        hi ();
        B.jump f (fresh "join");
        B.label f (fresh "join")
      in
      match code with
      | 0 -> B.add f "a" (B.reg "a") (B.reg "b")
      | 1 -> B.mul f "b" (B.reg "b") (B.int 3)
      | 2 -> B.binop f "a" Instr.Mod (B.reg "a") (B.int 101)
      | 3 -> B.sub f "b" (B.reg "b") (B.reg "i")
      | 4 -> B.unop f "a" Instr.Neg (B.reg "a")
      | 5 -> B.lt f "p" (B.reg "a") (B.reg "b")
      | 6 -> B.eq f "q" (B.reg "a") (B.reg "n")
      | 7 -> B.ne f "p" (B.reg "p") (B.reg "q")
      | 8 -> B.unop f "q" Instr.Not (B.reg "p")
      | 9 -> B.binop f "p" Instr.And (B.reg "p") (B.reg "q")
      | 10 -> B.binop f "q" Instr.Or (B.reg "p") (B.reg "c")
      | 11 -> B.binop f "b" Instr.Div (B.reg "b") (B.int (-7))
      | 12 ->
          diamond (B.reg "p")
            (fun () -> B.add f "a" (B.reg "a") (B.int 1))
            (fun () ->
              B.add f "b" (B.reg "b") (B.int 1);
              B.move f "w" (B.reg "i"))
      | 13 -> B.nop f
      | 14 -> B.move f "b" (B.reg "a")
      | 15 ->
          B.gt f "g" (B.reg "a") (B.reg "b");
          diamond (B.reg "g")
            (fun () -> B.sub f "a" (B.reg "a") (B.reg "b"))
            (fun () -> B.move f "q" (B.bool true))
      | _ -> B.eq f "q" (B.reg "a") (B.reg "p"))
    s.rl_body;
  B.add f "i" (B.reg "i") (B.int 1);
  B.jump f "loop";
  B.label f "done";
  B.output f "a=%v b=%v p=%v q=%v"
    [ B.reg "a"; B.reg "b"; B.reg "p"; B.reg "q" ];
  B.output f "w=%v" [ B.reg "w" ];
  B.exit_ f
