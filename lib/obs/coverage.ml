(* Schedule-coverage observability: interleaving signatures, the
   collector of a run's observation stream, and the per-app coverage
   map.

   Determinism is the load-bearing property. The signature inputs — the
   recorder's decision/preemption arrays and the observation stream's
   access events — are byte-identical across the ref and block engines (the
   differential guarantee of test_fast_exec), so everything derived here
   is too: the same recorded run yields the same signature (and the
   same sweep fingerprint) no matter which engine executed it, which
   worker observed it, or how many times the coordinator restarted. All
   sets are rendered sorted. *)

open Conair_runtime
module SS = Set.Make (String)

let addr_string : Event.addr -> string = function
  | A_global g -> "global:" ^ g
  | A_slot (tid, s) -> Printf.sprintf "slot:%d:%s" tid s
  | A_cell (b, i) -> Printf.sprintf "cell:%d:%d" b i
  | A_block b -> Printf.sprintf "block:%d" b

let addr_class : Event.addr -> string = function
  | A_global _ -> "global"
  | A_slot _ -> "slot"
  | A_cell _ -> "cell"
  | A_block _ -> "block"

let kind_char : Event.kind -> char = function Read -> 'r' | Write -> 'w'

type observed = {
  ob_orders : (string * string) list;
  ob_points : string list;
  ob_edges : string list;
}

let string_list_of_json name j =
  match j with
  | Json.List l ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.String s :: rest -> go (s :: acc) rest
        | _ -> Error (name ^ " holds a non-string element")
      in
      go [] l
  | _ -> Error (name ^ " is not a list")

(* --- the collector ------------------------------------------------- *)

(* Per address we keep the access-order tally (a buffer of
   "t<tid><r|w>@<block>;" entries) and the last access for edge
   derivation. Tallies longer than [order_cap] bytes are folded into a
   rolling MD5 so pathological runs stay bounded while the rendering
   stays deterministic. *)

let order_cap = 2048

type per_addr = {
  mutable pa_folded : string option;  (* rolling digest of overflowed text *)
  pa_buf : Buffer.t;
  mutable pa_last : (int * string * Event.kind) option;
      (* (tid, block, kind) of the previous access *)
}

type collector = {
  addrs : (string, per_addr) Hashtbl.t;
  cl_classes : (string, string) Hashtbl.t;  (* addr -> class, for edges *)
  mutable cl_points : SS.t;
  mutable cl_edges : SS.t;
}

let collector () =
  {
    addrs = Hashtbl.create 64;
    cl_classes = Hashtbl.create 64;
    cl_points = SS.empty;
    cl_edges = SS.empty;
  }

let per_addr c addr cls =
  match Hashtbl.find_opt c.addrs addr with
  | Some pa -> pa
  | None ->
      let pa = { pa_folded = None; pa_buf = Buffer.create 32; pa_last = None } in
      Hashtbl.replace c.addrs addr pa;
      Hashtbl.replace c.cl_classes addr cls;
      pa

let fold_if_full pa =
  if Buffer.length pa.pa_buf > order_cap then begin
    let text =
      Option.value ~default:"" pa.pa_folded ^ Buffer.contents pa.pa_buf
    in
    pa.pa_folded <- Some (Digest.to_hex (Digest.string text));
    Buffer.clear pa.pa_buf
  end

let on_access c ~tid ~block ~(kind : Event.kind) ~addr =
  let a = addr_string addr in
  let cls = addr_class addr in
  let pa = per_addr c a cls in
  Buffer.add_string pa.pa_buf
    (Printf.sprintf "t%d%c@%s;" tid (kind_char kind) block);
  fold_if_full pa;
  c.cl_points <-
    SS.add (Printf.sprintf "%s/%c" block (kind_char kind)) c.cl_points;
  (match pa.pa_last with
  | Some (ptid, pblock, pkind) when ptid <> tid ->
      (* a cross-thread consecutive-access pair: the happens-before edge
         shape this schedule exercised on this address *)
      c.cl_edges <-
        SS.add
          (Printf.sprintf "%s:%c%c:%s->%s" cls (kind_char pkind)
             (kind_char kind) pblock block)
          c.cl_edges
  | _ -> ());
  pa.pa_last <- Some (tid, block, kind)

let probe (c : collector) =
  Event.observer ~sync:true ~accesses:true (fun (v : Event.view) ev ->
      match (ev : Event.t) with
      | Access { tid; kind; addr; _ } ->
          on_access c ~tid ~block:(v.block tid) ~kind ~addr
      | Acquire { lock; _ } -> c.cl_points <- SS.add ("lock:" ^ lock) c.cl_points
      | Request { lock; _ } -> c.cl_points <- SS.add ("wait:" ^ lock) c.cl_points
      | _ -> ())

let order_text pa =
  match pa.pa_folded with
  | None -> Buffer.contents pa.pa_buf
  | Some d -> "md5:" ^ Digest.to_hex (Digest.string (d ^ Buffer.contents pa.pa_buf))

let observed (c : collector) : observed =
  {
    ob_orders =
      Hashtbl.fold (fun a pa acc -> (a, order_text pa) :: acc) c.addrs []
      |> List.sort compare;
    ob_points = SS.elements c.cl_points;
    ob_edges = SS.elements c.cl_edges;
  }

(* --- the signature ------------------------------------------------- *)

(* [%d] of [n], written digit by digit: a signature may cover many
   thousands of preemptions, and a formatted string per integer would
   cost more than the run being signed. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

(* The signed text is
   "conair-sig-v1|c:<context>|n:<decisions>" then "|p:<ordinal>:<from>><to>"
   per preemption ([-1] where the ordinal's neighbour is out of range)
   then "|a:<addr>=<order>" per sorted order entry; test_campaign pins
   it with golden digests. *)
let signature ?(context = "") ?(orders = []) ~(decisions : int array)
    ~(preemptions : int array) () : string =
  let n = Array.length decisions in
  let b = Buffer.create 256 in
  Buffer.add_string b "conair-sig-v1|c:";
  Buffer.add_string b context;
  Buffer.add_string b "|n:";
  add_int b n;
  Array.iter
    (fun p ->
      Buffer.add_string b "|p:";
      add_int b p;
      Buffer.add_char b ':';
      add_int b (if p > 0 && p <= n then decisions.(p - 1) else -1);
      Buffer.add_char b '>';
      add_int b (if p >= 0 && p < n then decisions.(p) else -1))
    preemptions;
  List.iter
    (fun (a, t) ->
      Buffer.add_string b "|a:";
      Buffer.add_string b a;
      Buffer.add_char b '=';
      Buffer.add_string b t)
    (List.sort compare orders);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- the sweep fingerprint ------------------------------------------ *)

(* The signature's inputs for a run without access orders — each
   preemption's (ordinal, from, to) and the decision count — folded as
   the decisions arrive. A preemption's [from] is the previous
   decision's tid, and its ordinal the number of decisions before it,
   so the fold keeps those two and nothing else of the run. An engine
   may report a stretch of decisions as one counted [Decide] or as
   several (the block engine's windows, which [Machine.emit] may split):
   none but the first can be preemptive and the counts add, so every
   engine's report folds to the same key.

   Each value goes through splitmix64's finalizer, on OCaml's 63-bit
   ints: two xorshift-multiply rounds and a final xorshift, each a
   bijection (the multipliers are odd), so one value never collides
   with another and every input bit reaches every output bit. A
   polynomial hash would not do: Thue-Morse-shaped sequences collide
   under it. Two chains with different seeds and combining steps make
   the key's hash part 126 bits. *)
let[@inline] mix z =
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

let gamma = 0x1e3779b97f4a7c15

(* One value into each chain. *)
let[@inline] chain1 h v = mix (h lxor v)
let[@inline] chain2 h v = mix (h + v + gamma)

type fingerprint = {
  mutable fp_n : int;  (* decisions so far *)
  mutable fp_prev : int;  (* the last decision's tid, [-1] before the first *)
  mutable fp_h1 : int;
  mutable fp_h2 : int;
}

type key = { k_decisions : int; k_h1 : int; k_h2 : int }

let fingerprint () =
  { fp_n = 0; fp_prev = -1; fp_h1 = 0x2545f4914f6cdd1d; fp_h2 = gamma }

let fingerprint_probe fp =
  Event.observer ~decisions:true (fun _ ev ->
      match (ev : Event.t) with
      | Decide { tid; count; preemptive; _ } ->
          if preemptive then begin
            let n = fp.fp_n and prev = fp.fp_prev in
            fp.fp_h1 <- chain1 (chain1 (chain1 fp.fp_h1 n) prev) tid;
            fp.fp_h2 <- chain2 (chain2 (chain2 fp.fp_h2 n) prev) tid
          end;
          fp.fp_n <- fp.fp_n + count;
          fp.fp_prev <- tid
      | _ -> ())

let key fp = { k_decisions = fp.fp_n; k_h1 = fp.fp_h1; k_h2 = fp.fp_h2 }

(* --- the coverage map ---------------------------------------------- *)

type app_cov = { mutable ac_points : SS.t; mutable ac_edges : SS.t }

type t = {
  cov_apps : (string, app_cov) Hashtbl.t;
  mutable cov_sigs : SS.t;
}

let create () = { cov_apps = Hashtbl.create 8; cov_sigs = SS.empty }

let app_cov t app =
  match Hashtbl.find_opt t.cov_apps app with
  | Some ac -> ac
  | None ->
      let ac = { ac_points = SS.empty; ac_edges = SS.empty } in
      Hashtbl.replace t.cov_apps app ac;
      ac

let note t ~app (o : observed) =
  let ac = app_cov t app in
  ac.ac_points <- List.fold_left (fun s p -> SS.add p s) ac.ac_points o.ob_points;
  ac.ac_edges <- List.fold_left (fun s e -> SS.add e s) ac.ac_edges o.ob_edges

let note_signature t s =
  if SS.mem s t.cov_sigs then false
  else begin
    t.cov_sigs <- SS.add s t.cov_sigs;
    true
  end

let signatures t = SS.cardinal t.cov_sigs

let novelty t ~app (o : observed) =
  let total = List.length o.ob_points + List.length o.ob_edges in
  if total = 0 then 0.
  else
    match Hashtbl.find_opt t.cov_apps app with
    | None -> 1.
    | Some ac ->
        let fresh =
          List.length
            (List.filter (fun p -> not (SS.mem p ac.ac_points)) o.ob_points)
          + List.length
              (List.filter (fun e -> not (SS.mem e ac.ac_edges)) o.ob_edges)
        in
        float_of_int fresh /. float_of_int total

let apps t =
  Hashtbl.fold (fun app _ acc -> app :: acc) t.cov_apps [] |> List.sort compare

let points t ~app =
  match Hashtbl.find_opt t.cov_apps app with
  | None -> []
  | Some ac -> SS.elements ac.ac_points

let edges t ~app =
  match Hashtbl.find_opt t.cov_apps app with
  | None -> []
  | Some ac -> SS.elements ac.ac_edges

let to_json t : Json.t =
  Json.Obj
    [
      ("type", Json.String "coverage");
      ("signatures", Json.Int (signatures t));
      ( "apps",
        Json.Obj
          (List.map
             (fun app ->
               ( app,
                 Json.Obj
                   [
                     ( "points",
                       Json.List
                         (List.map (fun p -> Json.String p) (points t ~app)) );
                     ( "edges",
                       Json.List
                         (List.map (fun e -> Json.String e) (edges t ~app)) );
                   ] ))
             (apps t)) );
    ]

let merge_json t (j : Json.t) : (unit, string) result =
  match Json.member "apps" j with
  | Some (Json.Obj apps_kv) ->
      let rec go = function
        | [] -> Ok ()
        | (app, entry) :: rest -> (
            let pts =
              Option.value ~default:(Json.List [])
                (Json.member "points" entry)
            in
            let eds =
              Option.value ~default:(Json.List []) (Json.member "edges" entry)
            in
            match
              ( string_list_of_json "points" pts,
                string_list_of_json "edges" eds )
            with
            | Ok ps, Ok es ->
                note t ~app
                  { ob_orders = []; ob_points = ps; ob_edges = es };
                go rest
            | Error e, _ | _, Error e ->
                Error (Printf.sprintf "app %S: %s" app e))
      in
      go apps_kv
  | Some _ -> Error "\"apps\" is not an object"
  | None -> Error "no \"apps\" member"
