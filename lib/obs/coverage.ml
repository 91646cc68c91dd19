(* Schedule-coverage observability: interleaving signatures, the
   collector of a run's observation stream, and the per-app coverage
   map.

   Determinism is the load-bearing property. The signature inputs — the
   recorder's decision/preemption arrays and the observation stream's
   access events — are byte-identical across the ref/fast/block engines (the
   differential guarantee of test_fast_exec), so everything derived here
   is too: the same recorded run yields the same signature no matter
   which engine executed it, which worker observed it, or how many times
   the coordinator restarted. All sets are rendered sorted. *)

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

(* [%d] of [n], written digit by digit: a sweep signs hundreds of
   thousands of preemptions, and a formatted string per integer cost
   more than the runs being signed. *)
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
   it with golden digests. [decision i] is the [i]th of the [n]
   decisions, asked in the order the preemptions list them, which is
   non-decreasing when they ascend. *)
let sign ~context ~orders ~n ~preemptions decision =
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
      add_int b (if p > 0 && p <= n then decision (p - 1) else -1);
      Buffer.add_char b '>';
      add_int b (if p >= 0 && p < n then decision p else -1))
    preemptions;
  List.iter
    (fun (a, t) ->
      Buffer.add_string b "|a:";
      Buffer.add_string b a;
      Buffer.add_char b '=';
      Buffer.add_string b t)
    (List.sort compare orders);
  Digest.to_hex (Digest.string (Buffer.contents b))

let signature ?(context = "") ?(orders = []) ~(decisions : int array)
    ~(preemptions : int array) () : string =
  sign ~context ~orders ~n:(Array.length decisions) ~preemptions
    (Array.get decisions)

(* A recording's preemption ordinals ascend, so its decisions around
   them are read in one forward walk instead of expanded. *)
let ring_signature ~context ring =
  sign ~context ~orders:[]
    ~n:(Flight_ring.total ring - Flight_ring.tail_first ring)
    ~preemptions:(Flight_ring.tail_preemptions ring)
    (Flight_ring.tail_reader ring)

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
