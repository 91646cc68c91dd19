(* Lock-order graph with cycle detection: the deadlock lens.

   Nodes are lock names; an edge a→b is witnessed when a thread holding
   [a] acquires — or merely *requests* — [b]. Request edges are what
   make hanging runs diagnosable: in a run that deadlocks, the final
   acquisitions never happen, only blocked requests do.

   Two grades of finding:

   - "actual": a cycle closed among *simultaneously pending* requests —
     threads that were all blocked on each other at one instant. Checked
     online at every request, because in a hardened run timed locks give
     up, the pending set drains, and a post-hoc check would miss the
     deadlock that recovery just papered over. A request of a lock the
     thread already holds is the one-node case of the same cycle.

   - "potential": a cycle in the full witnessed graph that never closed
     simultaneously — inconsistent lock ordering that some other
     schedule could deadlock.

   A thread's pending request is cleared by its next event of any kind
   (the acquisition finally succeeding, or a timed lock giving up and
   doing something else). Cycles are canonicalized (minimum lock first)
   and deduplicated across both grades. *)

type pending = {
  pr_lock : string;
  pr_held : string list;
  pr_iid : int;
  pr_step : int;
}

type t = {
  edges : (string * string, Report.edge) Hashtbl.t;  (* first witness *)
  pend : (int, pending) Hashtbl.t;
  seen : (string, unit) Hashtbl.t;  (* canonical cycle keys *)
  mutable actual : Report.cycle list;  (* newest first *)
}

let create () =
  {
    edges = Hashtbl.create 16;
    pend = Hashtbl.create 8;
    seen = Hashtbl.create 8;
    actual = [];
  }

let clear t tid = Hashtbl.remove t.pend tid

let add_edge tbl ~from ~to_ ~tid ~iid ~step ~req =
  if not (Hashtbl.mem tbl (from, to_)) then
    Hashtbl.replace tbl (from, to_)
      {
        Report.e_from = from;
        e_to = to_;
        e_tid = tid;
        e_iid = iid;
        e_step = step;
        e_req = req;
      }

(* Every simple cycle of [edges], each reported once in canonical form:
   node list starting at its minimum lock. Deterministic — nodes and
   successors visited in sorted order. The graphs here are tiny (a
   handful of locks), so naive enumeration is fine. *)
let simple_cycles edges =
  let adj = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (a, b) _ ->
      let cur = match Hashtbl.find_opt adj a with Some l -> l | None -> [] in
      Hashtbl.replace adj a (b :: cur))
    edges;
  let nodes =
    Hashtbl.fold (fun (a, b) _ acc -> a :: b :: acc) edges []
    |> List.sort_uniq compare
  in
  let succs n =
    match Hashtbl.find_opt adj n with
    | Some l -> List.sort_uniq compare l
    | None -> []
  in
  let found = ref [] in
  List.iter
    (fun s ->
      (* only cycles whose minimum node is [s]: intermediates must be
         strictly greater, so each cycle appears exactly once. *)
      let rec dfs path node =
        List.iter
          (fun nxt ->
            if nxt = s then found := List.rev path :: !found
            else if nxt > s && not (List.mem nxt path) then
              dfs (nxt :: path) nxt)
          (succs node)
      in
      dfs [ s ] s)
    nodes;
  List.rev !found

let cycle_edges edges nodes =
  let n = List.length nodes in
  List.mapi
    (fun i a ->
      let b = List.nth nodes ((i + 1) mod n) in
      Hashtbl.find edges (a, b))
    nodes

let key nodes = String.concat "->" nodes

let record_actual t pend_edges nodes =
  let k = key nodes in
  if not (Hashtbl.mem t.seen k) then begin
    Hashtbl.replace t.seen k ();
    t.actual <-
      {
        Report.cy_locks = nodes;
        cy_actual = true;
        cy_edges = cycle_edges pend_edges nodes;
      }
      :: t.actual
  end

let on_acquire t ~tid ~iid ~step ~lock ~locks =
  clear t tid;
  (* [locks] includes the lock just acquired. *)
  List.iter
    (fun h ->
      if h <> lock then add_edge t.edges ~from:h ~to_:lock ~tid ~iid ~step ~req:false)
    locks

let on_request t ~tid ~iid ~step ~lock ~locks =
  List.iter
    (fun h -> add_edge t.edges ~from:h ~to_:lock ~tid ~iid ~step ~req:true)
    locks;
  Hashtbl.replace t.pend tid { pr_lock = lock; pr_held = locks; pr_iid = iid; pr_step = step };
  (* Online: does the waits-for graph of the currently pending requests
     close a cycle? (Held→wanted edges; a self-request is a self-loop.) *)
  let pend_edges = Hashtbl.create 8 in
  Hashtbl.iter
    (fun ptid p ->
      List.iter
        (fun h ->
          add_edge pend_edges ~from:h ~to_:p.pr_lock ~tid:ptid ~iid:p.pr_iid
            ~step:p.pr_step ~req:true)
        p.pr_held)
    t.pend;
  List.iter (record_actual t pend_edges) (simple_cycles pend_edges)

let finalize t =
  let actual = List.rev t.actual in
  let potential =
    simple_cycles t.edges
    |> List.filter (fun nodes -> not (Hashtbl.mem t.seen (key nodes)))
    |> List.sort (fun a b -> compare (key a) (key b))
    |> List.map (fun nodes ->
           {
             Report.cy_locks = nodes;
             cy_actual = false;
             cy_edges = cycle_edges t.edges nodes;
           })
  in
  actual @ potential

(* --- the witness graph alone ---------------------------------------- *)

(* The keys of the cycles [finalize] reports are exactly the simple
   cycles of the witness graph: a potential cycle is one by definition,
   and an actual cycle closes among pending-request edges, every one of
   which [on_request] also witnessed. So the key set needs neither the
   pending set nor the access events that clear it — only acquisitions
   and requests, which every engine emits at schedulable operations.
   This is the fix synthesizer's deadlock-freedom lens: an observer of
   sync events only, which keeps the block engine on its window path. *)

type witness = (string * string, unit) Hashtbl.t

let witness () : witness = Hashtbl.create 16

let witness_probe (w : witness) =
  Conair_runtime.Event.observer ~sync:true
    (fun (v : Conair_runtime.Event.view) ev ->
      match (ev : Conair_runtime.Event.t) with
      | Acquire { tid; lock; _ } ->
          List.iter
            (fun h -> if h <> lock then Hashtbl.replace w (h, lock) ())
            (v.locks tid)
      | Request { tid; lock; _ } ->
          List.iter (fun h -> Hashtbl.replace w (h, lock) ()) (v.locks tid)
      | _ -> ())

let cycle_keys (w : witness) =
  List.sort compare (List.map key (simple_cycles w))
