(* The flight recorder's in-memory ring: a fixed-capacity, O(1)-per-event
   record of the recent past of one run, cheap enough to leave on
   everywhere (iReplayer-style always-on in-situ recording).

   Three rings share one clock (the machine's scheduler-decision
   ordinal):

   - the *decision* ring holds the last [cap] scheduler decisions
     (chosen tid per non-idle step) — the tail of exactly the stream a
     schedule log records;
   - the *preemption* ring holds the absolute ordinals of the most
     recent preemptive context switches (chosen <> previous while the
     previous thread was still eligible) — the one classifier of the
     code base, applied by the engines as they report each decision;
   - the *event* ring holds the recent synchronization / recovery
     events (lock acquire/request/release, wait, spawn, rollback,
     recovered, failure) — the sync events of the observation stream
     themselves, which both engines emit, the block engine from its
     schedulable ops and the shared [Machine] helpers, so the ring
     contents are identical across ref and block.

   Steady state allocates nothing: decisions and preemption ordinals are
   int stores into preallocated arrays, and the event ring stores the
   [Event.t] values the engines have already built. The block engine's
   window fast path emits a whole window as one counted decision,
   recorded with one [Array.fill], which is what keeps recorder-on
   throughput within a few percent of recorder-off on a run made of
   windows. A run whose threads contend at every step pays one event
   per decision, and an unbounded recording often one (tid, count)
   pair: the 26 fix-sweep runs of HawkNL's fused-lock candidate take
   36-38 ms bare and 73-84 ms recorded on the block engine.

   The *unbounded* mode ([unbounded]) is a full recording with the same
   observer: it keeps every decision and every preemption, so the
   "tail" is the whole stream — what a schedule log stores. Decisions
   are run-length encoded as (tid, count) pairs, one pair per context
   switch, so a block-engine window is still one O(1) write and a
   run of N decisions costs memory in its switches, not in N. The pairs
   and the preemption ordinals grow by doubling (amortized O(1)). *)

type t = {
  cap : int;  (** ring capacity; [0] for an unbounded recording *)
  mutable d : int array;
      (** bounded: the decision ring, indexed [ordinal mod cap];
          unbounded: run-length pairs [tid; count; tid; count; ...] *)
  mutable runs : int;  (** unbounded: pairs in use in [d] *)
  mutable d_total : int;  (** decisions ever pushed *)
  mutable prev : int;  (** previously chosen tid, [-1] before the first *)
  mutable pre : int array;
      (** preemption ordinals: a ring when bounded, every one (growing)
          when unbounded *)
  mutable pre_total : int;
  evs : Event.t array;
      (** the event ring: the engines' own sync/recovery events *)
  mutable ev_total : int;
}

let default_capacity = 4096
let default_event_capacity = 256

let make ~cap ~d ~pre ~events =
  {
    cap;
    d;
    runs = 0;
    d_total = 0;
    prev = -1;
    pre;
    pre_total = 0;
    evs = Array.make events (Event.Idle { step = 0 });
    ev_total = 0;
  }

let create ?(cap = default_capacity) ?(events = default_event_capacity) () =
  if cap <= 0 then invalid_arg "Flight_ring.create: capacity must be positive";
  if events <= 0 then
    invalid_arg "Flight_ring.create: event capacity must be positive";
  (* at most one preemption per decision, so [cap] ordinals always cover
     every preemption still inside the decision tail *)
  make ~cap ~d:(Array.make cap 0) ~pre:(Array.make cap 0) ~events

(* A recording keeps no event history worth the name: one slot absorbs
   the engines' event writes. *)
let unbounded () =
  make ~cap:0 ~d:(Array.make 64 0) ~pre:(Array.make 16 0) ~events:1

let capacity t = t.cap
let total t = t.d_total
let prev t = t.prev

let grow a = Array.append a (Array.make (Array.length a) 0)

(* Unbounded mode: extend the last run when [tid] keeps the CPU, else
   open a new (tid, count) pair. *)
let extend t tid count =
  let n = t.runs in
  if t.prev = tid then t.d.((2 * n) - 1) <- t.d.((2 * n) - 1) + count
  else begin
    if (2 * n) + 2 > Array.length t.d then t.d <- grow t.d;
    t.d.(2 * n) <- tid;
    t.d.((2 * n) + 1) <- count;
    t.runs <- n + 1
  end

(* [count] consecutive decisions for [tid], the first [preemptive]. A
   block-engine window arrives as one such run: the window invariant
   (its thread was the only eligible one when it opened, and
   straight-line code cannot make another thread eligible) means none
   of its decisions is preemptive. *)
let push t tid count ~preemptive =
  if preemptive then begin
    if t.cap = 0 then begin
      if t.pre_total = Array.length t.pre then t.pre <- grow t.pre;
      t.pre.(t.pre_total) <- t.d_total
    end
    else t.pre.(t.pre_total mod t.cap) <- t.d_total;
    t.pre_total <- t.pre_total + 1
  end;
  if t.cap = 0 then extend t tid count
  else if count = 1 then t.d.(t.d_total mod t.cap) <- tid
  else if count >= t.cap then Array.fill t.d 0 t.cap tid
  else begin
    let start = t.d_total mod t.cap in
    let first = min count (t.cap - start) in
    Array.fill t.d start first tid;
    if count > first then Array.fill t.d 0 (count - first) tid
  end;
  t.d_total <- t.d_total + count;
  t.prev <- tid

let keep t ev =
  t.evs.(t.ev_total mod Array.length t.evs) <- ev;
  t.ev_total <- t.ev_total + 1

let observer t =
  Event.observer ~decisions:true ~sync:true (fun _ ev ->
      match (ev : Event.t) with
      | Decide { tid; count; preemptive; _ } -> push t tid count ~preemptive
      | Acquire _ | Request _ | Wait _ | Release _ | Spawn _ | Rollback _
      | Recovered _ | Failed _ ->
          keep t ev
      | Wake _ | Join _ | Thread_done _ | Failure_detected _
      | Compensate_block _ | Step _ | Idle _ | Output _ | Checkpoint _
      | Access _ ->
          ())

(* --- reading the rings out (dump time; allocation is fine here) ----- *)

let tail_first t = if t.cap = 0 then 0 else t.d_total - min t.d_total t.cap

let tail t =
  if t.cap = 0 then begin
    let out = Array.make t.d_total 0 in
    let pos = ref 0 in
    for r = 0 to t.runs - 1 do
      let count = t.d.((2 * r) + 1) in
      Array.fill out !pos count t.d.(2 * r);
      pos := !pos + count
    done;
    out
  end
  else
    let n = min t.d_total t.cap in
    let first = t.d_total - n in
    Array.init n (fun i -> t.d.((first + i) mod t.cap))

(* Absolute ordinals of the preemptive switches inside the decision
   tail, ascending. The preemption ring stores the most recent [cap]
   preemptions; preemptions are at most one per decision, so every
   preemption whose decision is still in the tail is still stored —
   older stored ordinals are filtered out. An unbounded recording keeps
   them all. *)
let tail_preemptions t =
  if t.cap = 0 then Array.sub t.pre 0 t.pre_total
  else begin
    let n = min t.pre_total t.cap in
    let first = tail_first t in
    let out = ref [] in
    for i = t.pre_total - 1 downto t.pre_total - n do
      let ord = t.pre.(i mod t.cap) in
      if ord >= first then out := ord :: !out
    done;
    Array.of_list !out
  end

let events t =
  let stored = Array.length t.evs in
  let n = min t.ev_total stored in
  List.init n (fun i -> t.evs.((t.ev_total - n + i) mod stored))

