(* Scheduler feeds: the replay half of the record/replay seam.

   [strict] forces the exact recorded decision stream and raises
   [Diverged] the moment the replayed execution disagrees with the
   recording — the recorded thread is not eligible, or the execution
   asks for more decisions than were recorded. [Sched] mirrors the
   policy's rng/cursor side effects for every fed decision, so a strict
   replay of a log against the same program and config reproduces the
   original run bit for bit, downstream random draws included. A
   one-thread window of the block engine takes at most the recorded run
   of its thread at the log position; past it, the next decision is
   asked one at a time, so a divergence surfaces at the same decision
   on every engine.

   [directed] executes a *sparse* schedule: an ordered list of context
   switch directives ("once thread FROM has run COUNT decisions, switch
   to TO"), continuing the current thread between directives and falling
   back to round-robin order (first eligible tid after the current one,
   wrapping) when the current thread cannot run. Feeding every switch of
   a recorded run reproduces it exactly; feeding a subset is how the
   minimizer probes which preemptions a failure actually needs. A
   window accepts any number of decisions: only its first can fire a
   directive (one into the window's thread), and the rest continue that
   thread, which no directive's target can preempt while it is the only
   eligible one. *)

open Conair_runtime

type divergence_info = { at : int; expected : int option; eligible : int list }

exception Diverged of divergence_info

type strict = {
  decisions : int array;
  mutable pos : int;
  mutable run_end : int;
      (** when past [pos]: the end of the run of equal decisions that
          holds [pos], so each position is scanned once *)
}

let strict ?(start = 0) decisions = { decisions; pos = start; run_end = start }
let position h = h.pos

(* The index of [tid] among the [n] eligible threads, [n] when it is not
   one of them. *)
let index ~tid_of env n tid =
  let i = ref 0 in
  while !i < n && tid_of env !i <> tid do
    incr i
  done;
  !i

(* The eligible set is listed only for the report. *)
let diverged ~tid_of env n at expected =
  Diverged { at; expected; eligible = List.init n (tid_of env) }

let strict_decide h ~tid_of env n =
  let k = h.pos in
  if k >= Array.length h.decisions then raise (diverged ~tid_of env n k None);
  let tid = h.decisions.(k) in
  let i = index ~tid_of env n tid in
  if i = n then raise (diverged ~tid_of env n k (Some tid));
  h.pos <- k + 1;
  i

(* The recorded run of [tid] at the log position; [0] when the log is
   exhausted or records another thread there, so [strict_decide] gets
   to raise. *)
let strict_window h tid =
  let k = h.pos and n = Array.length h.decisions in
  if k >= n || h.decisions.(k) <> tid then 0
  else begin
    if h.run_end <= k then begin
      let e = ref (k + 1) in
      while !e < n && h.decisions.(!e) = tid do
        incr e
      done;
      h.run_end <- !e
    end;
    h.run_end - k
  end

let strict_feed h =
  {
    Sched.decide = (fun ~tid_of env n -> strict_decide h ~tid_of env n);
    window = strict_window h;
    took = (fun n -> h.pos <- h.pos + n);
  }

(* ------------------------------------------------------------------ *)

type directive = { dr_from : int; dr_count : int; dr_to : int }

(* A thread's decisions are added to its count when it gives up the
   CPU: the current thread's count is [base] plus the [run] it has made
   since it took over, so a decision touches no table. *)
type directed = {
  mutable queue : directive list;
  mutable cur : int;
  mutable base : int;  (** decisions [cur] had run when it took over *)
  mutable run : int;  (** decisions [cur] has run since *)
  counts : (int, int) Hashtbl.t;  (** tid -> decisions it has run *)
}

let switch d tid =
  if tid <> d.cur then begin
    if d.cur >= 0 then Hashtbl.replace d.counts d.cur (d.base + d.run);
    d.base <- Option.value ~default:0 (Hashtbl.find_opt d.counts tid);
    d.run <- 0;
    d.cur <- tid
  end

(* Pick the next thread among the [n] eligible ones, firing the head
   directive if it is due; the decision is counted by the caller. *)
let pick d ~tid_of env n =
  let due =
    match d.queue with
    | dr :: rest when dr.dr_from = d.cur && d.base + d.run >= dr.dr_count ->
        let i = index ~tid_of env n dr.dr_to in
        if i < n then d.queue <- rest;
        i
    | _ -> n
  in
  let i =
    if due < n then due
    else
      let i = index ~tid_of env n d.cur in
      if i < n then i
      else begin
        (* round-robin order: first eligible tid after the current one,
           wrapping — exactly the forced-switch choice the recording
           policy would make *)
        let j = ref 0 in
        while !j < n && tid_of env !j <= d.cur do
          incr j
        done;
        if !j < n then !j else 0
      end
  in
  switch d (tid_of env i);
  i

let directed directives =
  let d =
    { queue = directives; cur = -1; base = 0; run = 0; counts = Hashtbl.create 16 }
  in
  {
    Sched.decide =
      (fun ~tid_of env n ->
        let i = pick d ~tid_of env n in
        d.run <- d.run + 1;
        i);
    window =
      (fun tid ->
        ignore (pick d ~tid_of:(fun tid _ -> tid) tid 1);
        max_int);
    took = (fun n -> d.run <- d.run + n);
  }

(* Recast a recorded decision stream as context-switch directives: every
   change of chosen thread is a switch; the preemption ordinals recorded
   next to the stream tell which were preemptive (the outgoing thread was
   still eligible). [dr_count] is how many decisions the outgoing thread
   had run when the switch fired. Feeding [merge_directives fixed cand]
   back through [directed] reproduces the recording exactly. A thread's
   count grows by whole runs at the switches, so the table is touched
   per switch, not per decision. *)
let directives_of ~decisions ~preemptions =
  let preemptive = Hashtbl.create 64 in
  Array.iter (fun k -> Hashtbl.replace preemptive k ()) preemptions;
  let counts = Hashtbl.create 16 in
  let local tid = Option.value ~default:0 (Hashtbl.find_opt counts tid) in
  let fixed = ref [] and cand = ref [] in
  let start = ref 0 (* the ordinal where the current run began *) in
  Array.iteri
    (fun k tid ->
      if k > 0 then
        let prev = decisions.(k - 1) in
        if tid <> prev then begin
          Hashtbl.replace counts prev (local prev + k - !start);
          start := k;
          let dr = (k, { dr_from = prev; dr_count = local prev; dr_to = tid }) in
          if Hashtbl.mem preemptive k then cand := dr :: !cand
          else fixed := dr :: !fixed
        end)
    decisions;
  (List.rev !fixed, List.rev !cand)

(* Merge the forced directives with a (sub)set of preemptive ones, by
   original decision ordinal. *)
let merge_directives fixed subset =
  List.merge (fun (a, _) (b, _) -> compare a b) fixed subset |> List.map snd
