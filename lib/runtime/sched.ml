(* Scheduling policy: which eligible thread runs the next instruction.

   Determinism matters more than realism here — the paper forces buggy
   interleavings with injected sleeps, and so do the benchmarks; given the
   same policy and seed, a run is exactly reproducible.

   The PRNG, precisely: [Random.State.make [| seed |]] from the OCaml
   standard library, which on this toolchain (OCaml >= 5.0) is the LXM
   generator (L64X128 variant). [Round_robin] never touches the rng (it
   is created with seed 0 but only the cursor is used); [Random seed]
   draws one [Random.State.int] per scheduling decision with more than
   one eligible thread, and the recovery runtime draws from the *same*
   state for deadlock backoff and timing perturbation — the random
   stream is part of the machine semantics, consumed identically by both
   engines (see [choose_idx]).

   Consequence: everything downstream of the schedule is deterministic in
   (program, config, policy, seed) — outcomes, traces, profiles, and the
   race detector's event stream and reports. Same seed, byte-identical
   race reports; a different seed is a genuinely different schedule, which
   is exactly what [conair_fuzz --detect] exploits to count the schedules
   on which a race is observed.

   The scheduler is also the replay seam ([Conair_replay]): an optional
   [feed] overrides the policy's choice, and an optional [tap] observes
   every decision with its eligible set (schedule recording itself
   observes the machine's event stream, not the tap). Both default to
   [None] and cost one match per decision when absent, the same
   zero-cost-when-off discipline as the machine's observer. A fed
   decision still consumes the rng and moves the cursor exactly as the
   policy would have for the same choice, so a strict replay reproduces
   the original random stream — deadlock backoff and timing perturbation
   draws included.

   A feed decides over what the unfed path reads: the count of eligible
   threads and the closed projection to their tids, so a fed decision
   builds no list either; it answers with an index. A feed also answers
   in counts: the block engine's one-thread windows ask it how many
   consecutive decisions it accepts for the window's thread and report
   the decisions they took as one number ([window], [took]). Those
   decisions are forced — one eligible thread — so the policy would
   draw nothing for them and [mirror] has nothing to do. *)

type policy =
  | Round_robin  (** strict rotation among eligible threads; rng unused *)
  | Random of int  (** uniform choice, seeded LXM ([Random.State]) *)

type feed = {
  decide : 'a. tid_of:('a -> int -> int) -> 'a -> int -> int;
  window : int -> int;
  took : int -> unit;
}

type t = {
  policy : policy;
  mutable rng : Random.State.t;
  mutable cursor : int;
  mutable tap : (chosen:int -> eligible:int list -> unit) option;
  mutable feed : feed option;
}

let create policy =
  let seed = match policy with Round_robin -> 0 | Random s -> s in
  {
    policy;
    rng = Random.State.make [| seed |];
    cursor = 0;
    tap = None;
    feed = None;
  }

let set_tap t tap = t.tap <- tap
let set_feed t feed = t.feed <- feed

type saved = { sv_rng : Random.State.t; sv_cursor : int }

let save t = { sv_rng = Random.State.copy t.rng; sv_cursor = t.cursor }

let restore t s =
  t.rng <- Random.State.copy s.sv_rng;
  t.cursor <- s.sv_cursor

(* What the policy itself would pick (never sees an empty list). *)
let decide t eligible =
  match eligible with
  | [ tid ] -> tid
  | _ -> (
      match t.policy with
      | Round_robin ->
          (* The first eligible tid strictly greater than the last scheduled
             one, wrapping around: a fair rotation even as threads come and
             go. *)
          let next =
            match List.find_opt (fun tid -> tid > t.cursor) eligible with
            | Some tid -> tid
            | None -> List.hd eligible
          in
          t.cursor <- next;
          next
      | Random _ ->
          List.nth eligible (Random.State.int t.rng (List.length eligible)))

(* Replicate the policy's side effects for a decision made by a feed
   among [n] eligible threads: consume the same rng draw and move the
   cursor to the chosen thread, so replayed and directed runs keep the
   downstream random stream (deadlock backoff, perturbed timing) aligned
   with policy-driven runs. *)
let mirror t n chosen =
  if n > 1 then
    match t.policy with
    | Round_robin -> t.cursor <- chosen
    | Random _ -> ignore (Random.State.int t.rng n)

let notify t ~chosen ~eligible =
  match t.tap with None -> () | Some f -> f ~chosen ~eligible

let hooked t = match (t.tap, t.feed) with None, None -> false | _ -> true

(* A fed decision: the feed's index among the [n] eligible threads, with
   the policy's side effects mirrored and the tap told. Only the tap
   gets a list. *)
let fed t f ~tid_of env n =
  let i = f.decide ~tid_of env n in
  if i < 0 || i >= n then invalid_arg "Sched: fed an ineligible thread";
  let chosen = tid_of env i in
  mirror t n chosen;
  (match t.tap with
  | None -> ()
  | Some tap -> tap ~chosen ~eligible:(List.init n (tid_of env)));
  i

(** Pick one of [eligible] (a non-empty list of thread ids). *)
let choose t eligible =
  match eligible with
  | [] -> invalid_arg "Sched.choose: no eligible thread"
  | [ tid ] when not (hooked t) -> tid
  | _ -> (
      match t.feed with
      | Some f ->
          let a = Array.of_list eligible in
          a.(fed t f ~tid_of:Array.get a (Array.length a))
      | None ->
          let chosen = decide t eligible in
          notify t ~chosen ~eligible;
          chosen)

(** Index-based choice for the block engine: pick an index into
    an eligible array of length [n] ([tid_of env i] gives the thread id
    at slot [i], ascending). The projection takes its environment as an
    argument, so a caller passing a closed function and its state
    allocates nothing per decision. Consumes the rng and moves the
    cursor exactly as [choose] does on the equivalent list, so every
    engine draws the same random stream. A feed decides over the same
    count and projection; only a tap has the eligible list
    materialized, and without a feed the decision goes through the list
    path, keeping the hooks' view identical across engines. *)
let choose_idx t ~tid_of env n =
  if n <= 0 then invalid_arg "Sched.choose_idx: no eligible thread"
  else if not (hooked t) then
    if n = 1 then 0
    else
      match t.policy with
      | Round_robin ->
          (* a loop, not a local recursive function: that would be a
             closure allocated per decision *)
          let i = ref 0 in
          while !i < n && tid_of env !i <= t.cursor do
            incr i
          done;
          let i = if !i < n then !i else 0 in
          t.cursor <- tid_of env i;
          i
      | Random _ -> Random.State.int t.rng n
  else
    match t.feed with
    | Some f -> fed t f ~tid_of env n
    | None ->
        let eligible = List.init n (tid_of env) in
        let chosen = decide t eligible in
        notify t ~chosen ~eligible;
        let rec index i = if tid_of env i = chosen then i else index (i + 1) in
        index 0

(** The runtime's randomness source (deadlock-recovery backoff). *)
let rng t = t.rng
