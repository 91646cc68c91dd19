(** Scheduling policy: which eligible thread runs the next instruction.

    Deterministic given the policy and seed, so every run is exactly
    reproducible. The seeded generator is the standard library's
    [Random.State] — the LXM generator (L64X128) on OCaml >= 5.0 —
    initialized with [Random.State.make [| seed |]]; the same state also
    feeds deadlock backoff and timing perturbation, so the random stream
    is part of the machine semantics. Everything derived from a run is
    schedule-deterministic in (program, config, policy, seed): outcomes,
    traces, cost profiles, and race-detection reports are byte-identical
    across repeated runs with the same seed, on either engine.

    The scheduler doubles as the replay seam: {!set_feed} installs an
    override of the policy's choice and {!set_tap} an observer of every
    decision with its eligible set (see [Conair_replay]; recording a
    schedule observes the machine's event stream instead). Both are
    [None] by default and cost one match per decision when off — the
    same zero-cost-when-off discipline as the machine's observer. *)

(** A schedule override ({!set_feed}). Every engine asks [decide] for
    each decision it makes one at a time: [decide ~tid_of env n] picks
    an index in [0, n) among the [n] eligible threads, whose ids
    [tid_of env] reports in ascending order — the projection
    {!choose_idx} reads, so deciding builds no list (the reference
    engine's list is passed as an array). The block engine's one-thread
    windows take their forced decisions in bulk instead:

    - [window tid]: a window of [tid] — the only eligible thread — is
      about to open, before any of its code runs. The answer is how
      many consecutive decisions for [tid] the feed accepts ([max_int]
      for no limit); the window runs at most that many steps, one
      decision each. An answer of [0] sends that one step through
      [decide] instead.
    - [took n]: the window closed after [n] decisions, all of [tid].

    A window is therefore one counted call where the other engines make
    [n] calls to [decide] over the one eligible [tid]; a feed must treat
    the two alike. *)
type feed = {
  decide : 'a. tid_of:('a -> int -> int) -> 'a -> int -> int;
      (** one decision: the index of an eligible thread (or raise to
          abort) *)
  window : int -> int;
  took : int -> unit;
}

type policy =
  | Round_robin  (** strict rotation among eligible threads; rng unused *)
  | Random of int  (** uniform choice, seeded LXM ([Random.State]) *)

type t = {
  policy : policy;
  mutable rng : Random.State.t;
  mutable cursor : int;
  mutable tap : (chosen:int -> eligible:int list -> unit) option;
      (** observes every decision; install via {!set_tap} *)
  mutable feed : feed option;
      (** overrides every decision; install via {!set_feed} *)
}

val create : policy -> t

val choose : t -> int list -> int
(** Pick one of the eligible thread ids.
    @raise Invalid_argument on an empty list. *)

val choose_idx : t -> tid_of:('a -> int -> int) -> 'a -> int -> int
(** [choose_idx t ~tid_of env n] picks an index in [0, n): the
    array-based equivalent of [choose] over the [n] eligible threads
    whose ids [tid_of env] reports in ascending order. A closed
    [tid_of] makes the decision allocation-free. Identical cursor
    movement and rng consumption, so every engine sees the same random
    stream. A feed decides over the same count and projection; only a
    tap has the eligible list materialized, and the hooks see exactly
    what the list-based engine's hooks would see.
    @raise Invalid_argument when [n <= 0], or when a feed answers an
    index outside [0, n). *)

val rng : t -> Random.State.t
(** The runtime's randomness source (deadlock-recovery backoff, timing
    perturbation). *)

(** {1 Record/replay hooks}

    A [tap] observes every scheduling decision — including the
    single-eligible fast path — with the eligible tids in ascending
    order; it sends every step of a block run through
    [Block_machine.step], so only the tests' oracle recorder uses it. A
    [feed] replaces the
    policy's decision. A fed decision still consumes the policy's rng
    draw and cursor movement for the chosen thread, so the downstream
    random stream (deadlock backoff, perturbed timing) stays aligned
    with the original run during replay; a window's forced decisions
    draw nothing under any policy. *)

val set_tap : t -> (chosen:int -> eligible:int list -> unit) option -> unit
val set_feed : t -> feed option -> unit

(** {1 Saved scheduler state}

    The rng state and rotation cursor at a point in time — the scheduler
    half of a machine snapshot, used by the time-travel inspector to seek
    within a recorded run. *)

type saved

val save : t -> saved
(** Copy the current rng state and cursor. *)

val restore : t -> saved -> unit
(** Reinstate a {!save}d state (the saved copy stays intact and can be
    restored again). The tap and feed are untouched. *)
