(* Per-run observation hooks, bundled.

   Every engine carries the same six hook slots: a trace sink, a
   cost-profiler probe, a race-detector probe, the scheduler's tap /
   replay feed, and the flight slot (the decision stream: the always-on
   ring, or a full schedule recording). Historically callers installed
   them by hand after [create] ([set_trace] / [set_profile] / ...) and
   were responsible for uninstalling them afterwards — which
   nobody did on the exception paths, and which made two in-process runs
   race for the same mutable slots when they shared helper code.

   The primary API is now the [bundle]: an immutable record of the six
   optional hooks that a caller hands to [Machine.create] /
   [Ref_machine.create] / [Block_machine.create] / [Engine.create]. The
   hooks are part of the machine from its first step, they are private
   to that machine, and there is nothing to uninstall — a machine is
   never shared between runs, so concurrent in-process jobs cannot fight
   over hook state.

   The flight slot is special: unlike the other five it does not force
   the block engine off its compiled window fast path — windows account
   their decisions in bulk (see [Flight_ring.push_run]), which is what
   makes the ring cheap enough to leave on everywhere and a full
   recording nearly free. A race probe without an access callback does
   not force it either (see [Block_machine.hooked]).

   [with_installed] survives as a compatibility shim for the scoped
   post-create style (and for the rare self-referential hook that needs
   the machine in scope before it can be built — see [install]). *)

type target = {
  ht_trace : Trace.sink option -> unit;
  ht_profile : Profile.probe option -> unit;
  ht_race : Race_probe.probe option -> unit;
  ht_flight : Flight_ring.t option -> unit;
  ht_sched : Sched.t;
}

type bundle = {
  hb_trace : Trace.sink option;
  hb_profile : Profile.probe option;
  hb_race : Race_probe.probe option;
  hb_flight : Flight_ring.t option;
  hb_tap : (chosen:int -> eligible:int list -> unit) option;
  hb_feed : (eligible:int list -> int) option;
}

let none =
  {
    hb_trace = None;
    hb_profile = None;
    hb_race = None;
    hb_flight = None;
    hb_tap = None;
    hb_feed = None;
  }

let bundle ?trace ?profile ?race ?flight ?tap ?feed () =
  { hb_trace = trace; hb_profile = profile; hb_race = race;
    hb_flight = flight; hb_tap = tap; hb_feed = feed }

let is_none b =
  b.hb_trace = None && b.hb_profile = None && b.hb_race = None
  && b.hb_flight = None && b.hb_tap = None && b.hb_feed = None

(* Only overwrite slots the bundle actually carries: [install] is also
   the escape hatch for self-referential hooks (a feed that snapshots
   the machine it steers), which are built after [create] and must not
   clobber hooks the bundle installed at create time. *)
let install t b =
  (match b.hb_trace with None -> () | Some _ -> t.ht_trace b.hb_trace);
  (match b.hb_profile with None -> () | Some _ -> t.ht_profile b.hb_profile);
  (match b.hb_race with None -> () | Some _ -> t.ht_race b.hb_race);
  (match b.hb_flight with None -> () | Some _ -> t.ht_flight b.hb_flight);
  (match b.hb_tap with None -> () | Some _ -> Sched.set_tap t.ht_sched b.hb_tap);
  match b.hb_feed with
  | None -> ()
  | Some _ -> Sched.set_feed t.ht_sched b.hb_feed

let clear t =
  t.ht_trace None;
  t.ht_profile None;
  t.ht_race None;
  t.ht_flight None;
  Sched.set_tap t.ht_sched None;
  Sched.set_feed t.ht_sched None

let with_installed t ?trace ?profile ?race ?flight ?tap ?feed f =
  install t (bundle ?trace ?profile ?race ?flight ?tap ?feed ());
  Fun.protect ~finally:(fun () -> clear t) f
