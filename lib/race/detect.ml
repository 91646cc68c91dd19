(* The online detector: one probe, three lenses.

   [probe] adapts the engine's raw event stream into [Report.access]
   records and feeds whichever analyses are enabled; [report] finalizes.
   Everything is driven off the probe callbacks, so installing the
   detector on either engine — or replaying the same callbacks by hand
   in a test — produces identical reports. *)

open Conair_runtime

type options = { hb : bool; lockset : bool; deadlock : bool }

let all = { hb = true; lockset = true; deadlock = true }

type t = {
  options : options;
  hb : Hb.t;
  ls : Lockset.t;
  lo : Lockorder.t;
}

let create ?(options = all) () =
  { options; hb = Hb.create (); ls = Lockset.create (); lo = Lockorder.create () }

let probe t : Race_probe.probe =
  let o = t.options in
  {
    Race_probe.rp_access =
      Some
        (fun ~step ~tid ~iid ~stack ~block ~kind ~addr ~locks ->
          let acc =
            {
              Report.ac_step = step;
              ac_tid = tid;
              ac_iid = iid;
              ac_stack = stack;
              ac_block = block;
              ac_kind = kind;
              ac_addr = addr;
              ac_locks = locks;
            }
          in
          if o.hb then Hb.on_access t.hb acc;
          if o.lockset then Lockset.on_access t.ls acc;
          if o.deadlock then Lockorder.clear t.lo tid);
    rp_acquire =
      (fun ~step ~tid ~iid ~lock ~locks ->
        if o.hb then Hb.on_acquire t.hb ~tid ~lock;
        if o.deadlock then Lockorder.on_acquire t.lo ~tid ~iid ~step ~lock ~locks);
    rp_request =
      (fun ~step ~tid ~iid ~lock ~locks ->
        if o.deadlock then Lockorder.on_request t.lo ~tid ~iid ~step ~lock ~locks);
    rp_release =
      (fun ~step:_ ~tid ~lock ->
        if o.hb then Hb.on_release t.hb ~tid ~lock;
        if o.deadlock then Lockorder.clear t.lo tid);
    rp_spawn =
      (fun ~step:_ ~parent ~child ->
        if o.hb then Hb.on_spawn t.hb ~parent ~child;
        if o.deadlock then Lockorder.clear t.lo parent);
    rp_join =
      (fun ~step:_ ~tid ~joined ->
        if o.hb then Hb.on_join t.hb ~tid ~joined;
        if o.deadlock then Lockorder.clear t.lo tid);
    rp_wake =
      (fun ~step:_ ~waker ~woken ->
        if o.hb then Hb.on_wake t.hb ~waker ~woken;
        if o.deadlock then Lockorder.clear t.lo waker);
  }

let report t =
  {
    Report.races = (if t.options.hb then Hb.races t.hb else []);
    warnings = (if t.options.lockset then Lockset.warnings t.ls else []);
    cycles = (if t.options.deadlock then Lockorder.finalize t.lo else []);
  }
