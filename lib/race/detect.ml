(* The online detector: one observer, three lenses.

   [probe] folds the run's observation stream — its accesses and sync
   events — into [Report.access] records and feeds whichever analyses
   are enabled; [report] finalizes. Everything is driven off the
   stream, so attaching the detector to any engine — or feeding the
   analyses the same events by hand in a test — produces identical
   reports. *)

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

let probe t =
  let o = t.options in
  Event.observer ~sync:true ~accesses:true (fun (v : Event.view) ev ->
      match (ev : Event.t) with
      | Access { step; tid; iid; kind; addr } ->
          if o.hb || o.lockset then begin
            let acc =
              {
                Report.ac_step = step;
                ac_tid = tid;
                ac_iid = iid;
                ac_stack = v.stack tid;
                ac_block = v.block tid;
                ac_kind = kind;
                ac_addr = addr;
                ac_locks = v.locks tid;
              }
            in
            if o.hb then Hb.on_access t.hb acc;
            if o.lockset then Lockset.on_access t.ls acc
          end;
          if o.deadlock then Lockorder.clear t.lo tid
      | Acquire { step; tid; iid; lock } ->
          if o.hb then Hb.on_acquire t.hb ~tid ~lock;
          if o.deadlock then
            Lockorder.on_acquire t.lo ~tid ~iid ~step ~lock ~locks:(v.locks tid)
      | Request { step; tid; iid; lock } ->
          if o.deadlock then
            Lockorder.on_request t.lo ~tid ~iid ~step ~lock ~locks:(v.locks tid)
      | Release { tid; lock; _ } ->
          if o.hb then Hb.on_release t.hb ~tid ~lock;
          if o.deadlock then Lockorder.clear t.lo tid
      | Spawn { parent; child; _ } ->
          if o.hb then Hb.on_spawn t.hb ~parent ~child;
          if o.deadlock then Lockorder.clear t.lo parent
      | Join { tid; joined; _ } ->
          if o.hb then Hb.on_join t.hb ~tid ~joined;
          if o.deadlock then Lockorder.clear t.lo tid
      | Wake { waker; woken; _ } ->
          if o.hb then Hb.on_wake t.hb ~waker ~woken;
          if o.deadlock then Lockorder.clear t.lo waker
      | _ -> ())

let report t =
  {
    Report.races = (if t.options.hb then Hb.races t.hb else []);
    warnings = (if t.options.lockset then Lockset.warnings t.ls else []);
    cycles = (if t.options.deadlock then Lockorder.finalize t.lo else []);
  }
