(* Execution statistics: the raw material of Tables 3, 5, 6 and 7. *)

type episode = {
  ep_site_id : int;
  ep_tid : int;
  ep_start : int;  (** step of the first rollback for this failure *)
  ep_end : int;  (** step at which the thread passed the site *)
  ep_retries : int;
}

let episode_duration e = e.ep_end - e.ep_start

type t = {
  mutable steps : int;  (** scheduler steps, including idle ticks *)
  mutable instrs : int;  (** instructions actually executed *)
  mutable idle : int;
  mutable checkpoints : int;  (** dynamic reexecution points (Table 5) *)
  mutable rollbacks : int;
  mutable compensated_locks : int;
  mutable compensated_blocks : int;
  mutable episodes : episode list;  (** completed recovery episodes, newest first *)
  mutable tracecheck_violations : int;
  mutable outputs : int;
  mutable ckpt_dense : int array;
      (** executions per checkpoint id below [dense_ids] — the
          per-family dynamic reexecution-point counts of Table 6 —
          grown on demand *)
  ckpt_far : (int, int) Hashtbl.t;  (** the same, for any other id *)
}

(* Hardening numbers its checkpoints from 0, so an array indexed by id
   counts a hit with one increment. A hand-written program may name any
   id; those past [dense_ids] go to a table instead of growing the
   array without bound. *)
let dense_ids = 1 lsl 16

let create () =
  {
    steps = 0;
    instrs = 0;
    idle = 0;
    checkpoints = 0;
    rollbacks = 0;
    compensated_locks = 0;
    compensated_blocks = 0;
    episodes = [];
    tracecheck_violations = 0;
    outputs = 0;
    ckpt_dense = [||];
    ckpt_far = Hashtbl.create 1;
  }

let[@inline never] hit_slow t id =
  if id >= 0 && id < dense_ids then begin
    let n = Array.length t.ckpt_dense in
    let a = Array.make (min dense_ids (max (id + 1) (2 * n))) 0 in
    Array.blit t.ckpt_dense 0 a 0 n;
    a.(id) <- 1;
    t.ckpt_dense <- a
  end
  else
    Hashtbl.replace t.ckpt_far id
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.ckpt_far id))

let hit_checkpoint t id =
  t.checkpoints <- t.checkpoints + 1;
  let a = t.ckpt_dense in
  if id >= 0 && id < Array.length a then a.(id) <- a.(id) + 1
  else hit_slow t id

let ckpt_hits_of t id =
  if id >= 0 && id < Array.length t.ckpt_dense then t.ckpt_dense.(id)
  else Option.value ~default:0 (Hashtbl.find_opt t.ckpt_far id)

let ckpt_hits t =
  let dense = ref [] in
  for id = Array.length t.ckpt_dense - 1 downto 0 do
    let n = t.ckpt_dense.(id) in
    if n > 0 then dense := (id, n) :: !dense
  done;
  Hashtbl.fold (fun id n acc -> (id, n) :: acc) t.ckpt_far !dense
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* [episodes] is an accumulation list (newest first); anything user-facing
   — pretty-printing, reports, spans — should read it in execution order. *)
let episodes_chronological t = List.rev t.episodes

let total_retries t =
  List.fold_left (fun n e -> n + e.ep_retries) 0 t.episodes

(** Duration of the longest recovery episode — the "Recovery Time" column
    of Table 7 (in virtual steps). *)
let max_recovery_time t =
  List.fold_left (fun n e -> max n (episode_duration e)) 0 t.episodes

(** Mean recovery-episode duration in virtual steps; [0.] with no
    episodes. The overhead harness reports max and mean side by side. *)
let mean_recovery_time t =
  match t.episodes with
  | [] -> 0.
  | eps ->
      let total = List.fold_left (fun n e -> n + episode_duration e) 0 eps in
      float_of_int total /. float_of_int (List.length eps)

let pp ppf t =
  Format.fprintf ppf
    "steps=%d instrs=%d idle=%d checkpoints=%d rollbacks=%d episodes=%d \
     comp-locks=%d comp-blocks=%d tracecheck-violations=%d"
    t.steps t.instrs t.idle t.checkpoints t.rollbacks (List.length t.episodes)
    t.compensated_locks t.compensated_blocks t.tracecheck_violations

let pp_episode ppf e =
  Format.fprintf ppf "site %d on t%d: steps %d..%d (%d steps, %d retries)"
    e.ep_site_id e.ep_tid e.ep_start e.ep_end (episode_duration e) e.ep_retries

let pp_episodes ppf t =
  match episodes_chronological t with
  | [] -> Format.fprintf ppf "no recovery episodes"
  | eps ->
      Format.fprintf ppf "@[<v>%a@]" (Format.pp_print_list pp_episode) eps
