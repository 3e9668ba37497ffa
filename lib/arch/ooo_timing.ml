(* Trace-driven model of an out-of-order core, for the paper's motivating
   comparison (§1, §3): Turnstile's verification is cheap on OoO machines —
   the 40-entry store buffer absorbs quarantined stores and dynamic
   scheduling hides checkpoint data hazards — while the same scheme
   devastates an in-order core. This model exists to reproduce that claim,
   not to be a detailed OoO simulator.

   The model is dataflow-limited execution under structural bounds:
   an instruction starts when (a) its sources are ready, (b) it is inside
   the reorder window (the instruction ROB-size older must have completed),
   (c) a functional unit is free (2 ALUs, 1 load port, 1 store port), and
   (d) the fetch stream has reached it (branch mispredictions stall fetch
   until the branch resolves). Stores quarantine in the store buffer until
   their region verifies, exactly as in the in-order model — but with a
   40-entry buffer the quarantine almost never backpressures. *)

open Turnpike_ir

type config = {
  rob_size : int;
  alus : int;
  sb_size : int;
  wcdl : int;
  verification : bool;
  branch_penalty : int;
  mem : Mem_hierarchy.config;
}

let default_config =
  {
    rob_size = 64;
    alus = 2;
    sb_size = 40;
    wcdl = 10;
    verification = false;
    branch_penalty = 8;
    mem = Mem_hierarchy.default_config;
  }

let turnstile_config ?(wcdl = 10) () = { default_config with verification = true; wcdl }

type t = {
  cfg : config;
  mem : Mem_hierarchy.t;
  sb : Store_buffer.t;
  rbb : Rbb.t;
  predictor : Branch_predictor.t;
  scoreboard : Scoreboard.t;
  completions : int array; (* ring buffer of the last [rob_size] completions *)
  alu_free : int array;
  mutable load_free : int;
  mutable store_free : int;
  mutable fetch_ready : int;
  mutable issued : int;
  mutable drain_free_at : int;
  mutable last_completion : int;
  stats : Sim_stats.t;
}

let create cfg =
  {
    cfg;
    mem = Mem_hierarchy.create cfg.mem;
    sb = Store_buffer.create cfg.sb_size;
    rbb = Rbb.create 16;
    predictor = Branch_predictor.create ();
    scoreboard = Scoreboard.create ();
    completions = Array.make cfg.rob_size 0;
    alu_free = Array.make cfg.alus 0;
    load_free = 0;
    store_free = 0;
    fetch_ready = 0;
    issued = 0;
    drain_free_at = 0;
    last_completion = 0;
    stats = Sim_stats.create ();
  }

let on_release t ~addr ~is_ckpt:_ ~region:_ ~at:_ = Mem_hierarchy.store_release t.mem addr

(* Background verification and drains up to [cycle]; a no-op unless a
   region verifies or an SB entry is due. *)
let settle t ~cycle =
  if Rbb.next_verify_time t.rbb <= cycle || Store_buffer.earliest_release t.sb <= cycle
  then begin
    while Rbb.next_verify_time t.rbb <= cycle do
      let start = Int.max (Rbb.next_verify_time t.rbb) t.drain_free_at in
      let seq = Rbb.pop t.rbb in
      t.drain_free_at <- Store_buffer.assign_releases t.sb ~region:seq ~start
    done;
    Store_buffer.release_up_to t.sb cycle t on_release
  end

(* Claim one unit of the ALU pool no earlier than [at]; each unit takes
   one operation per cycle, and the earliest-free unit (lowest index on a
   tie) is claimed. *)
let claim_alu t ~at =
  let pool = t.alu_free in
  let best = ref 0 in
  for i = 1 to Array.length pool - 1 do
    if pool.(i) < pool.(!best) then best := i
  done;
  let start = Int.max at pool.(!best) in
  pool.(!best) <- start + 1;
  start

(* Dispatch an instruction: respect the reorder window and fetch stream,
   wait for sources, claim the unit, record completion [start + latency].
   Returns the start cycle. *)
let dispatch t ~data_ready ~unit_kind ~latency =
  let slot = t.issued mod t.cfg.rob_size in
  let window_ready = t.completions.(slot) in
  let at = Int.max (Int.max window_ready t.fetch_ready) data_ready in
  settle t ~cycle:at;
  let start =
    match unit_kind with
    | `Alu -> claim_alu t ~at
    | `Load ->
      let s = Int.max at t.load_free in
      t.load_free <- s + 1;
      s
    | `Store ->
      let s = Int.max at t.store_free in
      t.store_free <- s + 1;
      s
  in
  let completion = start + latency in
  t.completions.(slot) <- completion;
  t.issued <- t.issued + 1;
  t.last_completion <- Int.max t.last_completion completion;
  t.stats.Sim_stats.instructions <- t.stats.Sim_stats.instructions + 1;
  start

(* Wait for a free store-buffer entry no earlier than [at]. *)
let rec sb_entry_at t ~at =
  settle t ~cycle:at;
  if not (Store_buffer.is_full t.sb) then at
  else
    let event_at =
      let drain = Store_buffer.earliest_release t.sb in
      if drain <> max_int then drain else Rbb.next_verify_time t.rbb
    in
    let next = if event_at = max_int then at + 1 else Int.max event_at (at + 1) in
    t.stats.Sim_stats.sb_full_stall_cycles <-
      t.stats.Sim_stats.sb_full_stall_cycles + (next - at);
    sb_entry_at t ~at:next

(* A store or checkpoint: dispatch through the store port, then claim a
   store-buffer entry. *)
let handle_store t ~data_ready ~addr ~is_ckpt =
  let start = dispatch t ~data_ready ~unit_kind:`Store ~latency:1 in
  (* A store only completes (commits) once a store-buffer entry is free:
     the wait flows into its ROB completion slot, so a full SB
     backpressures dispatch through the reorder window — exactly how a
     real OoO core feels quarantine pressure. *)
  let commit_slot = (t.issued - 1) mod t.cfg.rob_size in
  let at =
    if t.cfg.verification || Store_buffer.is_full t.sb then sb_entry_at t ~at:start
    else start
  in
  t.completions.(commit_slot) <- Int.max t.completions.(commit_slot) (at + 1);
  t.last_completion <- Int.max t.last_completion (at + 1);
  if t.cfg.verification then begin
    Store_buffer.alloc t.sb ~addr ~region:(Rbb.current_seq t.rbb) ~is_ckpt
      ~release_at:Store_buffer.quarantined;
    t.stats.Sim_stats.quarantined <- t.stats.Sim_stats.quarantined + 1
  end
  else Store_buffer.alloc t.sb ~addr ~region:0 ~is_ckpt ~release_at:(at + 2);
  if is_ckpt then t.stats.Sim_stats.ckpts <- t.stats.Sim_stats.ckpts + 1
  else t.stats.Sim_stats.stores <- t.stats.Sim_stats.stores + 1

let run_event t (tr : Trace.t) i =
  let w = Trace.word tr i in
  let data_ready = Scoreboard.sources_ready t.scoreboard tr i w in
  match Trace.op_of_word w with
  | Trace.Op_boundary ->
    if Rbb.has_open t.rbb then
      ignore (Rbb.close_region t.rbb ~end_cycle:t.last_completion ~wcdl:t.cfg.wcdl);
    (* The 16-entry RBB of an OoO core effectively never fills on these
       traces; regions open at the current completion frontier. *)
    ignore (Rbb.open_region t.rbb ~static_id:(Trace.aux tr i));
    t.stats.Sim_stats.boundaries <- t.stats.Sim_stats.boundaries + 1
  | Trace.Op_alu ->
    let start = dispatch t ~data_ready ~unit_kind:`Alu ~latency:1 in
    if Trace.flag_of_word w then Scoreboard.set t.scoreboard (Trace.dst_of_word w) (start + 1)
  | Trace.Op_load ->
    let addr = Trace.aux tr i in
    let lat =
      if Store_buffer.contains_addr t.sb addr then begin
        ignore (Mem_hierarchy.load_latency t.mem addr);
        t.stats.Sim_stats.sb_forwards <- t.stats.Sim_stats.sb_forwards + 1;
        t.cfg.mem.Mem_hierarchy.l1_hit
      end
      else Mem_hierarchy.load_latency t.mem addr
    in
    let start = dispatch t ~data_ready ~unit_kind:`Load ~latency:lat in
    Scoreboard.set t.scoreboard (Trace.dst_of_word w) (start + lat);
    t.stats.Sim_stats.loads <- t.stats.Sim_stats.loads + 1
  | Trace.Op_store ->
    handle_store t ~data_ready ~addr:(Trace.aux tr i) ~is_ckpt:false
  | Trace.Op_ckpt ->
    let src = Trace.src0_of_word w in
    handle_store t ~data_ready
      ~addr:(Layout.ckpt_slot ~reg:(Int.max src 0) ~color:0)
      ~is_ckpt:true
  | Trace.Op_branch ->
    let start = dispatch t ~data_ready ~unit_kind:`Alu ~latency:1 in
    let taken = Trace.nsrcs_of_word w = 0 || Trace.flag_of_word w in
    if not (Branch_predictor.update t.predictor ~pc:(Trace.aux tr i) ~taken) then
      t.fetch_ready <- start + 1 + t.cfg.branch_penalty

let simulate cfg trace =
  let t = create cfg in
  ignore (Rbb.open_region t.rbb ~static_id:(-1));
  for i = 0 to Trace.length trace - 1 do
    run_event t trace i
  done;
  t.stats.Sim_stats.cycles <- t.last_completion + 1;
  t.stats.Sim_stats.complete <- trace.Trace.complete;
  t.stats.Sim_stats.branch_mispredicts <- Branch_predictor.mispredicts t.predictor;
  t.stats.Sim_stats.l1_hit_rate <- Cache.hit_rate (Mem_hierarchy.l1 t.mem);
  t.stats
