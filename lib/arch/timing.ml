(* Trace-driven, cycle-level model of a dual-issue in-order core with
   sensor-based soft error verification.

   The model replays a dynamic trace through a scoreboarded in-order
   pipeline. It captures exactly the three mechanisms the paper's overheads
   come from:
   - data hazards: an instruction issues only when its source registers are
     ready (checkpoint stores wait on their register-update producer);
   - structural hazards: a store/checkpoint needs a free store-buffer entry
     at commit, and a region boundary needs a free RBB entry; under
     verification, SB entries release only WCDL cycles after their region
     ends (one per cycle through a shared drain port);
   - fast release: WAR-free regular stores (CLQ) and colored checkpoint
     stores bypass the store buffer entirely. *)

open Turnpike_ir
module Telemetry = Turnpike_telemetry

exception Partitioning_violation of string

(* Timeline track (tid) layout, mirrored by [Telemetry.Export.chrome]
   thread-name metadata in the timeline driver:
   0 regions (B/E spans), 1 stalls (sb_full / rbb_full X-spans),
   2 sensor verification windows (X-spans of length WCDL),
   3 store-buffer quarantine / release instants,
   4 CLQ bypass / overflow instants. Counters ride on tid 0. *)
let track_regions = 0
let track_stalls = 1
let track_verify = 2
let track_sb = 3
let track_clq = 4

type t = {
  tel : Telemetry.sink;
  machine : Machine.t;
  mem : Mem_hierarchy.t;
  sb : Store_buffer.t;
  rbb : Rbb.t;
  clq : Clq.t option;
  coloring : Coloring.t option;
  predictor : Branch_predictor.t;
  stats : Sim_stats.t;
  scoreboard : Scoreboard.t;
  mutable cycle : int; (* current issue cycle *)
  mutable slots : int; (* issue slots used in [cycle] *)
  mutable load_port_cycle : int; (* last cycle the load AGU was used *)
  mutable store_port_cycle : int; (* last cycle the store AGU was used *)
  mutable fetch_ready : int; (* earliest issue after a taken branch *)
  mutable drain_free_at : int; (* next free SB->L1 drain cycle *)
}

let create ?(tel = Telemetry.null) (machine : Machine.t) =
  {
    tel;
    machine;
    mem = Mem_hierarchy.create machine.mem;
    sb = Store_buffer.create machine.sb_size;
    rbb = Rbb.create machine.rbb_size;
    clq = Option.map Clq.create machine.clq;
    coloring = (if machine.coloring then Some (Coloring.create ~colors:machine.Machine.colors ~nregs:machine.nregs ()) else None);
    predictor = Branch_predictor.create ();
    stats = Sim_stats.create ();
    scoreboard = Scoreboard.create ();
    cycle = 0;
    slots = 0;
    load_port_cycle = -1;
    store_port_cycle = -1;
    fetch_ready = 0;
    drain_free_at = 0;
  }

(* Cycle-stamped timeline events. Every site guards on the sink's immutable
   [enabled] flag, so a disabled run pays one field load per site and
   allocates nothing. Timestamps are simulated cycles, never wall clock —
   that is what makes the export deterministic across [--jobs]. *)
let ev_enabled t = Telemetry.enabled t.tel

let ev_stall t ~name ~from ~until =
  if ev_enabled t && until > from then
    Telemetry.complete t.tel ~ts:from ~dur:(until - from) ~tid:track_stalls
      ~cat:"stall" name

(* Open/close the region span on track 0, sample the occupancy counters at
   the boundary, and stamp the sensor verification window that closing a
   region schedules: the region verifies error-free only once every strike
   that could corrupt it has had WCDL cycles to reach a sensor. *)
let ev_region_open t ~static_id ~seq =
  if ev_enabled t then begin
    Telemetry.span_begin t.tel ~ts:t.cycle ~tid:track_regions ~cat:"region"
      ~args:[ ("static_id", Telemetry.Int static_id); ("seq", Telemetry.Int seq) ]
      "region";
    Telemetry.counter t.tel ~ts:t.cycle "occupancy"
      [
        ("sb_occupancy", Telemetry.Int (Store_buffer.occupancy t.sb));
        ("rbb_unverified", Telemetry.Int (Rbb.unverified_count t.rbb));
        ( "clq_entries",
          Telemetry.Int
            (match t.clq with Some c -> Clq.entries_in_use c | None -> 0) );
      ]
  end

let ev_region_close t ~seq =
  if ev_enabled t then begin
    Telemetry.span_end t.tel ~ts:t.cycle ~tid:track_regions ~cat:"region"
      ~args:[ ("seq", Telemetry.Int seq) ]
      "region";
    if t.machine.verification then
      Telemetry.complete t.tel ~ts:t.cycle ~dur:t.machine.wcdl
        ~tid:track_verify ~cat:"sensor"
        ~args:[ ("seq", Telemetry.Int seq) ]
        "verify_window"
  end

(* A drained SB entry reaches L1 (closed over nothing, so passing it to
   [Store_buffer.release_up_to] allocates no closure). *)
let on_release t ~addr ~is_ckpt ~region ~at =
  Mem_hierarchy.store_release t.mem addr;
  if ev_enabled t then
    Telemetry.instant t.tel ~ts:at ~tid:track_sb ~cat:"sb"
      ~args:
        [
          ("addr", Telemetry.Int addr);
          ("region", Telemetry.Int region);
          ("is_ckpt", Telemetry.Bool is_ckpt);
        ]
      "release"

(* Process background events (region verifications, SB drains) up to and
   including [cycle]. Nothing happens, and nothing is scanned, unless a
   region verifies or an SB entry is due by then. *)
let settle t ~cycle =
  if Rbb.next_verify_time t.rbb <= cycle || Store_buffer.earliest_release t.sb <= cycle
  then begin
    while Rbb.next_verify_time t.rbb <= cycle do
      let start = Int.max (Rbb.next_verify_time t.rbb) t.drain_free_at in
      let seq = Rbb.pop t.rbb in
      t.drain_free_at <- Store_buffer.assign_releases t.sb ~region:seq ~start;
      (match t.coloring with
      | Some col -> Coloring.on_region_verified col ~region:seq
      | None -> ());
      match t.clq with
      | Some clq ->
        Clq.on_region_verified clq ~region:seq;
        Clq.maybe_enable clq ~unverified_regions:(Rbb.unverified_count t.rbb)
      | None -> ()
    done;
    Store_buffer.release_up_to t.sb cycle t on_release
  end

(* Move the issue point to [c] (settling background state), resetting the
   per-cycle slot count when the cycle advances. *)
let advance_to t c =
  if c > t.cycle then begin
    settle t ~cycle:c;
    t.cycle <- c;
    t.slots <- 0
  end

(* The first cycle after the issue point at which [event_at] (a
   verification or drain time, [max_int] for none) may change state. *)
let next_after t event_at =
  if event_at = max_int then t.cycle + 1 else Int.max event_at (t.cycle + 1)

type port = No_port | Load_port | Store_port

let port_busy t = function
  | No_port -> false
  | Load_port -> t.load_port_cycle = t.cycle
  | Store_port -> t.store_port_cycle = t.cycle

(* Claim an issue slot at the earliest cycle >= [data_ready] and the
   fetch point. The core has one load AGU and one store AGU (Cortex-A53
   style), so a load and a store may issue in the same cycle but two
   loads (or two stores) may not. Returns the issue cycle. *)
let issue t ~data_ready ~port =
  let earliest = Int.max (Int.max data_ready t.fetch_ready) t.cycle in
  if earliest > t.cycle then
    t.stats.data_stall_cycles <-
      t.stats.data_stall_cycles + (earliest - t.cycle);
  advance_to t earliest;
  while t.slots >= t.machine.issue_width || port_busy t port do
    advance_to t (t.cycle + 1)
  done;
  t.slots <- t.slots + 1;
  (match port with
  | No_port -> ()
  | Load_port -> t.load_port_cycle <- t.cycle
  | Store_port -> t.store_port_cycle <- t.cycle);
  t.cycle

(* Wait (from the current issue point) until the store buffer has a free
   entry, charging the wait to SB-full stalls. *)
let wait_for_sb_entry t =
  let waited_from = t.cycle in
  settle t ~cycle:t.cycle;
  while Store_buffer.is_full t.sb do
    let current = Rbb.current_seq t.rbb in
    if Store_buffer.all_unreleasable t.sb ~current_region:current then begin
      (* A single region filled the whole SB: the compiler's SB-aware
         partitioning is supposed to prevent this. *)
      if t.machine.strict_partitioning then
        raise
          (Partitioning_violation
             (Printf.sprintf "region %d holds all %d SB entries" current
                t.machine.sb_size));
      t.stats.partition_violations <- t.stats.partition_violations + 1;
      match Store_buffer.force_release_oldest t.sb with
      | Some (addr, _) -> Mem_hierarchy.store_release t.mem addr
      | None -> ()
    end
    else begin
      let drain = Store_buffer.earliest_release t.sb in
      advance_to t
        (next_after t (if drain <> max_int then drain else Rbb.next_verify_time t.rbb))
    end;
    settle t ~cycle:t.cycle
  done;
  if t.cycle > waited_from then begin
    t.stats.sb_full_stall_cycles <-
      t.stats.sb_full_stall_cycles + (t.cycle - waited_from);
    ev_stall t ~name:"sb_full" ~from:waited_from ~until:t.cycle
  end

let handle_boundary t ~static_id =
  settle t ~cycle:t.cycle;
  (* Close the running region, if any. *)
  if Rbb.has_open t.rbb then
    ev_region_close t ~seq:(Rbb.close_region t.rbb ~end_cycle:t.cycle ~wcdl:t.machine.wcdl);
  (* A new region needs an RBB entry: stall while too many regions are
     still unverified. *)
  let waited_from = t.cycle in
  while Rbb.is_full t.rbb do
    advance_to t (next_after t (Rbb.next_verify_time t.rbb));
    settle t ~cycle:t.cycle
  done;
  if t.cycle > waited_from then begin
    t.stats.rbb_stall_cycles <- t.stats.rbb_stall_cycles + (t.cycle - waited_from);
    ev_stall t ~name:"rbb_full" ~from:waited_from ~until:t.cycle
  end;
  (match t.clq with
  | Some clq ->
    Clq.maybe_enable clq ~unverified_regions:(Rbb.unverified_count t.rbb);
    Clq.sample clq
  | None -> ());
  let seq = Rbb.open_region t.rbb ~static_id in
  ev_region_open t ~static_id ~seq;
  Store_buffer.sample t.sb;
  t.stats.boundaries <- t.stats.boundaries + 1

let handle_store t ~data_ready ~addr ~is_ckpt =
  if not t.machine.verification then begin
    (* Baseline: a store occupies the SB briefly while it drains to L1. *)
    if Store_buffer.is_full t.sb then wait_for_sb_entry t;
    let c = issue t ~data_ready ~port:Store_port in
    Store_buffer.alloc t.sb ~addr ~region:0 ~is_ckpt
      ~release_at:(c + t.machine.baseline_drain)
  end
  else begin
    let region = Rbb.current_seq t.rbb in
    let fast =
      (not is_ckpt)
      && (match t.clq with
         | Some clq -> Clq.war_free clq ~region addr
         | None -> false)
      && not (Store_buffer.contains_addr t.sb addr)
    in
    if fast then begin
      let c = issue t ~data_ready ~port:Store_port in
      Mem_hierarchy.store_release t.mem addr;
      t.stats.war_free_released <- t.stats.war_free_released + 1;
      if ev_enabled t then
        Telemetry.instant t.tel ~ts:c ~tid:track_clq ~cat:"clq"
          ~args:[ ("addr", Telemetry.Int addr); ("region", Telemetry.Int region) ]
          "bypass"
    end
    else begin
      if Store_buffer.is_full t.sb then wait_for_sb_entry t;
      let c = issue t ~data_ready ~port:Store_port in
      Store_buffer.alloc t.sb ~addr ~region ~is_ckpt ~release_at:Store_buffer.quarantined;
      t.stats.quarantined <- t.stats.quarantined + 1;
      if is_ckpt then t.stats.ckpt_quarantined <- t.stats.ckpt_quarantined + 1;
      if ev_enabled t then
        Telemetry.instant t.tel ~ts:c ~tid:track_sb ~cat:"sb"
          ~args:
            [
              ("addr", Telemetry.Int addr);
              ("region", Telemetry.Int region);
              ("is_ckpt", Telemetry.Bool is_ckpt);
            ]
          "quarantine"
    end
  end

let handle_ckpt t ~src ~data_ready =
  let region = Rbb.current_seq t.rbb in
  let color =
    if not t.machine.verification then -1
    else
      match t.coloring with
      | Some col when Reg.is_physical src -> Coloring.try_assign col ~reg:src ~region
      | Some _ | None -> -1
  in
  if color >= 0 then begin
    let c = issue t ~data_ready ~port:Store_port in
    Mem_hierarchy.store_release t.mem (Layout.ckpt_slot ~reg:src ~color);
    t.stats.colored_released <- t.stats.colored_released + 1;
    if ev_enabled t then
      Telemetry.instant t.tel ~ts:c ~tid:track_clq ~cat:"coloring"
        ~args:[ ("reg", Telemetry.Int src); ("color", Telemetry.Int color) ]
        "colored_bypass"
  end
  else
    let addr = Layout.ckpt_slot ~reg:(Int.max src 0) ~color:0 in
    handle_store t ~data_ready ~addr ~is_ckpt:true

(* Replay event [i], read straight from the trace columns. *)
let run_event t (tr : Trace.t) i =
  let w = Trace.word tr i in
  let data_ready = Scoreboard.sources_ready t.scoreboard tr i w in
  match Trace.op_of_word w with
  | Trace.Op_boundary -> handle_boundary t ~static_id:(Trace.aux tr i)
  | Trace.Op_alu ->
    let c = issue t ~data_ready ~port:No_port in
    if Trace.flag_of_word w then Scoreboard.set t.scoreboard (Trace.dst_of_word w) (c + 1);
    t.stats.instructions <- t.stats.instructions + 1
  | Trace.Op_load ->
    let addr = Trace.aux tr i in
    let c = issue t ~data_ready ~port:Load_port in
    (* Store-to-load forwarding: a load that hits a quarantined SB entry
       gets its data from the buffer at L1-hit speed — essential when
       verification holds stores in the SB for WCDL cycles. The cache is
       still probed to keep its state warm for the eventual release. *)
    let lat =
      if Store_buffer.contains_addr t.sb addr then begin
        ignore (Mem_hierarchy.load_latency t.mem addr);
        t.stats.sb_forwards <- t.stats.sb_forwards + 1;
        t.machine.mem.Mem_hierarchy.l1_hit
      end
      else Mem_hierarchy.load_latency t.mem addr
    in
    Scoreboard.set t.scoreboard (Trace.dst_of_word w) (c + lat);
    (match t.clq with
    | Some clq when t.machine.verification ->
      let overflowed = Clq.record_load clq ~region:(Rbb.current_seq t.rbb) addr in
      if overflowed && ev_enabled t then
        Telemetry.instant t.tel ~ts:c ~tid:track_clq ~cat:"clq"
          ~args:[ ("addr", Telemetry.Int addr) ]
          "overflow"
    | Some _ | None -> ());
    t.stats.loads <- t.stats.loads + 1;
    t.stats.instructions <- t.stats.instructions + 1
  | Trace.Op_store ->
    handle_store t ~data_ready ~addr:(Trace.aux tr i) ~is_ckpt:false;
    t.stats.stores <- t.stats.stores + 1;
    t.stats.instructions <- t.stats.instructions + 1
  | Trace.Op_ckpt ->
    handle_ckpt t ~src:(Trace.src0_of_word w) ~data_ready;
    t.stats.ckpts <- t.stats.ckpts + 1;
    t.stats.instructions <- t.stats.instructions + 1
  | Trace.Op_branch ->
    let c = issue t ~data_ready ~port:No_port in
    (* The bimodal predictor absorbs well-behaved branches (loop back
       edges); only mispredictions pay the fetch-redirect bubble. An
       unconditional non-fallthrough jump (no sources) is always
       predicted by the BTB once seen, and costs nothing thereafter. *)
    let taken = Trace.nsrcs_of_word w = 0 || Trace.flag_of_word w in
    if not (Branch_predictor.update t.predictor ~pc:(Trace.aux tr i) ~taken) then
      t.fetch_ready <- c + 1 + t.machine.branch_penalty;
    t.stats.instructions <- t.stats.instructions + 1

let finalize t (trace : Trace.t) =
  (* Balance the timeline: the final region never sees another boundary,
     so close its span at the last simulated cycle. *)
  if Rbb.has_open t.rbb && ev_enabled t then ev_region_close t ~seq:(Rbb.current_seq t.rbb);
  t.stats.cycles <- t.cycle + 1;
  t.stats.complete <- trace.Trace.complete;
  (match t.clq with
  | Some clq ->
    t.stats.clq_overflows <- Clq.overflows clq;
    t.stats.clq_mean_populated <- Clq.mean_populated clq;
    t.stats.clq_max_populated <- Clq.max_populated clq
  | None -> ());
  (match t.coloring with
  | Some col -> t.stats.coloring_fallbacks <- Coloring.fallbacks col
  | None -> ());
  t.stats.sb_mean_occupancy <- Store_buffer.mean_occupancy t.sb;
  t.stats.l1_hit_rate <- Cache.hit_rate (Mem_hierarchy.l1 t.mem);
  t.stats.branch_mispredicts <- Branch_predictor.mispredicts t.predictor;
  t.stats

let simulate ?tel machine trace =
  let t = create ?tel machine in
  (* An implicit region is open from program start even before the first
     boundary marker (the compiler always emits one at the entry, but raw
     un-partitioned programs must still simulate). *)
  let seq = Rbb.open_region t.rbb ~static_id:(-1) in
  ev_region_open t ~static_id:(-1) ~seq;
  for i = 0 to Trace.length trace - 1 do
    run_event t trace i
  done;
  finalize t trace
