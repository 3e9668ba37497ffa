(** Region-transactional executor: the functional (architectural) model of
    Turnstile/Turnpike error containment and recovery.

    Quarantined stores are undo-logged per dynamic region and commit when
    the region verifies; WAR-free regular stores (CLQ decision) and colored
    checkpoint stores release immediately; a fault flips register bits
    mid-run and is detected by the sensors within the verification window —
    or immediately by register parity when a tainted register is about to
    address memory (paper §5). Detection rolls back every unverified
    region, restores the restart region's live-in registers from verified
    checkpoint storage (running pruning's reconstruction expressions) and
    resumes at the region head.

    Recovery correctness is an architectural property; the module is
    deliberately independent of the cycle-level timing model. *)

open Turnpike_ir
module Clq = Turnpike_arch.Clq
module Pass_pipeline = Turnpike_compiler.Pass_pipeline

type config = {
  verify_delay : int;  (** steps from region end to verification (WCDL stand-in) *)
  coloring : bool;
  clq : Clq.design option;
  nregs : int;
  unsafe_ckpt_release : bool;
      (** paper Fig 16: release checkpoints without coloring — intentionally
          unsound; exists to demonstrate why coloring is necessary *)
  honor_static_claims : bool;
      (** trust the pipeline's static release claims
          ({!Turnpike_compiler.Claims.t}): claimed WAR-free stores and
          direct-release checkpoints skip the quarantine — sound exactly
          when the claims are; the differential oracle feeds it wrong
          claims to cross-check the static checker dynamically *)
  fuel : int;
  max_recoveries : int;
}

val default_config : config
(** Turnpike hardware: coloring on, 2-entry compact CLQ. *)

val turnstile_config : config
(** No fast release at all: everything quarantines. *)

type detection = Sensor | Parity

type outcome = {
  state : Interp.state;
  recoveries : int;
  detections : detection list;
  fast_released_stores : int;
  colored_ckpts : int;
  quarantined_writes : int;
}

exception Recovery_failed of string

exception Out_of_fuel of { recoveries : int; steps : int }
(** The fuel budget ran out: [recoveries] recoveries had been performed and
    the interpreter had executed [steps] steps — enough for campaign triage
    to tell recovery livelock from a genuinely wedged program. *)

val run :
  ?fault:Fault.t ->
  ?faults:Fault.t list ->
  ?config:config ->
  ?tel:Turnpike_telemetry.sink ->
  Pass_pipeline.t ->
  outcome
(** Execute a compiled program, optionally injecting faults ([fault] and
    [faults] are merged and sorted by strike step; several faults may be
    in flight, each detected within the verification window). At exit all
    remaining verifications are drained: quarantined regions commit and
    buffered fallback checkpoints reach checkpoint storage, so the final
    memory is fully committed state.

    [tel] (default {!Turnpike_telemetry.null}) receives the forensic
    lifecycle of every injected fault, category ["forensics"]: a
    [strike] instant when the flip lands (args: [reg], [xor_mask],
    [at_step]), a [taint_use] instant at the first instruction consuming
    a tainted register, a [detect] instant when the sensor or parity path
    fires (args: [kind], [latency] in fault-free positions), a [rollback]
    instant plus a [reexec] complete-span when recovery restarts a region
    (args: [restart_region], [restart_block], [discarded_regions],
    [undone_writes], [rewind]), and a [reconverge] instant at the first
    step after recovery with no fault in flight, no pending detection and
    no live taint — from which the run's remainder is fully determined.
    Every event carries [ts] = dynamic step plus [pos] (fault-free
    position), [region] (open static region id, -1 when none) and the
    static ([func], [block], [index]) site. All stamps are deterministic
    functions of executor state: the stream is byte-identical across
    [--jobs] counts and across snapshot-forked vs from-scratch replays.
    @raise Recovery_failed when recovery cannot proceed (by design only
    reachable through [unsafe_ckpt_release] or broken compilation).
    @raise Out_of_fuel when the fuel budget is exhausted. *)

(** {2 Snapshot / fork support}

    A {e pilot} is a fault-free run that captures a frozen copy of the
    whole executor — interpreter state plus region, quarantine, CLQ and
    coloring bookkeeping, with the pilot's config and compiled program —
    every [every] steps. A faulted run forked from the snapshot nearest
    (at or before) its strike site produces exactly the outcome of a
    from-scratch {!run} with the same fault: the pre-strike prefix of the
    faulted run is identical to the pilot, and once the fault's effects
    have fully healed the fork recognises that its state has re-converged
    with a later pilot snapshot and adopts the pilot's suffix instead of
    re-executing it. *)

type snapshot

val snapshot_step : snapshot -> int
(** The fault-free step index (position) the snapshot was captured at. *)

val capture_pilot :
  ?config:config -> every:int -> Pass_pipeline.t -> outcome * snapshot array
(** Fault-free run capturing a snapshot every [every] steps, starting at
    step 0; snapshots are returned in ascending step order.
    @raise Invalid_argument when [every <= 0]. *)

val resume :
  ?tel:Turnpike_telemetry.sink ->
  snapshots:snapshot array ->
  pilot_outcome:outcome ->
  from:snapshot ->
  Fault.t ->
  outcome
(** Fork a run of one [fault] from [from] (which must satisfy
    [snapshot_step from <= fault.at_step]) recorded, with [snapshots] and
    [pilot_outcome], by one {!capture_pilot}; the fork runs under that
    pilot's config and compiled program. The outcome's [state],
    [recoveries] and [detections] are byte-identical to
    [run ~fault ~config]; on a convergence early exit the release/ckpt
    counters reflect only the work the fork actually executed. [tel]
    receives the same forensic lifecycle events, byte-identical to the
    from-scratch run's (see {!run}): no event precedes the strike, and
    the reconvergence instant is a pure state predicate, so adopting the
    pilot suffix early loses nothing. *)
