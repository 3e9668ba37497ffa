(* Snapshot plans: one fault-free pilot run per (compiled program, config)
   recording periodic deep copies of the recovery executor, from which
   every fault of a campaign forks at the snapshot nearest its strike
   site. Forked outcomes are byte-identical to from-scratch replays (the
   differential tests pin this), so campaigns pay O(suffix) per fault
   instead of O(trace). *)

module Pass_pipeline = Turnpike_compiler.Pass_pipeline

type plan = {
  config : Recovery.config;
  compiled : Pass_pipeline.t;
  every : int;
  snaps : Recovery.snapshot array; (* ascending step order; [0] is step 0 *)
  pilot : Recovery.outcome;
}

let default_every = 512

let record ?(config = Recovery.default_config) ?(every = default_every) compiled =
  let pilot, snaps = Recovery.capture_pilot ~config ~every compiled in
  { config; compiled; every; snaps; pilot }

let pilot_outcome plan = plan.pilot

let snapshot_count plan = Array.length plan.snaps

(* Latest snapshot at or before [step]. The array always holds a step-0
   snapshot, so the search cannot come up empty for step >= 0. *)
let nearest plan ~step =
  let snaps = plan.snaps in
  let lo = ref 0 and hi = ref (Array.length snaps - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if Recovery.snapshot_step snaps.(mid) <= step then lo := mid else hi := mid - 1
  done;
  snaps.(!lo)

let fork ?tel plan (fault : Fault.t) =
  Recovery.resume ?tel ~snapshots:plan.snaps ~pilot_outcome:plan.pilot
    ~from:(nearest plan ~step:fault.Fault.at_step)
    fault
