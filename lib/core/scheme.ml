(* Named resilience schemes: each pairs a set of compiler optimizations
   with a hardware feature set. The ablation ladder reproduces the paper's
   Fig 21 configurations in order. *)

module Pass_pipeline = Turnpike_compiler.Pass_pipeline
module Machine = Turnpike_arch.Machine
module Clq = Turnpike_arch.Clq

type t = {
  name : string;
  resilient : bool;
  store_aware_ra : bool;
  livm : bool;
  pruning : bool;
  licm : bool;
  sched : bool;
  clq : Clq.design option;
  coloring : bool;
  unroll : int;
}

let baseline =
  {
    name = "baseline";
    resilient = false;
    store_aware_ra = false;
    livm = false;
    pruning = false;
    licm = false;
    sched = false;
    clq = None;
    coloring = false;
    unroll = 1;
  }

let turnstile = { baseline with name = "turnstile"; resilient = true }

let war_free_checking =
  { turnstile with name = "war-free-checking"; clq = Some (Clq.Compact 2) }

let fast_release = { war_free_checking with name = "fast-release"; coloring = true }

let fast_release_pruning =
  { fast_release with name = "fast-release+pruning"; pruning = true }

let plus_licm = { fast_release_pruning with name = "+licm"; licm = true }

let plus_sched = { plus_licm with name = "+inst-sched"; sched = true }

let plus_ra = { plus_sched with name = "+ra-trick"; store_aware_ra = true }

let turnpike = { plus_ra with name = "turnpike"; livm = true }

let ladder =
  [
    turnstile;
    war_free_checking;
    fast_release;
    fast_release_pruning;
    plus_licm;
    plus_sched;
    plus_ra;
    turnpike;
  ]

let with_clq t design = { t with clq = design }
let with_unroll t factor = { t with unroll = factor }

(* The normalization baseline of a binary: no resilience, same program
   shape. *)
let unprotected t = { baseline with unroll = t.unroll }

let compile_opts t ~sb_size =
  {
    Pass_pipeline.turnstile_opts with
    Pass_pipeline.sb_size;
    resilient = t.resilient;
    store_aware_ra = t.store_aware_ra;
    livm = t.livm;
    pruning = t.pruning;
    licm = t.licm;
    sched = t.sched;
    unroll = t.unroll;
  }

let machine t ~wcdl ~sb_size =
  if not t.resilient then { Machine.baseline with Machine.sb_size }
  else
    {
      Machine.baseline with
      Machine.name = t.name;
      sb_size;
      wcdl;
      verification = true;
      clq = t.clq;
      coloring = t.coloring;
    }

(* A key identifying the compile configuration: traces depend only on the
   compiled binary, not on the machine, so runs cache on this key. *)
let compile_key t ~sb_size =
  Printf.sprintf "sb%d:r%b:ra%b:iv%b:pr%b:li%b:sc%b:u%d" sb_size t.resilient
    t.store_aware_ra t.livm t.pruning t.licm t.sched t.unroll
