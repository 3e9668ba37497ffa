(** Named resilience schemes: each pairs a set of compiler optimizations
    with a hardware feature set. The ablation ladder reproduces the
    paper's Fig 21 configurations in order. *)

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
      (** counted-loop unroll factor of the binary (1 = off); a compile
          knob, so {!compile_key} covers it *)
}

val baseline : t
(** No resilience: the normalization denominator. *)

val turnstile : t
(** The prior state of the art: verification without any Turnpike
    optimization. *)

val war_free_checking : t
(** Turnstile + CLQ fast release of WAR-free regular stores. *)

val fast_release : t
(** + hardware coloring (fast release of checkpoint stores). *)

val fast_release_pruning : t
val plus_licm : t
val plus_sched : t
val plus_ra : t

val turnpike : t
(** All optimizations (adds loop induction variable merging). *)

val ladder : t list
(** The 8 configurations of the paper's Fig 21, in order. *)

val with_clq : t -> Clq.design option -> t

val with_unroll : t -> int -> t
(** The same scheme compiled with counted loops unrolled by the given
    factor (1 = off). *)

val unprotected : t -> t
(** The normalization baseline of a scheme's binary: {!baseline} with the
    same unroll factor. *)

val compile_opts : t -> sb_size:int -> Pass_pipeline.opts
val machine : t -> wcdl:int -> sb_size:int -> Machine.t

val compile_key : t -> sb_size:int -> string
(** Identifies the compile configuration (traces depend only on the
    binary, not the machine); used as a cache key. *)
