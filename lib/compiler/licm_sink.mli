(** Checkpoint sinking with loop-invariant code motion (paper §4.1.4).

    Eager checkpointing can be relaxed: a checkpoint only has to execute
    before its region ends, so it may sink from right-after-the-definition
    to any later region point. When a region tree spans a loop-exit edge,
    a checkpoint in a loop block sinks into the once-executed exit block —
    leaving the iteration path — provided the register is live on no other
    region exit (in particular, not loop-carried). Checkpoints made
    redundant by the motion are deduplicated. *)

open Turnpike_ir

type result = {
  func : Func.t;
  moved : int;  (** checkpoints sunk to a shallower block *)
  eliminated : int;  (** redundant duplicates removed afterwards *)
}

val run : ?ctx:Turnpike_analysis.Context.t -> Func.t -> result
(** Requires boundary markers and checkpoints to be present. Analyses
    come from [ctx] (default: a fresh context over the function), read
    before the first edit. *)
