(** Eager checkpointing (paper §2.2).

    Inserts a checkpoint store right after the last definition of every
    register that leaves its region live — turning register verification
    into memory verification. The entry region additionally checkpoints the
    program's input registers. *)

open Turnpike_ir

val insert :
  ?entry_live:Reg.t list -> ?ctx:Turnpike_analysis.Context.t -> Func.t -> Func.t * int
(** Insert checkpoints (in place; the function is also returned) and report
    how many were inserted. Requires boundary markers
    ({!Regions.partition} must have run). The liveness comes from [ctx]
    (default: a fresh context over the function), whose cache is
    invalidated when checkpoints were inserted. *)

val strip : ?ctx:Turnpike_analysis.Context.t -> Func.t -> Func.t
(** Remove all checkpoint instructions (in place), invalidating [ctx]'s
    cached analyses when any were removed. *)

val count : Func.t -> int
(** Static checkpoint-store count. *)
