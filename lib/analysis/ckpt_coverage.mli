(** Checkpoint coverage at block entries: for every reachable block, the
    registers whose checkpoint slot may be stale on some path into it (a
    definition stales the slot, a checkpoint re-covers it, the entry is
    all-covered). The dataflow behind {!Recoverability}; cached per
    context by {!Context.coverage}. *)

open Turnpike_ir

type t

val compute : Cfg.t -> Func.t -> t

val stale_in : t -> string -> Reg.t -> bool
(** [stale_in t block r]: [r]'s slot may be stale at [block]'s entry.
    False for unknown or unreachable blocks. Partially apply to [block]
    to look the block up once. *)
