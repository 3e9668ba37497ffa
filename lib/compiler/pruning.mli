(** Optimal checkpoint pruning (paper §4.1.3, after Penny).

    A checkpoint is removed when its value is reconstructible at recovery
    time from constants and the verified checkpoint slots of other
    registers. This is the conservative core of the algorithm: it requires
    the register (and each expression operand) to have a single definition
    so the reconstruction is unique and exact. The produced
    {!Recovery_expr.t} values are executed for real by the resilience
    engine, making pruning soundness an end-to-end tested property. *)

open Turnpike_ir

type result = {
  func : Func.t;  (** the same function with pruned checkpoints removed *)
  exprs : (Reg.t, Recovery_expr.t) Hashtbl.t;
      (** pruned register -> reconstruction expression *)
  pruned : int;  (** checkpoint instructions removed *)
}

val run : ?ctx:Turnpike_analysis.Context.t -> Func.t -> result
