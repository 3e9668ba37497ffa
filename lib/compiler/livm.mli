(** Loop induction variable merging (LIVM, paper §4.1.2) — one of
    Turnpike's two novel compiler optimizations.

    Strength reduction turns address expressions into separate basic
    induction variables; each is loop-carried, hence live-out of every
    iteration region and checkpointed every iteration. LIVM merges such a
    variable [r2] (init B, step s2) into an anchor basic induction variable
    [r1] (init 0, step s1 with s1 | s2) by recomputing
    [r2 = B + r1 * (s2 / s1)] locally at each use — the loop-carried
    dependence, and with it the per-iteration checkpoint, disappears.

    Runs before register allocation, on virtual registers. *)

open Turnpike_ir

(** One merge the pass performed, reported so the analysis layer can
    audit it against a before/after snapshot pair. *)
type merge = {
  victim : Reg.t;  (** the merged-away induction variable *)
  anchor : Reg.t;  (** the surviving IV the victim recomputes from *)
  ratio : int;  (** victim step / anchor step (≥ 1) *)
  m_base : [ `Const of int | `Reg of Reg.t ];  (** victim's loop-entry value *)
  header : string;  (** header of the loop the merge happened in *)
}

type result = {
  func : Func.t;
  merged : int;  (** induction variables eliminated by merging *)
  merges : merge list;  (** one record per elimination, in merge order *)
}

val run : ?ctx:Turnpike_analysis.Context.t -> Func.t -> result
