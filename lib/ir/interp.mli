(** Functional (architectural) interpreter.

    It defines the reference semantics used by correctness checks, produces
    dynamic traces for the cycle-level timing model, and exposes a
    single-step API that the resilience engine drives for fault injection
    and region-restart recovery. *)

type pc = { block : string; index : int }
(** Program counter: a block label and an instruction index within it;
    index [= Array.length body] denotes the terminator. *)

type state = {
  regs : (Reg.t, int) Hashtbl.t;
  mem : (int, int) Hashtbl.t;
  mutable pc : pc;
  mutable steps : int;
  mutable halted : bool;
}

exception Out_of_fuel

val get_reg : state -> Reg.t -> int
(** {!Reg.zero} always reads 0; unset registers read 0. Allocation-free,
    like {!get_mem}. *)

val set_reg : state -> Reg.t -> int -> unit
(** Writes to {!Reg.zero} are discarded. *)

val get_mem : state -> int -> int
(** Uninitialized memory reads 0. *)

val set_mem : state -> int -> int -> unit

val init : Prog.t -> state
(** Fresh state with the program's memory image and input registers. *)

type hooks = {
  on_ckpt : state -> Reg.t -> unit;
      (** Semantics of [Ckpt r]. The default writes the register to its
          color-0 checkpoint slot (Turnstile behaviour); the resilience
          engine substitutes color-aware behaviour. *)
  on_boundary : state -> int -> unit;
  on_load : state -> int -> unit;
      (** Called with the effective address of every executed load, after
          its register write. *)
  write_mem : state -> int -> int -> unit;
      (** Semantics of a store's memory write. The default writes through;
          the resilience engine substitutes an undo-logged (quarantined)
          write. *)
}

val no_hooks : hooks

val default_ckpt : state -> Reg.t -> unit

val exec_instr : hooks -> state -> Instr.t -> unit
(** Execute one instruction's data semantics (no PC update). *)

val step : ?hooks:hooks -> ?fallthrough:(string, string) Hashtbl.t -> Func.t -> state -> unit
(** Execute the instruction (or terminator) at the current PC and advance.
    No-op once [halted]. A control transfer to the layout successor costs
    no fetch redirect: a fall-through unconditional jump emits no event
    (boundary block splits are PC markers, not code), and a branch's
    [taken] flag means "fetch redirected". [fallthrough] (from
    {!Func.fallthrough_table}) avoids recomputing layout per step. *)

val run : ?fuel:int -> ?hooks:hooks -> Prog.t -> state
(** Run to completion. @raise Out_of_fuel after [fuel] steps (default 1e7). *)

val trace_run : ?fuel:int -> Prog.t -> Trace.t * state
(** Run (up to [fuel] steps, default 1e6) collecting the dynamic trace,
    appended event by event into {!Trace.Buf} columns.
    The trace is marked incomplete instead of raising when fuel runs out —
    mirroring the paper's fixed-length simulation windows. *)

val mem_equal : state -> state -> bool
(** Memory equality, treating absent bindings as zero. *)

val app_mem_equal : state -> state -> bool
(** Memory equality restricted to non-checkpoint addresses — the
    observable application state compared by SDC verification. *)
