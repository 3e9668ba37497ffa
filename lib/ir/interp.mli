(** Functional (architectural) interpreter.

    It defines the reference semantics used by correctness checks, produces
    dynamic traces for the cycle-level timing model, and exposes a
    single-step API that the resilience engine drives for fault injection
    and region-restart recovery. *)

type pc = { block : string; index : int }
(** Program counter: a block label and an instruction index within it;
    index [= Array.length body] denotes the terminator. *)

type regs
(** The register file. Abstract: only this module knows its
    representation. An unset register reads 0. *)

type mem
(** Data memory. Abstract, like {!regs}. An unset address reads 0. *)

type state = {
  regs : regs;
  mem : mem;
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

val copy : state -> state
(** An independent copy: fresh registers and memory, same [pc], [steps]
    and [halted]. *)

val mem_diff : only:(int -> bool) -> state -> state -> int option
(** The lowest address accepted by [only] whose value differs between the
    two states, absent bindings reading as 0; [None] when they agree on
    every such address. *)

val regs_equal : state -> state -> bool
(** Register-file equality, unset registers reading as 0. *)

val mem_equal : state -> state -> bool
(** Memory equality at every address ([mem_diff] accepting all). *)

val app_mem_equal : state -> state -> bool
(** Memory equality at every non-checkpoint address: the data segment
    and the spill slots. Checkpoint slots legitimately differ across
    resilience schemes. SDC verification ([Verifier.compare_states])
    compares the data segment alone. *)

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

type code
(** A function prepared for stepping (its fall-through table built once). *)

val prepare : Func.t -> code

val current_instr : code -> state -> Instr.t option
(** The body instruction at the current PC; [None] at a terminator. *)

val step : ?hooks:hooks -> code -> state -> unit
(** Execute the instruction (or terminator) at the current PC and advance.
    No-op once [halted]. A control transfer to the layout successor costs
    no fetch redirect: a fall-through unconditional jump emits no event
    (boundary block splits are PC markers, not code), and a branch's
    [taken] flag means "fetch redirected". *)

val run : ?fuel:int -> ?hooks:hooks -> Prog.t -> state
(** Run to completion. @raise Out_of_fuel after [fuel] steps (default 1e7). *)

val trace_run : ?fuel:int -> Prog.t -> Trace.t * state
(** Run (up to [fuel] steps, default 1e6) collecting the dynamic trace,
    appended event by event into {!Trace.Buf} columns.
    The trace is marked incomplete instead of raising when fuel runs out —
    mirroring the paper's fixed-length simulation windows. *)
