(** Functional (architectural) interpreter.

    It defines the reference semantics used by correctness checks, produces
    dynamic traces for the cycle-level timing model, and exposes a
    single-step API that the resilience engine drives for fault injection
    and region-restart recovery. *)

type code
(** The function lowered once for stepping: int block ids, instruction
    arrays, and terminators whose targets and fetch redirects are
    resolved. *)

type regs
(** The register file. Abstract: only this module knows its
    representation (an int array, grown on a write to a higher id). An
    unset register reads 0. *)

type mem
(** Data memory. Abstract, like {!regs}: one table of copy-on-write
    128-word int-array pages per {!Layout} segment (data, spill,
    checkpoint), plus a sparse overflow table for unaligned addresses,
    addresses below {!Layout.data_base} and addresses too far past a
    segment's end to grow it. An unset address reads 0. *)

type state = {
  code : code;  (** the program this state runs, shared by copies *)
  mutable regs : regs;
  mem : mem;
  mutable block : int;
      (** The pc's block, an id in [code]; read it through {!label} and
          {!same_pc}, set it through {!jump}. *)
  mutable index : int;
      (** The pc's instruction index in the block; [index = length body]
          denotes the terminator. *)
  mutable steps : int;
  mutable halted : bool;
}

exception Out_of_fuel

val get_reg : state -> Reg.t -> int
(** {!Reg.zero} always reads 0; unset registers read 0. Allocation-free,
    like {!get_mem}. *)

val set_reg : state -> Reg.t -> int -> unit
(** Writes to {!Reg.zero} are discarded.
    @raise Invalid_argument on a negative register id. *)

val get_mem : state -> int -> int
(** Uninitialized memory reads 0. *)

val set_mem : state -> int -> int -> unit

val init : Prog.t -> state
(** Fresh state with the program's memory image and input registers, at
    the entry block. Lowers the program. *)

val copy : state -> state
(** An independent copy: fresh registers and memory, same pc, [steps] and
    [halted]. Memory pages are shared copy-on-write, so the copy costs a
    page-table copy per segment; writing to either state afterwards
    leaves the other untouched. The source gives up ownership of its
    pages, the one write [copy] makes to it; a state not written since
    it was last copied or created by [copy] (a snapshot) is only read,
    so several domains may copy it at once. The lowered program is
    shared. *)

val mem_diff : only:(int -> bool) -> state -> state -> int option
(** The lowest address accepted by [only] whose value differs between the
    two states, absent bindings reading as 0; [None] when they agree on
    every such address. [only] is called only on differing addresses,
    and pages the two states share are not compared. *)

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

val label : state -> string
(** The label of the pc's block. *)

val jump : state -> string -> unit
(** Move the pc to the first instruction of the block with this label.
    @raise Invalid_argument when no block has it. *)

val same_pc : state -> state -> bool
(** Pc equality between two states of the same program. *)

val site : state -> int
(** The pc as one int, unique within the program: the key {!site_of}
    gives the same (block, index) pair. *)

val site_of : state -> string -> int -> int
(** [site_of st label index] is the {!site} of that pc in [st]'s program;
    [-1] when [label] names no block or [index] lies past every body. *)

val current_instr : state -> Instr.t option
(** The body instruction at the current PC; [None] at a terminator. *)

val step : ?hooks:hooks -> state -> unit
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
