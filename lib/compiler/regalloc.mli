(** Linear-scan register allocation with whole-interval spilling.

    The spill-cost model carries the paper's {e store-aware register
    allocation} (§4.1.1): traditional allocators weigh reads and writes
    equally, so frequently-written variables may be spilled — turning every
    write into a spill store that pressures the store buffer. Store-aware
    mode multiplies the write weight so those variables stay in registers,
    while using the same number of allocatable registers (allocation
    quality is preserved). *)

open Turnpike_ir

type config = {
  nregs : int;  (** architectural registers; id 0 is the zero register *)
  store_aware : bool;
  write_weight : int;  (** write-cost multiplier in store-aware mode *)
}

val default_config : config
(** 32 registers, store-unaware, write weight 4. *)

type result = {
  func : Func.t;  (** the same function, rewritten to physical registers *)
  spilled_vregs : int;
  spill_stores : int;  (** static spill stores emitted *)
  spill_loads : int;
  assignment : (Reg.t, Reg.t) Hashtbl.t;  (** virtual -> physical *)
  spill_slots : (Reg.t, int) Hashtbl.t;  (** virtual -> spill slot index *)
}

type location = Phys of Reg.t | Spill of int

val location_of : result -> Reg.t -> location option
(** Where a (virtual) register ended up; [None] for never-seen registers. *)

val remap_inputs : result -> (Reg.t * int) list -> (Reg.t * int) list * (int * int) list
(** Rewrite a program's input-register list through the allocation:
    returns the new register inputs plus memory-image additions for
    spilled inputs. *)

val run : ?config:config -> ?ctx:Turnpike_analysis.Context.t -> Func.t -> result
(** Allocate in place. Three registers are reserved as spill scratch;
    register 0 is never allocated. Analyses come from [ctx] (default: a
    fresh context over the function), read before the rewrite. *)
