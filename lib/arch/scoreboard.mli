(** Register scoreboard shared by {!Timing} and {!Ooo_timing}: the cycle
    at which each register's latest value is ready. Array-backed and
    allocation-free, growing on demand for virtual (and, in hand-built
    traces, negative) register ids. *)

type t

val create : unit -> t

val ready : t -> Turnpike_ir.Reg.t -> int
(** [0] for a register never written and for {!Turnpike_ir.Reg.zero}. *)

val set : t -> Turnpike_ir.Reg.t -> int -> unit
(** Writes to {!Turnpike_ir.Reg.zero} are ignored. *)

val sources_ready : t -> Turnpike_ir.Trace.t -> int -> int -> int
(** [sources_ready t tr i w]: the cycle at which every source register
    of event [i] (whose packed word is [w = Trace.word tr i]) is ready;
    [0] when it has none. *)
