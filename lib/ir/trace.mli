(** Dynamic execution traces: the interface between the functional
    interpreter and the cycle-level timing models.

    A trace is two int columns, two words per event. [ops] packs a kind
    byte (operation, source count, flag, memory class) with two 27-bit
    signed register fields, A and B; [aux] holds the event's third
    operand. What each operation keeps where:

    {v
    op        A                 B                aux
    alu       dst (if flagged)  first source     second source
    load      dst               base (if any)    address
    store     second source     first source     address
    ckpt      -                 the register     -
    branch    -                 condition        branch site
    boundary  -                 -                static region
    v}

    The source count in the kind byte says which sources are present.
    The interpreter appends through {!Buf}; the timing models and the
    counters read the columns through the allocation-free readers below.
    The boxed {!event} is a decoded view ({!get}, {!of_events},
    {!show_event}) for tests, digests and hand-built traces. *)

type store_class = Regular_app | Regular_spill | Checkpoint
[@@deriving show, eq]

type event =
  | Alu of { dst : Reg.t option; srcs : Reg.t list }
  | Load of { dst : Reg.t; srcs : Reg.t list; addr : int; kind : Instr.mem_kind }
  | Store of { srcs : Reg.t list; addr : int; cls : store_class }
  | Ckpt of { src : Reg.t }
      (** Checkpoint store; the slot address depends on the hardware color
          assigned at commit, so the timing model resolves it. *)
  | Branch of { srcs : Reg.t list; taken : bool; pc : int }
  | Boundary of { region : int }  (** static region id *)
[@@deriving show, eq]

type t = private {
  ops : int array;  (** kind byte and register fields A, B *)
  aux : int array;
  complete : bool;  (** [false] when the fuel budget cut execution short *)
}
(** The columns are read-only: nothing mutates a finished trace. *)

type op = Op_alu | Op_load | Op_store | Op_ckpt | Op_branch | Op_boundary

val length : t -> int

(** {2 Column readers}

    Allocation-free. Hot loops read an event's packed word once with
    {!word} and decode it with the [*_of_word] functions; {!src1} and
    {!aux} read the second column as well. *)

val word : t -> int -> int
(** The [ops] entry of event [i]: kind byte plus register fields. *)

val op_of_word : int -> op

val nsrcs_of_word : int -> int
(** Number of source registers, 0-2 ({!src0_of_word}, then {!src1}). *)

val flag_of_word : int -> bool
(** An ALU op writes [dst]; a branch redirected fetch ([taken]). *)

val dst_of_word : int -> Reg.t
val src0_of_word : int -> Reg.t

val src1 : t -> int -> Reg.t
(** Second source of a two-source event. *)

val aux : t -> int -> int
(** Address, branch site or static region. *)

(** {2 Building} *)

(** Growable column buffer. Kind bytes come from the [*_kind] encoders
    below; [add] ORs in the source count. [add] raises
    [Invalid_argument] on a register id outside the 27-bit fields
    ([-2{^26}] to [2{^26}-1]; {!Reg.virt} ids are far inside) and on two
    sources for anything but an ALU op or a store. *)
module Buf : sig
  type trace := t
  type t

  val create : unit -> t
  val add : t -> int -> nsrcs:int -> dst:Reg.t -> s0:Reg.t -> s1:Reg.t -> aux:int -> unit

  val finish : t -> complete:bool -> trace
  (** Copy the events out, trimmed to length. *)
end

val alu_kind : has_dst:bool -> int
val load_kind : Instr.mem_kind -> int
val store_kind : store_class -> int
val ckpt_kind : int
val branch_kind : taken:bool -> int
val boundary_kind : int

(** {2 Decoded view} *)

val get : t -> int -> event
(** Decode event [i]. Allocates: not for hot loops. *)

val of_events : ?complete:bool -> event list -> t
(** Encode hand-built events ([complete] defaults to [true]).
    [get (of_events es) i] is the [i]th element of [es].
    @raise Invalid_argument on an event with more than two sources, on
    a load or branch with two, or on a register id outside the 27-bit
    fields. *)

val count : (event -> bool) -> t -> int
(** Events satisfying a predicate on the decoded view. *)

(** {2 Counters} Read the kind column directly. *)

val num_sb_writes : t -> int
(** Dynamic store-buffer writes (stores + checkpoints). *)

val num_ckpts : t -> int
val num_boundaries : t -> int

val num_instructions : t -> int
(** Executed instructions, boundary markers excluded. *)
