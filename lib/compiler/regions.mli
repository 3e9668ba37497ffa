(** Store-buffer-aware region partitioning (paper §2.1, §4.3.1).

    Boundaries are pseudo-instructions at the start of region head blocks.
    Heads are the entry block, loop headers, join blocks, plus blocks
    promoted so that no region's path exceeds the store budget (SB/2, so
    one region's verification overlaps the next region's execution).
    Every non-head block has exactly one predecessor, making each region a
    single-entry tree of whole blocks. *)

open Turnpike_ir

type region = {
  id : int;
  head : string;  (** block whose first instruction is the boundary *)
  blocks : string list;  (** members in discovery order, head first *)
}

type t

val partition : ?budget:int -> ?ctx:Turnpike_analysis.Context.t -> Func.t -> Func.t
(** Strip any existing boundaries and re-partition the function in place
    (oversized blocks are physically split; the same function is
    returned). [budget] is the max SB writes per region path, normally
    [sb_size / 2]. Analyses come from [ctx] (default: a fresh context
    over the function); the pass invalidates its cache after each edit.
    @raise Invalid_argument when [budget < 1]. *)

val strip : Func.t -> Func.t
(** Remove all boundary markers (in place). *)

val of_func : ?ctx:Turnpike_analysis.Context.t -> Func.t -> t
(** Recover the region structure from boundary markers (the CFG comes
    from [ctx], default a fresh context over the function).
    @raise Invalid_argument if a non-head block has several predecessors
    (partitioning invariant violation). *)

val region_of : t -> string -> int option
(** Region id of a block. *)

val region : t -> int -> region option
val num_regions : t -> int
val regions : t -> region list

val max_region_sb_writes : Func.t -> t -> int
(** Largest per-region SB-write total (block-sum upper bound). *)

val worst_path_sb_writes : Func.t -> t -> int -> int
(** Worst-path SB writes within one region's tree. *)

val worst_region_path : Func.t -> t -> int
(** Maximum of {!worst_path_sb_writes} over all regions — must stay at or
    below the machine's SB size for deadlock freedom. *)
