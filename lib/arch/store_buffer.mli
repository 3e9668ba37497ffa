(** Gated store buffer (GSB), paper §2.1.

    Under verification, an entry allocated by a committed store is
    quarantined until its region is verified error-free; entries then drain
    to L1 one per cycle. In baseline mode entries carry a release time from
    the start.

    The buffer is fixed-capacity parallel arrays, oldest entry first; the
    per-store operations ({!alloc}, {!contains_addr},
    {!assign_releases}, {!release_up_to}, {!earliest_release}) allocate
    nothing. *)

type t

val quarantined : int
(** The [release_at] of an entry that waits for its region's
    verification. *)

val create : int -> t
(** [create size]. @raise Invalid_argument on non-positive size. *)

val occupancy : t -> int
val is_full : t -> bool

val sample : t -> unit
(** Record the current occupancy for the mean-occupancy statistic. *)

val mean_occupancy : t -> float

val alloc : t -> addr:int -> region:int -> is_ckpt:bool -> release_at:int -> unit
(** Allocate an entry. [release_at] is its drain cycle, or {!quarantined}
    to hold it until its region is verified.
    @raise Invalid_argument when full (callers must wait). *)

val contains_addr : t -> int -> bool
(** CAM probe used by the in-order fast-release constraint. *)

val assign_releases : t -> region:int -> start:int -> int
(** Give the quarantined entries of a verified region consecutive drain
    cycles from [start]; returns the next free drain cycle. *)

val release_up_to :
  t ->
  int ->
  'env ->
  ('env -> addr:int -> is_ckpt:bool -> region:int -> at:int -> unit) ->
  unit
(** [release_up_to t cycle env f] removes the entries whose drain cycle
    is at most [cycle] and calls [f env] on each, oldest first, with its
    dynamic region and the drain cycle [at] it was assigned. Passing the
    caller's state as [env] to a closed [f] keeps the call
    allocation-free. *)

val earliest_release : t -> int
(** Earliest assigned drain cycle, or [max_int] when no entry has one. *)

val all_unreleasable : t -> current_region:int -> bool
(** True when the buffer is non-empty and every entry belongs to the
    still-open region — the deadlock the SB-aware partitioner must
    prevent. *)

val force_release_oldest : t -> (int * bool) option
(** Escape hatch for non-strict simulation of mis-partitioned code. *)

val unverified_regions : t -> int list
(** Dynamic region ids with quarantined entries, ascending. *)
