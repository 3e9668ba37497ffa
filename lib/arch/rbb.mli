(** Region boundary buffer (RBB), paper §2.1 and Fig 2.

    One entry per in-flight (unverified) dynamic region: when it verifies
    and which static region it instantiates (the recovery-PC anchor).
    Regions verify strictly in order. Closed regions wait in a ring, so
    opening, closing and verifying a region allocates nothing. *)

type t

val create : int -> t
(** [create size]. @raise Invalid_argument on non-positive size. *)

val has_open : t -> bool
(** Whether a region is open (still executing). *)

val current_seq : t -> int
(** Sequence number of the open region, or [-1]. *)

val unverified_count : t -> int
(** Open region plus closed-but-unverified regions. *)

val is_full : t -> bool

val open_region : t -> static_id:int -> int
(** Open a region and return its dynamic sequence number.
    @raise Invalid_argument if a region is already open. *)

val close_region : t -> end_cycle:int -> wcdl:int -> int
(** Close the open region, returning its sequence number: it will verify
    at [end_cycle + wcdl]. @raise Invalid_argument if no region is open. *)

val next_verify_time : t -> int
(** Verification cycle of the oldest closed region, or [max_int] when
    none is pending. *)

val pop : t -> int
(** Retire the oldest closed region (once its verification cycle has
    come) and return its sequence number.
    @raise Invalid_argument if no closed region is pending. *)

val last_verified_static : t -> int option
(** Static id of the most recently retired region. *)
