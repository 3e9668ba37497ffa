(** Analytic area/energy model reproducing the paper's Table 1 (CACTI at
    22nm). RAM structures cost linearly in bytes; CAM structures linearly
    in entries; both models are fitted on the paper's published anchor
    points, so the table regenerates from first principles. *)

type cost = { area_um2 : float; energy_pj : float }

val cam : entries:int -> cost
(** Content-addressed structure (store buffer).
    @raise Invalid_argument on non-positive entries. *)

val ram : bytes:int -> cost
(** RAM structure (color maps, compact CLQ).
    @raise Invalid_argument on non-positive size. *)

val store_buffer : entries:int -> cost

val color_map_bytes : ?colors:int -> nregs:int -> unit -> int
(** Storage for the AC/UC/VC maps: 3·log2(colors) bits per register
    (24 bytes for 32 registers and the default 4 colors, as in the
    paper). [colors] (default {!Turnpike_ir.Layout.colors}) sizes the
    per-register pool — the explorer's color-bits axis.
    @raise Invalid_argument on a non-positive color count. *)

val color_maps : ?colors:int -> nregs:int -> unit -> cost
val clq_bytes : entries:int -> int
val clq : entries:int -> cost

val dynamic_energy_pj :
  sb_entries:int -> ?clq_entries:int -> ?colors:int -> nregs:int -> Sim_stats.t -> float
(** Dynamic energy of the resilience hardware over one run: two
    store-buffer CAM accesses (allocate + release) per quarantined store,
    a color-map access per colored checkpoint release when the core colors
    checkpoints ([colors] per register), and a compact-CLQ access per load
    or store-buffer write when it has a CLQ ([clq_entries] entries). *)

val add : cost -> cost -> cost
val ratio : cost -> cost -> cost
val turnpike_total : nregs:int -> clq_entries:int -> cost

type table1_row = { label : string; area_um2 : float; energy_pj : float }

val table1 : unit -> table1_row list
(** The seven rows of the paper's Table 1 (ratio rows in percent). *)
