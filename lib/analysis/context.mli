(** Everything a check or a compiler pass may look at, as plain data plus
    lazily computed (and shared) IR analyses.

    The context is deliberately decoupled from the compiler and the
    machine model: the pipeline (or a test) describes its configuration
    with plain integers and claim lists, so the analysis library depends
    only on [turnpike.ir]. *)

open Turnpike_ir

(** Optimization claims the pipeline publishes for independent audit. *)
type claims = {
  bypass_stores : (string * int) list;
      (** (block, body index) of stores the pipeline marks
          verification-bypassable (statically proven WAR-free) *)
  direct_ckpts : (string * int) list;
      (** (block, body index) of checkpoint stores claimed releasable
          without waiting for verification (single-site, loop-free) *)
}

val no_claims : claims
(** The empty claim set. *)

(** One induction-variable merge the [livm] pass claims to have performed
    (pre-regalloc virtual register names); audited by the livm pair
    check. *)
type iv_merge = {
  victim : Reg.t;  (** the merged-away induction variable *)
  anchor : Reg.t;  (** the surviving IV the victim is recomputed from *)
  ratio : int;  (** victim step / anchor step (≥ 1) *)
  iv_base : [ `Const of int | `Reg of Reg.t ];  (** victim's loop-entry value *)
  header : string;  (** header block of the loop the merge happened in *)
}

type cache
(** Memo table for the derived IR analyses; construct via {!make}. *)

(** The checked state: one function plus the pipeline- and
    machine-configuration facts the checks consult. *)
type t = {
  func : Func.t;
  entry_defined : Reg.Set.t;  (** registers with initial values (reg_init) *)
  nregs : int;
  allow_virtual : bool;  (** true before register allocation has run *)
  resilient : bool;
  sb_size : int;  (** 0 = unknown; disables the SB capacity check *)
  colors : int;  (** checkpoint colors per register *)
  rbb_size : int option;  (** machine RBB entries, when known *)
  clq_entries : int option;  (** compact-CLQ entries; [None] = ideal/unknown *)
  wcdl : int option;
      (** worst-case detection latency in cycles (parity ≈ pipeline
          depth, sensors = propagation time); consumed by the static
          vulnerability estimate ({!Vuln}) *)
  recovery_exprs : (Reg.t * Recovery_expr.t) list;
      (** reconstruction expressions for pruned checkpoints, sorted by
          register *)
  claims : claims option;  (** [None] until the pipeline has computed them *)
  iv_merges : iv_merge list;
      (** merges claimed by the last [livm] run (virtual-register names;
          only meaningful to the pair check that runs right after it) *)
  pass : string option;  (** provenance stamped onto emitted diagnostics *)
  cache : cache;
}

val make :
  ?memo:bool ->
  ?entry_defined:Reg.Set.t ->
  ?nregs:int ->
  ?allow_virtual:bool ->
  ?resilient:bool ->
  ?sb_size:int ->
  ?colors:int ->
  ?rbb_size:int ->
  ?clq_entries:int ->
  ?wcdl:int ->
  ?recovery_exprs:(Reg.t * Recovery_expr.t) list ->
  ?claims:claims ->
  ?iv_merges:iv_merge list ->
  ?pass:string ->
  Func.t ->
  t
(** Build a context with an empty analysis cache. Defaults describe a
    plain non-resilient virtual-register function. [memo] (default
    [true]) set to [false] makes every analysis accessor recompute from
    the function as it stands: the reference that the cache is diffed
    against. *)

val for_func : ?ctx:t -> Func.t -> t
(** The context a pass over [func] reads its analyses from: [ctx] when
    given, else a fresh context over [func].
    @raise Invalid_argument when [ctx] describes a function other than
    (physically) [func]. *)

val advance :
  dirty:Facet.Set.t ->
  ?entry_defined:Reg.Set.t ->
  ?allow_virtual:bool ->
  ?recovery_exprs:(Reg.t * Recovery_expr.t) list ->
  ?claims:claims ->
  ?iv_merges:iv_merge list ->
  ?pass:string ->
  t ->
  Func.t ->
  t
(** Step a context across one pipeline pass that dirtied [dirty],
    carrying forward every cached analysis the dirty set leaves valid
    (CFG, dominance and loops survive unless [Cfg_shape] is dirty;
    liveness and checkpoint coverage additionally die with [Instrs]; the
    region table with [Boundaries]). Omitted fields keep their previous values, except
    [pass], which is re-stamped each step. Passing a [func] that is not
    physically the previous context's function invalidates everything.
    The stepped context gets its own cache; the previous one is left as
    it was. *)

val invalidate : t -> Facet.Set.t -> unit
(** [invalidate t dirty] drops, in place, every cached analysis that
    editing the [dirty] facets of [t.func] makes stale (same rules as
    {!advance}). A pass that edits the function and then reads an
    analysis again within one run calls this between the two; a caller
    that edits a compiled function afterwards calls it before handing the
    context on. Every context sharing the cache ({!with_pass},
    {!with_machine}) sees the drop. *)

val with_pass : t -> string option -> t
(** Same context (cache shared) with different pass provenance. *)

val with_machine : ?rbb_size:int -> ?clq_entries:int -> ?wcdl:int -> t -> t
(** Enrich a context with machine parameters (keeps the analysis cache). *)

(** {1 Derived analyses}

    Lazily computed, memoized in the context and shared by the passes and
    checks run on the same context (and, via {!advance}, across passes
    that leave the relevant facets clean). A result describes the
    function as it was when computed: it stays valid only as long as the
    facets it depends on are not edited without {!invalidate}. *)

val cfg : t -> Cfg.t
(** Control-flow graph of the function. *)

val liveness : t -> Liveness.t
(** Per-block live-in/live-out sets (backward dataflow over {!cfg}). *)

val dominance : t -> Dominance.t
(** Dominator tree over {!cfg}. *)

val loops : t -> Loop_info.t
(** Natural loops over {!cfg} and {!dominance}; stale with the CFG. *)

val coverage : t -> Ckpt_coverage.t
(** Checkpoint coverage at block entries over {!cfg} (shared by the
    recoverability and vuln checks and {!Vuln.compute}); stale with
    the CFG or the instructions. *)

val regions : t -> Regions_view.t
(** Region partition independently reconstructed from boundary markers. *)
