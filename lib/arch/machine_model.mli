(** One value over both core models.

    The in-order pipeline ({!Timing}) and the out-of-order core
    ({!Ooo_timing}) grew as separate modules with separate config records;
    the design-space explorer needs to treat "which core" as just another
    axis. {!t} packs a configured instance of either backend as one value,
    so a sweep can score heterogeneous points through a single
    [simulate] call. *)

type t =
  | In_order of Machine.t
  | Out_of_order of Ooo_timing.config
      (** A configured core of either kind, ready to replay traces. *)

val name : t -> string
(** Short human-readable tag used in reports and CSV cells. *)

val sb_size : t -> int
(** Store-buffer entries of the configured core (the CAM whose cost the
    explorer's area/energy objectives charge). *)

val simulate :
  ?tel:Turnpike_telemetry.sink -> t -> Turnpike_ir.Trace.t -> Sim_stats.t
(** Replay a trace on whichever backend the value carries. [tel] (default
    {!Turnpike_telemetry.null}) receives the in-order core's timeline (see
    {!Timing.simulate}); the out-of-order core records none. Deterministic:
    the counters are a pure function of (config, trace). *)
