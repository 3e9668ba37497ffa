(** The resilience soundness lint: run the static-analysis registry over
    compiled benchmarks and report every diagnostic.

    Each (benchmark, scheme) cell is compiled fresh with checking enabled
    — the {!Run} compile cache is bypassed on purpose, since cached
    binaries carry no diagnostics — then the final context is enriched
    with the scheme's machine parameters (RBB depth, CLQ entries) and the
    whole-program registry runs once more to pick up the capacity checks
    that need them.

    Reports are deterministic: entries follow the input order (the pool
    delivers results in task order at any job count) and diagnostics are
    sorted, so {!to_json} output is byte-identical at [--jobs 1] and
    [--jobs N]. *)

module Suite = Turnpike_workloads.Suite
module Diag = Turnpike_analysis.Diag

type entry = {
  benchmark : string;  (** suite-qualified name, e.g. ["mcf@2006"] *)
  scheme : string;
  diags : Diag.t list;  (** sorted per {!Diag.sort} *)
  check_log : (string * string list) list;
      (** per-pass check schedule (which checks ran after which pass) —
          rendered by [to_text ~explain:true]; deliberately absent from
          {!to_json} so incremental and full-recheck reports stay
          byte-identical *)
}

type report = {
  per_pass : bool;
  entries : entry list;
  errors : int;
  warnings : int;
  infos : int;
}

val lint_one :
  ?per_pass:bool ->
  ?full_recheck:bool ->
  ?sb_size:int ->
  ?scale:int ->
  Scheme.t ->
  Suite.entry ->
  Diag.t list
(** Compile one benchmark under one scheme with checking on ([Final], or
    incremental [PerPass] when [per_pass] — diagnostics then carry pass
    provenance; [full_recheck] forces the non-incremental [PerPassFull]
    oracle) and return the sorted diagnostics, machine-parameter checks
    included. *)

val run :
  ?per_pass:bool ->
  ?full_recheck:bool ->
  ?sb_size:int ->
  ?scale:int ->
  ?jobs:int ->
  schemes:Scheme.t list ->
  Suite.entry list ->
  report
(** Lint the full (benchmark × scheme) grid over the {!Turnpike_parallel} pool.
    [full_recheck] (with [per_pass]) re-runs every check after every pass
    instead of only the invalidated ones — the report must come out
    byte-identical; [tools/check.sh] diffs the two. *)

val max_severity : report -> Diag.severity option
(** Highest severity across the whole report, if any diagnostics. *)

val to_text : ?explain:bool -> report -> string
(** Human rendering: one line per diagnostic plus a summary line.
    [explain] prefixes each cell with its per-pass check schedule — which
    checks the incremental registry actually re-ran after each pass. *)

val to_json : report -> string
(** Machine rendering, deterministic bytes (keys in fixed order, entries
    in input order). *)

(** {1 Static vulnerability report ([lint --vuln])}

    The same grid fan-out, but instead of diagnostics each cell carries
    the full static ACE/AVF estimate ({!Turnpike_analysis.Vuln}) — no
    faults are injected; the ranked tables predict what a campaign would
    find. *)

type vuln_entry = {
  v_benchmark : string;
  v_scheme : string;
  vuln : Turnpike_analysis.Vuln.t;
}

type vuln_report = { ventries : vuln_entry list }

val vuln_cell :
  ?sb_size:int ->
  ?scale:int ->
  ?wcdl:int ->
  Scheme.t ->
  Suite.entry ->
  Turnpike_analysis.Vuln.t
(** Compile one cell fresh (checking off) and run the static estimate
    under the scheme's machine parameters; [wcdl] defaults to 10, the
    value {!run} feeds the capacity checks. *)

val run_vuln :
  ?sb_size:int ->
  ?scale:int ->
  ?wcdl:int ->
  ?jobs:int ->
  schemes:Scheme.t list ->
  Suite.entry list ->
  vuln_report
(** Fan {!vuln_cell} over the grid; deterministic at any job count. *)

val vuln_to_text : ?top:int -> vuln_report -> string
(** Ranked region/register/site tables per cell ([top] rows each,
    default 8) plus the predicted AVF headline. *)

val vuln_to_json : vuln_report -> string
(** Deterministic JSON (tables in rank order). *)

(** One CSV row: a table key of one benchmark with its static score
    under every scheme that ranks it (schemes region programs
    differently, so absent cells are expected). *)
type vuln_csv_row = {
  vr_benchmark : string;
  vr_key : string;
  vr_by_scheme : (string * float) list;
}

val vuln_csv_rows :
  axis:[ `Site | `Register | `Region ] -> vuln_report -> vuln_csv_row list
(** Flatten one table axis of the report for {!Csv_export.vuln}. *)
