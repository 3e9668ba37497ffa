(* The benchmark harness. One invocation runs one timed round of one
   workload:

     bench.exe --workload sweep|verify --seed N
               [--trace] [--no-check] [--quick] [--t0 EPOCH_S] [--chrome FILE]
     bench.exe --workload launch --t0 EPOCH_S

   [sweep] is the design-space exploration followed by the Fig 19/20 WCDL
   grid; [verify] is the fault campaign followed by the .tk compile batch.
   It sets the workload up, runs one round and, unless [--no-check],
   checks the round's outputs. Untraced, the round goes through the public
   entry point a user calls. Traced, set-up and round call each layer's
   public function directly, wrapping every call in a span that records
   wall-clock and minor-heap deltas; the traced round must reproduce the
   untraced round's outputs exactly. Spans go to an in-memory
   Turnpike_telemetry sink, written as a Chrome trace to [--chrome].

   Everything runs in one domain (--jobs 1). The result is one JSON object
   on stdout; run.py starts the rounds and turns their results into the
   benchmark report. *)

module Tel = Turnpike_telemetry
module E = Turnpike.Experiments
module Run = Turnpike.Run
module Scheme = Turnpike.Scheme
module Explore = Turnpike.Explore
module Design_point = Turnpike.Design_point
module Lint = Turnpike.Lint
module Suite = Turnpike_workloads.Suite
module PP = Turnpike_compiler.Pass_pipeline
module Static_stats = Turnpike_compiler.Static_stats
module Timing = Turnpike_arch.Timing
module Sim_stats = Turnpike_arch.Sim_stats
module Interp = Turnpike_ir.Interp
module Trace = Turnpike_ir.Trace
module Injector = Turnpike_resilience.Injector
module Snapshot = Turnpike_resilience.Snapshot
module Verifier = Turnpike_resilience.Verifier
module Fault = Turnpike_resilience.Fault
module Diag = Turnpike_analysis.Diag
module Vuln = Turnpike_analysis.Vuln
module Tk = Turnpike_frontend.Tk
module Fuzz = Turnpike_frontend.Fuzz

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let sprintf = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* Tracing: one span per layer call, with self time and self minor words
   (the span's own figure minus that of the spans nested inside it). *)

type layer = {
  mutable self_s : float;
  mutable self_minor : float;
  mutable calls : int;
  mutable durs_ms : float list;
}

type frame = { mutable child_s : float; mutable child_minor : float }

let tracing = ref false
let sink = ref Tel.null
let epoch = now ()
let stack : frame list ref = ref []
let layers : (string, layer) Hashtbl.t = Hashtbl.create 16
let counters : (string, float) Hashtbl.t = Hashtbl.create 64
let timed_self_s = ref 0.0
let in_timed = ref false

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
    let l = { self_s = 0.; self_minor = 0.; calls = 0; durs_ms = [] } in
    Hashtbl.replace layers name l;
    l

(* Work units are counted only while tracing: the untraced path is the
   user's path and carries no bookkeeping. *)
let count key v =
  if !tracing then
    Hashtbl.replace counters key
      (v +. Option.value ~default:0. (Hashtbl.find_opt counters key))

let span lname name f =
  if not !tracing then f ()
  else begin
    let fr = { child_s = 0.; child_minor = 0. } in
    let parent = !stack in
    stack := fr :: parent;
    let m0 = Gc.minor_words () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let minor = Gc.minor_words () -. m0 in
      stack := parent;
      let dur = t1 -. t0 in
      (match parent with
      | p :: _ ->
        p.child_s <- p.child_s +. dur;
        p.child_minor <- p.child_minor +. minor
      | [] -> ());
      let l = layer lname in
      let self = dur -. fr.child_s in
      l.self_s <- l.self_s +. self;
      l.self_minor <- l.self_minor +. minor -. fr.child_minor;
      l.calls <- l.calls + 1;
      l.durs_ms <- (dur *. 1000.) :: l.durs_ms;
      if !in_timed then timed_self_s := !timed_self_s +. self;
      let us t = int_of_float ((t -. epoch) *. 1e6) in
      Tel.complete !sink ~ts:(us t0) ~dur:(us t1 - us t0) ~cat:lname
        ~args:[ ("minor_words", Tel.Float minor) ]
        name
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* Nearest-rank percentile, reported only where at least 10 samples lie
   above it; 0 otherwise. *)
let percentile p samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  let idx = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
  if n = 0 || n - (idx + 1) < 10 then 0. else a.(max 0 idx)

let ratio a b = if b > 0. then a /. b else 0.

(* ------------------------------------------------------------------ *)
(* The output check of a round: its work units, the ops it attempted,
   which of them failed (with a reason), and workload-specific figures. *)

type checked = {
  items : int;  (** work units of the round: cells, faults, points, kernels *)
  ops : int;
  failures : string list;
  extras : (string * float) list;
}

type ('i, 'o) workload = {
  setup : traced:bool -> 'i;
  round : traced:bool -> 'i -> 'o;
  digests : 'o -> (string * string) list;
      (** cheap; compared across rounds and against the traced round *)
  check : 'i -> 'o -> checked;  (** untimed output check of one round *)
}

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Two parts run back to back as one workload: set-ups, rounds and checks
   in order. Each part's round is timed on its own ([part_walls]) and its
   checked work units kept apart ([part_items]), for per-part throughput. *)
let part_walls : (string * float) list ref = ref []
let part_items : (string * int) list ref = ref []

let pair (na, a) (nb, b) =
  let timed name f =
    let t = now () in
    let r = f () in
    part_walls := !part_walls @ [ (name, now () -. t) ];
    r
  in
  {
    setup =
      (fun ~traced ->
        let x = a.setup ~traced in
        (x, b.setup ~traced));
    round =
      (fun ~traced (x, y) ->
        let oa = timed na (fun () -> a.round ~traced x) in
        (oa, timed nb (fun () -> b.round ~traced y)));
    digests = (fun (oa, ob) -> a.digests oa @ b.digests ob);
    check =
      (fun (x, y) (oa, ob) ->
        let ca = a.check x oa and cb = b.check y ob in
        part_items := [ (na, ca.items); (nb, cb.items) ];
        { items = ca.items + cb.items; ops = ca.ops + cb.ops;
          failures = ca.failures @ cb.failures; extras = ca.extras @ cb.extras });
  }

(* ------------------------------------------------------------------ *)
(* grid, the second part of sweep: the Fig 19 + Fig 20 grid, every cell
   normalized to the unprotected baseline, from a cold Run cache. *)

type cell = {
  c_scheme : string;
  c_bench : string;
  c_wcdl : int;
  overhead : float;
  stats : (Sim_stats.t * Sim_stats.t) option;  (** (baseline, scheme); traced *)
  complete : bool option;  (** both traces ran to completion; traced *)
}

let sweep_schemes = [ Scheme.turnpike; Scheme.turnstile ]

let sweep_user (p : Run.params) =
  Run.clear_cache ();
  let fig19 = E.fig19 ~params:p () in
  let fig20 = E.fig20 ~params:p () in
  List.concat_map
    (fun (scheme, rows) ->
      List.concat_map
        (fun (r : E.wcdl_sweep_row) ->
          List.map
            (fun (w, ov) ->
              { c_scheme = scheme.Scheme.name; c_bench = r.E.bench; c_wcdl = w;
                overhead = ov; stats = None; complete = None })
            r.E.overheads)
        rows)
    [ (Scheme.turnpike, fig19); (Scheme.turnstile, fig20) ]

(* Run.compile_with without the cache, one layer call at a time. *)
let compile_layers (p : Run.params) scheme (b : Suite.entry) =
  let prog = span "workloads" "build" (fun () -> b.Suite.build ~scale:p.Run.scale) in
  let opts = Scheme.compile_opts scheme ~sb_size:p.Run.sb_size in
  let c = span "compiler" "compile" (fun () -> PP.compile ~opts prog) in
  let trace, final =
    span "interp" "trace_run" (fun () -> Interp.trace_run ~fuel:p.Run.fuel c.PP.prog)
  in
  count "interp.steps" (float_of_int final.Interp.steps);
  let s = c.PP.stats in
  count "compiler.ckpts_inserted" (float_of_int s.Static_stats.ckpts_inserted);
  count "compiler.ckpts_pruned" (float_of_int s.Static_stats.ckpts_pruned);
  count "compiler.code_size" (float_of_int s.Static_stats.code_size);
  (c, trace, final)

(* The same grid, one layer call at a time, mirroring Run's compile cache
   and its per-cell baseline simulation. *)
let sweep_layers (p : Run.params) =
  let cache = Hashtbl.create 128 in
  let compiled (p : Run.params) scheme (b : Suite.entry) =
    let key =
      (Suite.qualified_name b, Scheme.compile_key scheme ~sb_size:p.Run.sb_size)
    in
    match Hashtbl.find_opt cache key with
    | Some c -> c
    | None ->
      let c, trace, _ = compile_layers p scheme b in
      Hashtbl.replace cache key (c, trace);
      (c, trace)
  in
  let run (p : Run.params) scheme b =
    let c, trace = compiled p scheme b in
    let machine = Scheme.machine scheme ~wcdl:p.Run.wcdl ~sb_size:p.Run.sb_size in
    let stats = span "timing" "simulate" (fun () -> Timing.simulate machine trace) in
    count "timing.events" (float_of_int (Trace.length trace));
    List.iter
      (fun (k, v) -> count ("timing." ^ k) (float_of_int v))
      [ ("cycles", stats.Sim_stats.cycles);
        ("sb_full_stall_cycles", stats.Sim_stats.sb_full_stall_cycles);
        ("data_stall_cycles", stats.Sim_stats.data_stall_cycles);
        ("rbb_stall_cycles", stats.Sim_stats.rbb_stall_cycles);
        ("quarantined", stats.Sim_stats.quarantined);
        ("fast_released", Sim_stats.fast_released stats) ];
    { Run.scheme = scheme.Scheme.name; benchmark = Suite.qualified_name b; stats;
      static_stats = c.PP.stats; trace }
  in
  List.concat_map
    (fun scheme ->
      List.concat_map
        (fun b ->
          List.map
            (fun wcdl ->
              span "run" "normalized" (fun () ->
                  let p = { p with Run.wcdl } in
                  let base = run { p with Run.sb_size = p.Run.baseline_sb } Scheme.baseline b in
                  let r = run p scheme b in
                  { c_scheme = scheme.Scheme.name; c_bench = Suite.qualified_name b;
                    c_wcdl = wcdl; overhead = Run.overhead ~baseline:base r;
                    stats = Some (base.Run.stats, r.Run.stats);
                    complete = Some (base.Run.trace.Trace.complete && r.Run.trace.Trace.complete) }))
            E.wcdls)
        (E.benchmarks ()))
    sweep_schemes

let sweep (p : Run.params) =
  {
    setup = (fun ~traced:_ -> E.benchmarks ());
    round = (fun ~traced _ -> if traced then sweep_layers p else sweep_user p);
    digests =
      (fun cells ->
        let rows =
          List.map
            (fun c -> sprintf "%s %s %d %h" c.c_scheme c.c_bench c.c_wcdl c.overhead)
            cells
        in
        ("sweep_rows", digest_lines rows)
        ::
        (if List.exists (fun c -> c.stats = None) cells then []
         else
           [ ( "sweep_stats",
               digest_lines
                 (List.map
                    (fun c ->
                      match c.stats with
                      | Some (b, s) -> Sim_stats.to_json b ^ Sim_stats.to_json s
                      | None -> "")
                    cells) ) ]));
    check =
      (fun benches cells ->
        (* Completeness, enforced from outside: an incomplete trace must never
           feed a ratio. After a user-path round every binary is in Run's
           cache, so these lookups compile and trace nothing. *)
        let complete scheme b =
          (Run.compile_with p scheme b).Run.trace.Trace.complete
        in
        let by_name = List.map (fun b -> (Suite.qualified_name b, b)) benches in
        let scheme_of name = List.find (fun s -> s.Scheme.name = name) sweep_schemes in
        let failures =
          List.filter_map
            (fun c ->
              let ok =
                match c.complete with
                | Some ok -> ok
                | None ->
                  let b = List.assoc c.c_bench by_name in
                  complete Scheme.baseline b && complete (scheme_of c.c_scheme) b
              in
              if ok then None
              else Some (sprintf "%s/%s/wcdl%d: truncated trace" c.c_bench c.c_scheme c.c_wcdl))
            cells
        in
        let geomean scheme =
          let xs =
            List.filter_map
              (fun c -> if c.c_scheme = scheme then Some (log c.overhead) else None)
              cells
          in
          exp (List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs)))
        in
        {
          items = List.length cells;
          ops = List.length cells;
          failures;
          extras =
            [ ("sim_overhead_geomean", geomean Scheme.turnpike.Scheme.name);
              ("sim_overhead_geomean_turnstile", geomean Scheme.turnstile.Scheme.name) ];
        });
  }

(* ------------------------------------------------------------------ *)
(* campaign, the first part of verify: a seeded fault campaign on every
   suite benchmark's Turnpike binary, forked from pilot snapshots. *)

type target = {
  t_bench : string;
  compiled : PP.t;
  golden : Interp.state;
  faults : Fault.t list;
  complete : bool;
}

let campaign ~seed ~faults (p : Run.params) =
  (* Experiments.campaign_over's operating point. *)
  let p = { p with Run.scale = max 1 (p.Run.scale / 4); sb_size = 4 } in
  let target ~traced b =
    let compiled, trace, golden =
      if traced then compile_layers p Scheme.turnpike b
      else
        let c = Run.compile_with p Scheme.turnpike b in
        (c.Run.compiled, c.Run.trace, c.Run.final)
    in
    let complete = trace.Trace.complete in
    let faults =
      if complete then
        span "injector" "campaign" (fun () -> Injector.campaign ~seed ~count:faults trace)
      else []
    in
    count "injector.faults" (float_of_int (List.length faults));
    { t_bench = Suite.qualified_name b; compiled; golden; faults; complete }
  in
  {
    setup =
      (fun ~traced ->
        Run.clear_cache ();
        List.map (target ~traced) (E.benchmarks ()));
    round =
      (fun ~traced targets ->
        List.map
          (fun t ->
            if not t.complete then None
            else if not traced then begin
              let plan = Snapshot.record t.compiled in
              Some
                (Verifier.run_campaign ~jobs:1 ~plan ~golden:t.golden ~compiled:t.compiled
                   t.faults)
            end
            else begin
              let plan = span "snapshot" "record" (fun () -> Snapshot.record t.compiled) in
              count "snapshot.snapshots" (float_of_int (Snapshot.snapshot_count plan));
              let outcomes =
                List.map
                  (fun f ->
                    span "verifier" "fault" (fun () ->
                        Verifier.run_one ~plan ~golden:t.golden ~compiled:t.compiled f))
                  t.faults
              in
              let r = Verifier.reduce outcomes in
              count "verifier.faults" (float_of_int r.Verifier.total);
              count "verifier.recovered" (float_of_int r.Verifier.recovered);
              count "verifier.sdc" (float_of_int r.Verifier.sdc);
              count "verifier.crashed" (float_of_int r.Verifier.crashed);
              count "verifier.detections"
                (float_of_int (r.Verifier.parity_detections + r.Verifier.sensor_detections));
              Some r
            end)
          targets);
    digests =
      (fun reports ->
        [ ( "campaign_reports",
            digest_lines
              (List.map
                 (function
                   | None -> "skipped"
                   | Some (r : Verifier.campaign_report) ->
                     sprintf "%d %d %d %d %d %d %h" r.Verifier.total r.Verifier.recovered
                       r.Verifier.sdc r.Verifier.crashed r.Verifier.parity_detections
                       r.Verifier.sensor_detections r.Verifier.mean_reexec_overhead)
                 reports) ) ]);
    check =
      (fun targets reports ->
        let pairs = List.combine targets reports in
        let failures =
          List.concat_map
            (fun (t, r) ->
              match r with
              | None -> [ sprintf "%s: truncated golden trace, no campaign" t.t_bench ]
              | Some (r : Verifier.campaign_report) ->
                List.init r.Verifier.sdc (fun i -> sprintf "%s: sdc #%d" t.t_bench (i + 1))
                @ List.init r.Verifier.crashed (fun i ->
                      sprintf "%s: crash #%d" t.t_bench (i + 1)))
            pairs
        in
        let ops =
          List.fold_left
            (fun acc r ->
              acc + match r with Some r -> r.Verifier.total | None -> 1)
            0 reports
        in
        (* Pooled over every recovered fault of every benchmark. *)
        let sum, n =
          List.fold_left
            (fun (s, n) r ->
              match r with
              | Some (r : Verifier.campaign_report) ->
                ( s +. (r.Verifier.mean_reexec_overhead *. float_of_int r.Verifier.recovered),
                  n + r.Verifier.recovered )
              | None -> (s, n))
            (0., 0) reports
        in
        { items = ops; ops; failures;
          extras = [ ("sim_reexec_overhead", ratio sum (float_of_int n)) ] });
  }

(* ------------------------------------------------------------------ *)
(* explore, the first part of sweep: the design-space explorer over its
   default 64-point grid. *)

let explore ~seed ~spec ?params () =
  {
    setup = (fun ~traced:_ -> ());
    round =
      (fun ~traced:_ () ->
        Run.clear_cache ();
        span "explore" "run" (fun () -> Explore.run ?params ~seed ~spec ()));
    digests =
      (fun (r : Explore.report) ->
        let obj (pr : Explore.point_result) =
          let o = pr.Explore.objectives in
          sprintf "%s %h %h %h %h %d" (Design_point.id pr.Explore.point) o.Explore.overhead
            o.Explore.area_um2 o.Explore.energy_pj_per_kinstr o.Explore.sdc_rate
            o.Explore.faults
        in
        [ ( "explore_frontier",
            digest_lines
              (List.map (fun (l, n) -> sprintf "%s=%d" l n) r.Explore.evals_per_budget
              @ List.map obj r.Explore.frontier) ) ]);
    check =
      (fun () (r : Explore.report) ->
        let evals label =
          float_of_int (Option.value ~default:0 (List.assoc_opt label r.Explore.evals_per_budget))
        in
        {
          items = r.Explore.grid_size;
          ops = 1;
          failures = (if r.Explore.validated then [] else [ "frontier re-validation failed" ]);
          extras =
            [ ("evals_proxy", evals "proxy"); ("evals_mid", evals "mid");
              ("evals_full", evals "full");
              ("frontier_size", float_of_int (List.length r.Explore.frontier));
              ( "faults",
                float_of_int
                  (List.fold_left
                     (fun a (pr : Explore.point_result) -> a + pr.Explore.objectives.Explore.faults)
                     0 r.Explore.results) ) ];
        });
  }

(* ------------------------------------------------------------------ *)
(* compile, the second part of verify: seeded .tk kernels plus the shipped
   examples, each through the frontend, the checked pipeline under three
   schemes, and the static vulnerability analysis. *)

type kernel = { k_name : string; src : string }

(* Only what the digests and the output check read is kept, so a round of
   thousands of kernels stays small in memory. *)
type compiled_cell = {
  cprog : Turnpike_ir.Prog.t;
  diags : Diag.t list;
  stats : Static_stats.t;
  vuln : Vuln.t;  (** without its per-definition windows *)
}

type compiled_kernel = {
  kernel : kernel;
  prog : (Turnpike_ir.Prog.t, string) result;
  by_scheme : (string * (compiled_cell, string) result) list;
}

let compile_schemes = [ Scheme.baseline; Scheme.turnstile; Scheme.turnpike ]

let read_examples dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".tk")
  |> List.sort compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         { k_name = path; src = In_channel.with_open_bin path In_channel.input_all })

let compile_one k =
  let bytes = float_of_int (String.length k.src) in
  count "frontend.bytes" bytes;
  let prog =
    span "frontend" "compile_string" (fun () -> Tk.compile_string ~file:k.k_name ~scale:1 k.src)
  in
  let by_scheme =
    match prog with
    | Error _ -> []
    | Ok prog ->
      List.map
        (fun scheme ->
          let opts = Scheme.compile_opts scheme ~sb_size:4 in
          ( scheme.Scheme.name,
            match
              let c = span "compiler" "compile" (fun () -> PP.compile ~opts ~check:PP.PerPass prog) in
              let v = span "analysis" "vuln" (fun () -> Vuln.compute (PP.analysis_context c)) in
              (c, v)
            with
            | c, v ->
              count "analysis.lint_errors" (float_of_int (Diag.error_count c.PP.diags));
              Ok { cprog = c.PP.prog; diags = c.PP.diags; stats = c.PP.stats;
                   vuln = { v with Vuln.windows = [] } }
            | exception e -> Error (Printexc.to_string e) ))
        compile_schemes
  in
  { kernel = k; prog; by_scheme }

let compile_check_fuel = 2_000_000

let compile ~seed ~kernels =
  {
    setup =
      (fun ~traced:_ ->
        let first = ((seed - 1) * kernels) + 1 in
        List.init kernels (fun i ->
            let s = first + i in
            { k_name = sprintf "fuzz-%d" s; src = Fuzz.generate ~seed:s })
        @ read_examples "examples");
    round = (fun ~traced:_ ks -> List.map compile_one ks);
    digests =
      (fun cks ->
        let cells f =
          List.concat_map
            (fun ck ->
              match ck.prog with
              | Error e -> [ sprintf "%s frontend-error %s" ck.kernel.k_name e ]
              | Ok _ ->
                List.map
                  (fun (s, r) ->
                    match r with
                    | Error e -> sprintf "%s %s exception %s" ck.kernel.k_name s e
                    | Ok c -> sprintf "%s %s %s" ck.kernel.k_name s (f c))
                  ck.by_scheme)
            cks
        in
        let entries =
          List.concat_map
            (fun ck ->
              List.filter_map
                (fun (s, r) ->
                  match r with
                  | Ok c ->
                    Some
                      { Lint.benchmark = ck.kernel.k_name; scheme = s;
                        diags = Diag.sort c.diags; check_log = [] }
                  | Error _ -> None)
                ck.by_scheme)
            cks
        in
        let sev s =
          List.fold_left
            (fun a (e : Lint.entry) ->
              a + List.length (List.filter (fun (d : Diag.t) -> d.Diag.severity = s) e.Lint.diags))
            0 entries
        in
        let lint =
          { Lint.per_pass = true; entries; errors = sev Diag.Error; warnings = sev Diag.Warn;
            infos = sev Diag.Info }
        in
        [ ("compile_static", digest_lines (cells (fun c -> Static_stats.to_json c.stats)));
          ("compile_lint", Digest.to_hex (Digest.string (Lint.to_json lint)));
          ("compile_vuln", digest_lines (cells (fun c -> Vuln.to_json c.vuln))) ]);
    check =
      (fun _ cks ->
        (* Run after the timed phase: interpretation would otherwise be a
           large share of this workload. *)
        let run prog =
          match Interp.run ~fuel:compile_check_fuel prog with
          | st when st.Interp.halted -> Ok st
          | _ -> Error "did not halt"
          | exception e -> Error (Printexc.to_string e)
        in
        let failures =
          List.concat_map
            (fun ck ->
              let name = ck.kernel.k_name in
              match ck.prog with
              | Error e ->
                List.map (fun s -> sprintf "%s/%s: frontend: %s" name s.Scheme.name e) compile_schemes
              | Ok prog ->
                let reference = run prog in
                List.filter_map
                  (fun (s, r) ->
                    match r with
                    | Error e -> Some (sprintf "%s/%s: raised %s" name s e)
                    | Ok c -> (
                      match List.filter (fun (d : Diag.t) -> d.Diag.severity = Diag.Error) c.diags with
                      | d :: _ -> Some (sprintf "%s/%s: lint: %s" name s (Diag.to_string d))
                      | [] -> (
                        match (reference, run c.cprog) with
                        | Ok a, Ok b when Interp.app_mem_equal a b -> None
                        | Ok _, Ok _ -> Some (sprintf "%s/%s: application memory differs" name s)
                        | Error e, _ -> Some (sprintf "%s/%s: reference run: %s" name s e)
                        | _, Error e -> Some (sprintf "%s/%s: compiled run: %s" name s e))))
                  ck.by_scheme)
            cks
        in
        let n = List.length cks in
        { items = n; ops = n * List.length compile_schemes; failures;
          extras = [] });
  }

(* ------------------------------------------------------------------ *)
(* Entry point *)

let json_str s = "\"" ^ Tel.Export.escape s ^ "\""
let json_num f = if Float.is_finite f then sprintf "%.17g" f else "null"

let json_obj kvs =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) kvs) ^ "}"

let json_list xs = "[" ^ String.concat "," xs ^ "]"

(* Per-layer figures of the traced round: every name, 0 where the layer did
   no work on this workload. *)
let layer_metrics ~extras =
  let l name = Option.value ~default:{ self_s = 0.; self_minor = 0.; calls = 0; durs_ms = [] }
      (Hashtbl.find_opt layers name) in
  let c key = Option.value ~default:0. (Hashtbl.find_opt counters key) in
  let e key = Option.value ~default:0. (List.assoc_opt key extras) in
  let calls name = float_of_int (l name).calls in
  let timing = l "timing" and interp = l "interp" and snapshot = l "snapshot" in
  let verifier = l "verifier" and frontend = l "frontend" and compiler = l "compiler" in
  let faults = c "verifier.faults" in
  [ ("timing.s", timing.self_s); ("timing.calls", calls "timing");
    ("timing.events", c "timing.events");
    ("timing.mevents_per_s", ratio (c "timing.events") timing.self_s /. 1e6);
    ("timing.minor_words_per_event", ratio timing.self_minor (c "timing.events"));
    ("timing.call_ms_p50", percentile 0.5 timing.durs_ms);
    ("timing.call_ms_p90", percentile 0.9 timing.durs_ms);
    ("timing.cycles", c "timing.cycles");
    ("timing.sb_full_stall_cycles", c "timing.sb_full_stall_cycles");
    ("timing.data_stall_cycles", c "timing.data_stall_cycles");
    ("timing.rbb_stall_cycles", c "timing.rbb_stall_cycles");
    ("timing.quarantined", c "timing.quarantined");
    ("timing.fast_released", c "timing.fast_released");
    ("interp.s", interp.self_s); ("interp.steps", c "interp.steps");
    ("interp.msteps_per_s", ratio (c "interp.steps") interp.self_s /. 1e6);
    ("interp.minor_words_per_step", ratio interp.self_minor (c "interp.steps"));
    ("snapshot.s", snapshot.self_s); ("snapshot.snapshots", c "snapshot.snapshots");
    ("snapshot.minor_words_per_snapshot", ratio snapshot.self_minor (c "snapshot.snapshots"));
    ("verifier.s", verifier.self_s); ("verifier.faults", faults);
    ("verifier.fault_ms_p50", percentile 0.5 verifier.durs_ms);
    ("verifier.fault_ms_p99", percentile 0.99 verifier.durs_ms);
    ("verifier.minor_words_per_fault", ratio verifier.self_minor faults);
    ("verifier.recovered", c "verifier.recovered");
    ("verifier.detections", c "verifier.detections"); ("verifier.sdc", c "verifier.sdc");
    ("verifier.crashed", c "verifier.crashed");
    ("injector.s", (l "injector").self_s); ("injector.faults", c "injector.faults");
    ("frontend.s", frontend.self_s); ("frontend.kernels", calls "frontend");
    ("frontend.kbytes_per_s", ratio (c "frontend.bytes") frontend.self_s /. 1e3);
    ("frontend.minor_words_per_byte", ratio frontend.self_minor (c "frontend.bytes"));
    ("compiler.s", compiler.self_s); ("compiler.calls", calls "compiler");
    ("compiler.call_ms_p50", percentile 0.5 compiler.durs_ms);
    ("compiler.call_ms_p99", percentile 0.99 compiler.durs_ms);
    ("compiler.minor_words_per_call", ratio compiler.self_minor (calls "compiler"));
    ("compiler.ckpts_inserted", c "compiler.ckpts_inserted");
    ("compiler.ckpts_pruned", c "compiler.ckpts_pruned");
    ("compiler.code_size", c "compiler.code_size");
    ("analysis.vuln_s", (l "analysis").self_s); ("analysis.vuln_calls", calls "analysis");
    ("analysis.lint_errors", c "analysis.lint_errors");
    ("workloads.build_s", (l "workloads").self_s);
    ("workloads.build_calls", calls "workloads");
    ("run.s", (l "run").self_s); ("run.normalized_calls", calls "run");
    ("explore.s", (l "explore").self_s);
    ("explore.evals_proxy", e "evals_proxy"); ("explore.evals_mid", e "evals_mid");
    ("explore.evals_full", e "evals_full"); ("explore.frontier_size", e "frontier_size");
    ("explore.faults", e "faults") ]

type args = {
  workload : string;
  seed : int;
  trace : bool;
  check : bool;
  quick : bool;
  t0 : float option;
  chrome : string option;
}

let parse_args () =
  let a =
    ref { workload = ""; seed = 1; trace = false; check = true; quick = false; t0 = None;
          chrome = None }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> a := { !a with workload = w }; go rest
    | "--seed" :: n :: rest -> a := { !a with seed = int_of_string n }; go rest
    | "--trace" :: rest -> a := { !a with trace = true }; go rest
    | "--no-check" :: rest -> a := { !a with check = false }; go rest
    | "--quick" :: rest -> a := { !a with quick = true }; go rest
    | "--t0" :: t :: rest -> a := { !a with t0 = Some (float_of_string t) }; go rest
    | "--chrome" :: f :: rest -> a := { !a with chrome = Some f }; go rest
    | x :: _ -> raise (Arg.Bad ("unknown argument " ^ x))
  in
  go (List.tl (Array.to_list Sys.argv));
  !a

(* Set up (untraced: three times, for a median; the last set-up feeds the
   round), run one timed round, then check its outputs. The repetition
   count is fixed so that the heap's history, and so its peak, repeats. *)
let drive (type i o) (args : args) (w : (i, o) workload) =
  let setup_reps_s = ref [] and input = ref None in
  tracing := args.trace;
  for _ = 1 to if args.trace then 1 else 3 do
    let t = now () in
    input := Some (w.setup ~traced:args.trace);
    setup_reps_s := (now () -. t) :: !setup_reps_s
  done;
  let input = Option.get !input in
  (* The round starts from a cold Run cache and a collected heap holding
     only its inputs. *)
  Run.clear_cache ();
  Gc.compact ();
  in_timed := true;
  let t = now () and c = cpu () in
  let o = w.round ~traced:args.trace input in
  let wall = now () -. t and cpu_s = cpu () -. c in
  in_timed := false;
  tracing := false;
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let checked =
    if args.check then Some (w.check input o) else None
  in
  (List.rev !setup_reps_s, wall, cpu_s, peak_heap_mb, w.digests o, checked)

let () =
  let args =
    try parse_args ()
    with Arg.Bad m | Failure m ->
      prerr_endline ("bench: " ^ m);
      exit 2
  in
  let launch_s = match args.t0 with Some t0 -> now () -. t0 | None -> 0. in
  if args.workload = "launch" then begin
    (* Process start to here, for run.py's median over several launches. *)
    print_endline (json_obj [ ("launch_s", json_num launch_s) ]);
    exit 0
  end;
  Tel.Clock.set Unix.gettimeofday;
  Turnpike_parallel.set_default_jobs 1;
  if args.trace then sink := Tel.create ();
  let p = if args.quick then { Run.default_params with Run.scale = 1 } else Run.default_params in
  let setup_reps_s, wall, cpu_s, peak_heap_mb, digests, checked =
    match args.workload with
    | "sweep" ->
      (* Explore first: it clears Run's cache, which the grid's check then
         reads. *)
      let explore =
        if args.quick then
          explore ~seed:args.seed ~spec:Design_point.tiny_spec
            ~params:{ Run.default_params with Run.scale = 2; fuel = 100_000 } ()
        else explore ~seed:args.seed ~spec:Design_point.default_spec ()
      in
      drive args (pair ("explore", explore) ("grid", sweep p))
    | "verify" ->
      drive args
        (pair
           ("campaign", campaign ~seed:args.seed ~faults:(if args.quick then 8 else 300) p)
           ("compile", compile ~seed:args.seed ~kernels:(if args.quick then 40 else 5000)))
    | w ->
      prerr_endline ("bench: unknown workload " ^ w ^ " (sweep, verify)");
      exit 2
  in
  let str_pairs kvs = json_obj (List.map (fun (k, v) -> (k, json_str v)) kvs) in
  let num_pairs kvs = json_obj (List.map (fun (k, v) -> (k, json_num v)) kvs) in
  let checked_fields =
    match checked with
    | None -> []
    | Some c ->
      [ ("items", string_of_int c.items); ("ops", string_of_int c.ops);
        ("failures", json_list (List.map json_str c.failures));
        ("extras", num_pairs c.extras);
        ("part_items", num_pairs (List.map (fun (k, n) -> (k, float_of_int n)) !part_items)) ]
  in
  let traced_fields =
    if not args.trace then []
    else begin
      Option.iter
        (fun file ->
          Tel.Export.to_file file
            (Tel.Export.chrome ~process_names:[ (0, "perfbench " ^ args.workload) ]
               ~dropped:(Tel.dropped !sink) (Tel.events !sink)))
        args.chrome;
      let extras = match checked with Some c -> c.extras | None -> [] in
      [ ( "layers",
          num_pairs
            (layer_metrics ~extras @ [ ("trace.self_share", ratio !timed_self_s wall) ]) );
        ("spans", string_of_int (Tel.length !sink));
        ("spans_dropped", string_of_int (Tel.dropped !sink)) ]
    end
  in
  print_endline
    (json_obj
       ([ ("workload", json_str args.workload); ("seed", string_of_int args.seed);
          ("ocaml", json_str Sys.ocaml_version); ("jobs", "1");
          ("launch_s", json_num launch_s);
          ("setup_reps_s", json_list (List.map json_num setup_reps_s));
          ("wall_s", json_num wall); ("cpu_s", json_num cpu_s);
          ("parts", num_pairs !part_walls);
          ("peak_heap_mb", json_num peak_heap_mb); ("digests", str_pairs digests) ]
       @ checked_fields @ traced_fields))
