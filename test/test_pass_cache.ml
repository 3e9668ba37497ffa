(* The analysis cache the compiler passes share, pinned three ways.

   - golden-compile-fuzz: one MD5 per (kernel, scheme) over the compiled
     IR text, the Static_stats JSON, the per-pass lint JSON and the
     static vulnerability JSON, for Fuzz.generate seeds 1..200 and every
     examples/*.tk, compiled with ~check:PerPass at sb_size 4 (the
     perfbench verify settings). A pass handed a stale analysis changes
     one of these digests.
   - off-equals-full: ~check:Off (cached analyses, no checks) and
     ~check:PerPassFull (every analysis rebuilt on each access) give the
     same program, regions, recovery expressions, claims and
     Static_stats on the suite at scale 1 and on the pinned fuzz seeds.
   - liveness-reference: the dense Liveness equals the tree-set
     Reference_liveness on every block of the suite programs and the
     pinned fuzz kernels, uncompiled and compiled under each scheme. *)

open Turnpike_ir
module PP = Turnpike_compiler.Pass_pipeline
module Static_stats = Turnpike_compiler.Static_stats
module Analysis = Turnpike_analysis
module Scheme = Turnpike.Scheme
module Lint = Turnpike.Lint
module Tk = Turnpike_frontend.Tk
module Fuzz = Turnpike_frontend.Fuzz
module Suite = Turnpike_workloads.Suite

let fuzz_seeds = List.init 200 (fun i -> i + 1)

let schemes = [ Scheme.baseline; Scheme.turnstile; Scheme.turnpike ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let examples_dir =
  List.find_opt Sys.file_exists [ Filename.concat ".." "examples"; "examples" ]
  |> Option.value ~default:"examples"

(* (name, source) of every pinned kernel, fuzz seeds first. *)
let kernels () =
  List.map (fun s -> (Printf.sprintf "fuzz-%d" s, Fuzz.generate ~seed:s)) fuzz_seeds
  @ (Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tk")
    |> List.sort compare
    |> List.map (fun f -> (f, read_file (Filename.concat examples_dir f))))

let frontend name src =
  match Tk.compile_string ~file:name ~scale:1 src with
  | Ok prog -> prog
  | Error e -> Alcotest.failf "%s: frontend error %s" name e

let opts_of scheme = Scheme.compile_opts scheme ~sb_size:4

let digest_row name (scheme : Scheme.t) prog =
  let c = PP.compile ~opts:(opts_of scheme) ~check:PP.PerPass prog in
  let sev s =
    List.length (List.filter (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.severity = s) c.PP.diags)
  in
  let lint =
    {
      Lint.per_pass = true;
      entries =
        [ { Lint.benchmark = name; scheme = scheme.Scheme.name; diags = c.PP.diags; check_log = [] } ];
      errors = sev Analysis.Diag.Error;
      warnings = sev Analysis.Diag.Warn;
      infos = sev Analysis.Diag.Info;
    }
  in
  let vuln = Analysis.Vuln.compute (PP.analysis_context c) in
  let text =
    String.concat "\n--\n"
      [
        Turnpike_ir.Func.to_string c.PP.prog.Turnpike_ir.Prog.func;
        Static_stats.to_json c.PP.stats;
        Lint.to_json lint;
        Analysis.Vuln.to_json vuln;
      ]
  in
  Printf.sprintf "%s,%s,%s" name scheme.Scheme.name (Digest.to_hex (Digest.string text))

let golden_dir =
  List.find_opt Sys.file_exists
    [
      Filename.concat (Filename.dirname Sys.executable_name) "golden";
      "golden"; Filename.concat "test" "golden";
    ]
  |> Option.value ~default:"golden"

let golden_name = "compile_fuzz.csv"

let test_golden () =
  let rows =
    List.concat_map
      (fun (name, src) ->
        let prog = frontend name src in
        List.map (fun s -> digest_row name s prog) schemes)
      (kernels ())
  in
  let got = String.concat "\n" ("kernel,scheme,md5" :: rows) ^ "\n" in
  let path = Filename.concat golden_dir golden_name in
  let expected = if Sys.file_exists path then read_file path else "" in
  if got <> expected then begin
    (* Leave the actual rows next to the failure so a deliberate change
       can be reviewed with diff and re-recorded. *)
    let path = Filename.temp_file "compile_fuzz" ".csv" in
    Out_channel.with_open_bin path (fun oc -> output_string oc got);
    Alcotest.failf "%s differs from the computed digests (written to %s)" golden_name path
  end

(* ------------------------------------------------------------------ *)
(* Differential oracles *)

(* (name, uncompiled program): the suite at scale 1, then the pinned fuzz
   kernels. *)
let programs () =
  let suite (e : Suite.entry) = (Suite.qualified_name e, e.Suite.build ~scale:1) in
  let fuzz s =
    let name = Printf.sprintf "fuzz-%d" s in
    (name, frontend name (Fuzz.generate ~seed:s))
  in
  List.map suite (Suite.all ()) @ List.map fuzz fuzz_seeds

let render (c : PP.t) =
  let prog = c.PP.prog in
  let pairs f l = String.concat ";" (List.map f l) in
  let site (l, i) = Printf.sprintf "%s:%d" l i in
  String.concat "\n"
    [
      Func.to_string prog.Prog.func;
      pairs (fun (r, v) -> Printf.sprintf "%s=%d" (Reg.to_string r) v) prog.Prog.reg_init;
      pairs (fun (a, v) -> Printf.sprintf "%d=%d" a v) prog.Prog.mem_init;
      pairs
        (fun (r : PP.region_info) ->
          Printf.sprintf "%d@%s[%s]" r.PP.id r.PP.head (pairs Reg.to_string r.PP.live_in))
        (Array.to_list c.PP.regions);
      Hashtbl.fold (fun r e acc -> (r, e) :: acc) c.PP.recovery_exprs []
      |> List.sort compare
      |> pairs (fun (r, e) -> Reg.to_string r ^ ":=" ^ Recovery_expr.to_string e);
      pairs site c.PP.claims.Turnpike_compiler.Claims.bypass_stores;
      pairs site c.PP.claims.Turnpike_compiler.Claims.direct_ckpts;
      Static_stats.to_json c.PP.stats;
    ]

let test_off_equals_full () =
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun (s : Scheme.t) ->
          let compile check = render (PP.compile ~opts:(opts_of s) ~check prog) in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s: Off and PerPassFull compile alike" name s.Scheme.name)
            (compile PP.PerPassFull) (compile PP.Off))
        schemes)
    (programs ())

let check_liveness name func =
  let cfg = Cfg.build func in
  let dense = Liveness.compute cfg func in
  let reference = Reference_liveness.compute cfg func in
  let same what a b =
    if not (Reg.Set.equal a b) then
      Alcotest.failf "%s: dense and reference %s differ" name what
  in
  Func.iter_blocks
    (fun b ->
      let l = b.Block.label in
      same (l ^ " live_in") (Liveness.live_in dense l) (Reference_liveness.live_in reference l);
      same (l ^ " live_out") (Liveness.live_out dense l) (Reference_liveness.live_out reference l);
      Array.iteri
        (fun i s ->
          same (Printf.sprintf "%s live_before_each.(%d)" l i) s
            (Reference_liveness.live_before_each reference b).(i))
        (Liveness.live_before_each dense b))
    func

let test_liveness_reference () =
  List.iter
    (fun (name, prog) ->
      check_liveness name prog.Prog.func;
      List.iter
        (fun (s : Scheme.t) ->
          let c = PP.compile ~opts:(opts_of s) prog in
          check_liveness (name ^ "/" ^ s.Scheme.name) c.PP.prog.Prog.func)
        schemes)
    (programs ())

let tests =
  [
    Alcotest.test_case "golden-compile-fuzz" `Slow test_golden;
    Alcotest.test_case "off-equals-full" `Slow test_off_equals_full;
    Alcotest.test_case "liveness-reference" `Slow test_liveness_reference;
  ]
