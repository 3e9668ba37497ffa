(* Differential oracle: the dense interpreter against the hash-table
   interpreter it replaced ([Reference_interp]). On every suite benchmark
   (uncompiled, and compiled under baseline, Turnstile and Turnpike) and
   on seeded .tk fuzz kernels, both must agree on [halted], [steps], the
   final pc, every register, every memory word and both trace columns,
   and must make the same writes, in the same order, through a recording
   [write_mem] hook. *)

open Turnpike_ir
module Ref = Reference_interp
module Run = Turnpike.Run
module Scheme = Turnpike.Scheme
module Suite = Turnpike_workloads.Suite
module PP = Turnpike_compiler.Pass_pipeline
module Tk = Turnpike_frontend.Tk
module Fuzz = Turnpike_frontend.Fuzz

let params = { Run.default_params with Run.scale = 1 }

let fuzz_seeds = 8

(* A dense state holding exactly the reference state's bindings, so
   [Interp.mem_diff] and [Interp.regs_equal] compare the two with absent
   reading as 0. *)
let image (r : Ref.state) =
  let empty =
    Prog.create (Func.create ~name:"image" ~entry:"e" [ Block.create ~term:Block.Ret "e" ])
  in
  let st = Interp.init empty in
  Hashtbl.iter (fun reg v -> Interp.set_reg st reg v) r.Ref.regs;
  Hashtbl.iter (fun a v -> Interp.set_mem st a v) r.Ref.mem;
  st

let check_states name (d : Interp.state) (r : Ref.state) =
  let fail what = Alcotest.failf "%s: dense and reference %s differ" name what in
  if d.Interp.halted <> r.Ref.halted then fail "halted";
  if d.Interp.steps <> r.Ref.steps then fail "steps";
  if Interp.label d <> r.Ref.pc.Ref.block || d.Interp.index <> r.Ref.pc.Ref.index then
    fail "final pc";
  let img = image r in
  if not (Interp.regs_equal d img) then fail "registers";
  match Interp.mem_diff ~only:(fun _ -> true) d img with
  | None -> ()
  | Some a ->
    Alcotest.failf "%s: memory differs first at 0x%x (dense %d, reference %d)" name a
      (Interp.get_mem d a) (Interp.get_mem img a)

let check_prog ~fuel name prog =
  let dt, dst = Interp.trace_run ~fuel prog in
  let rt, rst = Ref.trace_run ~fuel prog in
  check_states name dst rst;
  if dt.Trace.complete <> rt.Trace.complete then Alcotest.failf "%s: trace completeness" name;
  if dt.Trace.ops <> rt.Trace.ops then Alcotest.failf "%s: trace ops column" name;
  if dt.Trace.aux <> rt.Trace.aux then Alcotest.failf "%s: trace aux column" name;
  (* The same writes through a recording hook, and the same final state. *)
  if dt.Trace.complete then begin
    let dw = ref [] and rw = ref [] in
    let dense =
      Interp.run ~fuel
        ~hooks:
          {
            Interp.no_hooks with
            Interp.write_mem =
              (fun st a v ->
                dw := (a, v) :: !dw;
                Interp.set_mem st a v);
          }
        prog
    in
    let reference =
      Ref.run ~fuel
        ~hooks:
          {
            Ref.no_hooks with
            Ref.write_mem =
              (fun st a v ->
                rw := (a, v) :: !rw;
                Ref.set_mem st a v);
          }
        prog
    in
    check_states (name ^ " (hooked)") dense reference;
    if !dw <> !rw then Alcotest.failf "%s: hooked write streams differ" name
  end

let test_suite () =
  List.iter
    (fun b ->
      let name = Suite.qualified_name b in
      check_prog ~fuel:params.Run.fuel name (b.Suite.build ~scale:params.Run.scale);
      List.iter
        (fun (s : Scheme.t) ->
          let c = Run.compile_with params s b in
          check_prog ~fuel:params.Run.fuel (name ^ "/" ^ s.Scheme.name)
            c.Run.compiled.PP.prog)
        [ Scheme.baseline; Scheme.turnstile; Scheme.turnpike ])
    (Suite.all ())

let test_fuzz () =
  for seed = 0 to fuzz_seeds - 1 do
    let name = Printf.sprintf "fuzz-%d" seed in
    match Tk.compile_string ~file:name ~scale:1 (Fuzz.generate ~seed) with
    | Error e -> Alcotest.failf "%s rejected: %s" name e
    | Ok prog ->
      check_prog ~fuel:2_000_000 name prog;
      let c = PP.compile ~opts:PP.turnpike_opts prog in
      check_prog ~fuel:2_000_000 (name ^ "/turnpike") c.PP.prog
  done

let tests =
  [
    Alcotest.test_case "dense = reference on the suite x 3 schemes" `Quick test_suite;
    Alcotest.test_case "dense = reference on fuzz kernels" `Quick test_fuzz;
  ]
