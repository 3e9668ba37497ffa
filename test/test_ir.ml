(* Unit and property tests for the IR substrate: registers, layout,
   instructions, blocks, functions, CFG, dominance, loops, liveness,
   builder and the interpreter. *)

open Turnpike_ir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_list = Alcotest.(check (list string))

(* ------------------------------------------------------------------ *)
(* Shared tiny programs. *)

(* entry -> loop(head) -> exit: sum of 0..n-1 into an output cell. *)
let sum_prog n =
  let b = Builder.create "sum" in
  Builder.label b "entry";
  let out = Builder.alloc_array b ~len:1 ~init:(fun _ -> 0) in
  let ob = Builder.fresh_reg b in
  Builder.mov b ~dst:ob (Imm out);
  let acc = Builder.fresh_reg b and i = Builder.fresh_reg b in
  Builder.mov b ~dst:acc (Imm 0);
  Builder.mov b ~dst:i (Imm 0);
  Builder.jump b "head";
  Builder.label b "head";
  Builder.add b ~dst:acc ~a:acc (Reg i);
  Builder.add b ~dst:i ~a:i (Imm 1);
  let c = Builder.fresh_reg b in
  Builder.cmp b Instr.Lt ~dst:c ~a:i (Imm n);
  Builder.branch b ~cond:c ~if_true:"head" ~if_false:"exit";
  Builder.label b "exit";
  Builder.store b ~src:acc ~base:ob ();
  Builder.ret b;
  (Builder.finish b, out)

(* A diamond: entry -> (left | right) -> join. *)
let diamond_prog ~take_left =
  let b = Builder.create "diamond" in
  Builder.label b "entry";
  let out = Builder.alloc_array b ~len:1 ~init:(fun _ -> 0) in
  let ob = Builder.fresh_reg b and c = Builder.fresh_reg b in
  Builder.mov b ~dst:ob (Imm out);
  Builder.mov b ~dst:c (Imm (if take_left then 1 else 0));
  let v = Builder.fresh_reg b in
  Builder.branch b ~cond:c ~if_true:"left" ~if_false:"right";
  Builder.label b "left";
  Builder.mov b ~dst:v (Imm 111);
  Builder.jump b "join";
  Builder.label b "right";
  Builder.mov b ~dst:v (Imm 222);
  Builder.jump b "join";
  Builder.label b "join";
  Builder.store b ~src:v ~base:ob ();
  Builder.ret b;
  (Builder.finish b, out)

(* ------------------------------------------------------------------ *)
(* Reg / Layout *)

let test_reg_classification () =
  check "zero is physical" true (Reg.is_physical Reg.zero);
  check "zero is zero" true (Reg.is_zero Reg.zero);
  check "phys 5 physical" true (Reg.is_physical (Reg.phys 5));
  check "virt 0 virtual" true (Reg.is_virtual (Reg.virt 0));
  check "virt not physical" false (Reg.is_physical (Reg.virt 3));
  Alcotest.(check string) "phys name" "r7" (Reg.to_string (Reg.phys 7));
  Alcotest.(check string) "virt name" "v2" (Reg.to_string (Reg.virt 2));
  Alcotest.(check string) "zero name" "rz" (Reg.to_string Reg.zero)

let test_reg_invalid () =
  Alcotest.check_raises "phys too big" (Invalid_argument "Reg.phys: 1024 out of range")
    (fun () -> ignore (Reg.phys Reg.virt_base));
  Alcotest.check_raises "virt negative" (Invalid_argument "Reg.virt: negative id")
    (fun () -> ignore (Reg.virt (-1)))

let test_layout_slots () =
  check_int "ckpt slot color stride" Layout.word
    (Layout.ckpt_slot ~reg:3 ~color:1 - Layout.ckpt_slot ~reg:3 ~color:0);
  check_int "ckpt slot reg stride" (Layout.colors * Layout.word)
    (Layout.ckpt_slot ~reg:4 ~color:0 - Layout.ckpt_slot ~reg:3 ~color:0);
  check "ckpt addr recognized" true (Layout.is_ckpt_addr (Layout.ckpt_slot ~reg:0 ~color:0));
  check "spill addr recognized" true (Layout.is_spill_addr (Layout.spill_slot 0));
  check "spill not ckpt" false (Layout.is_ckpt_addr (Layout.spill_slot 9));
  check_int "slot owner roundtrip" 11
    (Layout.ckpt_slot_reg (Layout.ckpt_slot ~reg:11 ~color:2))

(* ------------------------------------------------------------------ *)
(* Instr *)

let test_instr_defs_uses () =
  let i = Instr.Binop (Instr.Add, 1, 2, Instr.Reg 3) in
  Alcotest.(check (list int)) "binop defs" [ 1 ] (Instr.defs i);
  Alcotest.(check (list int)) "binop uses" [ 2; 3 ] (Instr.uses i);
  let st = Instr.Store (4, 5, 8, Instr.App_mem) in
  Alcotest.(check (list int)) "store defs" [] (Instr.defs st);
  Alcotest.(check (list int)) "store uses" [ 4; 5 ] (Instr.uses st);
  Alcotest.(check (list int)) "ckpt uses" [ 6 ] (Instr.uses (Instr.Ckpt 6));
  (* The zero register never appears as def or use. *)
  Alcotest.(check (list int)) "zero def dropped" []
    (Instr.defs (Instr.Mov (Reg.zero, Instr.Imm 3)));
  Alcotest.(check (list int)) "zero use dropped" []
    (Instr.uses (Instr.Load (2, Reg.zero, 16, Instr.Spill_mem)))

let test_instr_classes () =
  check "store is sb write" true (Instr.is_sb_write (Instr.Store (1, 2, 0, Instr.App_mem)));
  check "ckpt is sb write" true (Instr.is_sb_write (Instr.Ckpt 1));
  check "load not sb write" false (Instr.is_sb_write (Instr.Load (1, 2, 0, Instr.App_mem)));
  check "mov pure" true (Instr.is_pure (Instr.Mov (1, Instr.Imm 0)));
  check "load impure" false (Instr.is_pure (Instr.Load (1, 2, 0, Instr.App_mem)));
  check "boundary marker" true (Instr.is_boundary (Instr.Boundary 4))

let test_instr_eval () =
  check_int "add" 7 (Instr.eval_binop Instr.Add 3 4);
  check_int "sub" (-1) (Instr.eval_binop Instr.Sub 3 4);
  check_int "mul" 12 (Instr.eval_binop Instr.Mul 3 4);
  check_int "div" 2 (Instr.eval_binop Instr.Div 9 4);
  check_int "div by zero is 0" 0 (Instr.eval_binop Instr.Div 9 0);
  check_int "rem by zero is 0" 0 (Instr.eval_binop Instr.Rem 9 0);
  check_int "shl" 24 (Instr.eval_binop Instr.Shl 3 3);
  check_int "shr" 3 (Instr.eval_binop Instr.Shr 24 3);
  check_int "cmp lt true" 1 (Instr.eval_cmp Instr.Lt 1 2);
  check_int "cmp lt false" 0 (Instr.eval_cmp Instr.Lt 2 1);
  check_int "cmp eq" 1 (Instr.eval_cmp Instr.Eq 5 5);
  check_int "cmp ge" 1 (Instr.eval_cmp Instr.Ge 5 5)

let test_instr_rename () =
  let i = Instr.Binop (Instr.Xor, 1, 2, Instr.Reg 3) in
  let j = Instr.rename (fun r -> r + 10) i in
  check "renamed" true (Instr.equal j (Instr.Binop (Instr.Xor, 11, 12, Instr.Reg 13)));
  (* Identity rename is the identity. *)
  check "identity" true (Instr.equal i (Instr.rename (fun r -> r) i));
  (* Immediates are untouched. *)
  let m = Instr.Mov (1, Instr.Imm 42) in
  check "imm untouched" true (Instr.equal (Instr.Mov (9, Instr.Imm 42)) (Instr.rename (fun _ -> 9) m))

(* ------------------------------------------------------------------ *)
(* Block / Func *)

let test_block_successors () =
  let b = Block.create ~term:(Block.Branch (1, "a", "b")) "x" in
  check_list "branch succs" [ "a"; "b" ] (Block.successors b);
  let b2 = Block.create ~term:(Block.Branch (1, "a", "a")) "y" in
  check_list "dedup succs" [ "a" ] (Block.successors b2);
  let b3 = Block.create ~term:Block.Ret "z" in
  check_list "ret succs" [] (Block.successors b3);
  Alcotest.(check (list int)) "term uses" [ 1 ] (Block.term_uses b)

let test_block_counts () =
  let body =
    [| Instr.Store (1, 2, 0, Instr.App_mem); Instr.Ckpt 3; Instr.Nop;
       Instr.Load (4, 5, 0, Instr.App_mem) |]
  in
  let b = Block.create ~body "c" in
  check_int "num instrs" 4 (Block.num_instrs b);
  check_int "num sb writes" 2 (Block.num_stores b)

let test_func_validate () =
  let good = Func.create ~name:"f" ~entry:"a"
      [ Block.create ~term:(Block.Jump "b") "a"; Block.create "b" ]
  in
  check_list "valid" [] (Func.validate good);
  let bad = Func.create ~name:"g" ~entry:"a"
      [ Block.create ~term:(Block.Jump "missing") "a" ]
  in
  check_int "invalid has errors" 1 (List.length (Func.validate bad))

let test_func_duplicate_label () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Func.create: duplicate label a") (fun () ->
      ignore (Func.create ~name:"f" ~entry:"a" [ Block.create "a"; Block.create "a" ]))

let test_func_copy_independent () =
  let prog, _ = sum_prog 3 in
  let f = prog.Prog.func in
  let g = Func.copy f in
  (Func.block g "head").Block.body.(0) <- Instr.Nop;
  check "copy is deep" false
    (Instr.equal (Func.block f "head").Block.body.(0) Instr.Nop)

let test_func_add_block_and_fallthrough () =
  let f = Func.create ~name:"f" ~entry:"a"
      [ Block.create ~term:(Block.Jump "b") "a"; Block.create "b" ]
  in
  Func.add_block f (Block.create "mid") ~after:"a";
  check_list "order" [ "a"; "mid"; "b" ] (Func.labels f);
  let tbl = Func.fallthrough_table f in
  Alcotest.(check (option string)) "fallthrough a" (Some "mid") (Hashtbl.find_opt tbl "a");
  Alcotest.(check (option string)) "fallthrough b" None (Hashtbl.find_opt tbl "b");
  Alcotest.(check (option string)) "table" (Some "b") (Hashtbl.find_opt tbl "mid")

(* ------------------------------------------------------------------ *)
(* Cfg / Dominance / Loops / Liveness *)

let test_cfg_preds_rpo () =
  let prog, _ = diamond_prog ~take_left:true in
  let cfg = Cfg.build prog.Prog.func in
  check_list "join preds" [ "right"; "left" ]
    (Cfg.predecessors cfg "join" |> List.sort compare |> List.rev);
  let rpo = Cfg.reverse_postorder cfg in
  Alcotest.(check string) "entry first" "entry" (List.hd rpo);
  check "join last-ish" true
    (Cfg.rpo_number cfg "join" > Cfg.rpo_number cfg "left");
  check "reachable" true (Cfg.is_reachable cfg "right")

let test_cfg_unreachable () =
  let f = Func.create ~name:"f" ~entry:"a"
      [ Block.create "a"; Block.create "island" ]
  in
  let cfg = Cfg.build f in
  check "island unreachable" false (Cfg.is_reachable cfg "island");
  Alcotest.(check (option int)) "no rpo" None (Cfg.rpo_number cfg "island")

let test_dominance_diamond () =
  let prog, _ = diamond_prog ~take_left:true in
  let cfg = Cfg.build prog.Prog.func in
  let dom = Dominance.compute cfg in
  check "entry dominates join" true (Dominance.dominates dom ~dom:"entry" ~sub:"join");
  check "left not dominating join" false (Dominance.dominates dom ~dom:"left" ~sub:"join");
  Alcotest.(check (option string)) "idom join" (Some "entry") (Dominance.idom dom "join");
  Alcotest.(check (option string)) "idom entry" None (Dominance.idom dom "entry");
  check "reflexive" true (Dominance.dominates dom ~dom:"left" ~sub:"left");
  check "strict not reflexive" false (Dominance.strictly_dominates dom ~dom:"left" ~sub:"left");
  check_list "dominators of join" [ "entry"; "join" ]
    (List.sort compare (Dominance.dominators dom "join"))

let test_loops_simple () =
  let prog, _ = sum_prog 5 in
  let cfg = Cfg.build prog.Prog.func in
  let dom = Dominance.compute cfg in
  let loops = Loop_info.compute cfg dom in
  check "head is header" true (Loop_info.is_header loops "head");
  check "entry not header" false (Loop_info.is_header loops "entry");
  check_int "depth of head" 1 (Loop_info.depth loops "head");
  check_int "depth of exit" 0 (Loop_info.depth loops "exit");
  match Loop_info.loop_of_header loops "head" with
  | None -> Alcotest.fail "loop not found"
  | Some lp ->
    check_list "latches" [ "head" ] lp.Loop_info.latches;
    check_list "body" [ "head" ] lp.Loop_info.blocks;
    let exits = Loop_info.exits loops cfg "head" in
    check "exit edge to exit" true (List.mem ("head", "exit") exits)

let test_loops_nested () =
  let b = Builder.create "nest" in
  Builder.label b "entry";
  let i = Builder.fresh_reg b and j = Builder.fresh_reg b in
  Builder.mov b ~dst:i (Imm 0);
  Builder.jump b "outer";
  Builder.label b "outer";
  Builder.mov b ~dst:j (Imm 0);
  Builder.jump b "inner";
  Builder.label b "inner";
  Builder.add b ~dst:j ~a:j (Imm 1);
  let cj = Builder.fresh_reg b in
  Builder.cmp b Instr.Lt ~dst:cj ~a:j (Imm 3);
  Builder.branch b ~cond:cj ~if_true:"inner" ~if_false:"outer_latch";
  Builder.label b "outer_latch";
  Builder.add b ~dst:i ~a:i (Imm 1);
  let ci = Builder.fresh_reg b in
  Builder.cmp b Instr.Lt ~dst:ci ~a:i (Imm 3);
  Builder.branch b ~cond:ci ~if_true:"outer" ~if_false:"done";
  Builder.label b "done";
  Builder.ret b;
  let prog = Builder.finish b in
  let cfg = Cfg.build prog.Prog.func in
  let dom = Dominance.compute cfg in
  let loops = Loop_info.compute cfg dom in
  check_int "inner depth 2" 2 (Loop_info.depth loops "inner");
  check_int "outer depth 1" 1 (Loop_info.depth loops "outer");
  (match Loop_info.loop_of_header loops "inner" with
  | Some lp -> Alcotest.(check (option string)) "parent" (Some "outer") lp.Loop_info.parent
  | None -> Alcotest.fail "inner loop missing");
  check_int "two loops" 2 (List.length (Loop_info.loops loops))

let test_liveness_loop () =
  let prog, _ = sum_prog 4 in
  let f = prog.Prog.func in
  let cfg = Cfg.build f in
  let live = Liveness.compute cfg f in
  (* acc (v1) and i (v2) are loop-carried: live into head. *)
  let head_in = Liveness.live_in live "head" in
  check "acc live at head" true (Reg.Set.mem (Reg.virt 1) head_in);
  check "i live at head" true (Reg.Set.mem (Reg.virt 2) head_in);
  (* output base is live through the loop into exit. *)
  check "ob live at exit" true (Reg.Set.mem (Reg.virt 0) (Liveness.live_in live "exit"));
  (* The compare temp is dead across iterations. *)
  check "cmp temp dead at head" false (Reg.Set.mem (Reg.virt 3) head_in)

let test_liveness_per_instruction () =
  let prog, _ = sum_prog 4 in
  let f = prog.Prog.func in
  let cfg = Cfg.build f in
  let live = Liveness.compute cfg f in
  let head = Func.block f "head" in
  let before = Liveness.live_before_each live head in
  check_int "slots" (Block.num_instrs head + 1) (Array.length before);
  (* Before the terminator, the branch condition is live. *)
  check "cond live before term" true (Reg.Set.mem (Reg.virt 3) before.(Array.length before - 1))

(* ------------------------------------------------------------------ *)
(* Builder / Interp *)

let test_builder_implicit_fallthrough () =
  let b = Builder.create "ft" in
  Builder.label b "a";
  Builder.nop b;
  Builder.label b "b" (* implicit jump a->b *);
  Builder.ret b;
  let prog = Builder.finish b in
  match (Func.block prog.Prog.func "a").Block.term with
  | Block.Jump "b" -> ()
  | _ -> Alcotest.fail "expected implicit jump"

let test_builder_errors () =
  let b = Builder.create "e" in
  Alcotest.check_raises "emit outside block"
    (Invalid_argument "Builder: instruction outside any block") (fun () ->
      Builder.nop b)

let test_interp_sum () =
  let prog, out = sum_prog 10 in
  let st = Interp.run prog in
  check_int "sum 0..9" 45 (Interp.get_mem st out);
  check "halted" true st.Interp.halted

let test_interp_diamond () =
  let prog, out = diamond_prog ~take_left:true in
  check_int "left path" 111 (Interp.get_mem (Interp.run prog) out);
  let prog2, out2 = diamond_prog ~take_left:false in
  check_int "right path" 222 (Interp.get_mem (Interp.run prog2) out2)

let test_interp_zero_reg () =
  let b = Builder.create "z" in
  Builder.label b "entry";
  let out = Builder.alloc_array b ~len:1 ~init:(fun _ -> 7) in
  let r = Builder.fresh_reg b in
  (* Writing the zero register is discarded. *)
  Builder.emit b (Instr.Mov (Reg.zero, Instr.Imm 99));
  Builder.emit b (Instr.Binop (Instr.Add, r, Reg.zero, Instr.Imm out));
  Builder.emit b (Instr.Store (Reg.zero, r, 0, Instr.App_mem));
  Builder.ret b;
  let st = Interp.run (Builder.finish b) in
  check_int "store of zero" 0 (Interp.get_mem st out)

let test_interp_out_of_fuel () =
  let b = Builder.create "inf" in
  Builder.label b "spin";
  Builder.nop b;
  Builder.jump b "spin";
  let prog = Builder.finish b in
  Alcotest.check_raises "out of fuel" Interp.Out_of_fuel (fun () ->
      ignore (Interp.run ~fuel:100 prog))

let test_interp_ckpt_default () =
  let b = Builder.create "ck" in
  Builder.label b "entry";
  let r = Builder.fresh_reg b in
  Builder.mov b ~dst:r (Imm 77);
  Builder.emit b (Instr.Ckpt r);
  Builder.ret b;
  let prog = Builder.finish b in
  let st = Interp.run prog in
  check_int "ckpt slot color0" 77
    (Interp.get_mem st (Layout.ckpt_slot ~reg:r ~color:0))

let test_trace_counts () =
  let prog, _ = sum_prog 5 in
  let trace, st = Interp.trace_run prog in
  check "complete" true trace.Trace.complete;
  check "halted" true st.Interp.halted;
  (* 5 iterations x (2 adds + cmp) + 4 entry movs + store + branches. *)
  check_int "loads" 0 (Trace.count (function Trace.Load _ -> true | _ -> false) trace);
  check_int "stores" 1 (Trace.count (function Trace.Store _ -> true | _ -> false) trace);
  check_int "sb writes" 1 (Trace.num_sb_writes trace);
  check_int "no boundaries" 0 (Trace.num_boundaries trace);
  check "instr count sane" true (Trace.num_instructions trace >= 20)

let test_trace_fallthrough_branches () =
  (* The loop's back edge is a fetch redirect; the final exit edge is a
     fall-through. *)
  let prog, _ = sum_prog 3 in
  let trace, _ = Interp.trace_run prog in
  let taken = Trace.count (function Trace.Branch { taken = true; _ } -> true | _ -> false) trace in
  let not_taken = Trace.count (function Trace.Branch { taken = false; _ } -> true | _ -> false) trace in
  (* Three iterations take the back edge twice; the entry->head jump is a
     fall-through and emits nothing. *)
  check_int "taken = back edges" 2 taken;
  (* The final exit edge is a fall-through branch. *)
  check_int "fallthrough exit" 1 not_taken

let test_interp_mem_equal () =
  let prog, _ = sum_prog 6 in
  let a = Interp.run prog and b = Interp.run prog in
  check "identical runs equal" true (Interp.mem_equal a b);
  Interp.set_mem a 0x1234_5678 9;
  check "divergent not equal" false (Interp.mem_equal a b);
  (* Checkpoint-space differences are ignored by app_mem_equal. *)
  let c = Interp.run prog and d = Interp.run prog in
  Interp.set_mem c (Layout.ckpt_slot ~reg:1 ~color:0) 5;
  check "ckpt space excluded" true (Interp.app_mem_equal c d);
  (* A copy shares nothing mutable with its source. *)
  let src = Interp.run prog in
  let cp = Interp.copy src in
  Interp.set_reg cp 7 99;
  Interp.set_mem cp (Layout.data_base + 64) 99;
  Interp.jump cp "head";
  check_int "source reg untouched" 0 (Interp.get_reg src 7);
  check_int "source mem untouched" 0 (Interp.get_mem src (Layout.data_base + 64));
  check "source pc untouched" false (Interp.same_pc src cp);
  Alcotest.(check string) "copy pc moved" "head" (Interp.label cp);
  Interp.set_reg src 8 5;
  check_int "copy reg untouched" 0 (Interp.get_reg cp 8);
  check "copy regs differ after writes" false (Interp.regs_equal src cp);
  (* The comparison names the lowest differing address. *)
  let e = Interp.run prog and f = Interp.run prog in
  let addr k = Layout.data_base + 0x1000 + (k * Layout.word) in
  Interp.set_mem e (addr 9) 1;
  Interp.set_mem f (addr 3) 2;
  Interp.set_mem e (addr 5) 4;
  Alcotest.(check (option int)) "lowest differing address" (Some (addr 3))
    (Interp.mem_diff ~only:(fun _ -> true) e f);
  (* An absent binding and an explicit 0 are the same value. *)
  let g = Interp.run prog and h = Interp.run prog in
  Interp.set_mem g (addr 11) 0;
  Interp.set_reg g 9 0;
  check "absent memory = 0" true (Interp.mem_equal g h && Interp.mem_equal h g);
  check "absent register = 0" true (Interp.regs_equal g h && Interp.regs_equal h g);
  (* The predicate excludes addresses from the comparison. *)
  Alcotest.(check (option int)) "excluded addresses ignored" (Some (addr 9))
    (Interp.mem_diff ~only:(fun k -> k <> addr 3 && k <> addr 5) e f);
  Alcotest.(check (option int)) "all differences excluded" None
    (Interp.mem_diff ~only:(fun k -> k < addr 3) e f);
  (* Edge addresses: the overflow table (unaligned, negative, below the
     data segment, far past its footprint) and the spill and checkpoint
     segments behave like any data word. *)
  let edges =
    [
      ("unaligned", Layout.data_base + 3);
      ("negative", -8);
      ("below data_base", 0x100);
      ("far past the data", 0x1234_5678);
      ("spill", Layout.spill_slot 5);
      ("ckpt", Layout.ckpt_slot ~reg:3 ~color:2);
    ]
  in
  List.iter
    (fun (what, a) ->
      let src = Interp.run prog in
      let cp = Interp.copy src in
      Interp.set_mem cp a 7;
      check_int (what ^ ": source untouched") 0 (Interp.get_mem src a);
      Interp.set_mem src a 9;
      check_int (what ^ ": copy untouched") 7 (Interp.get_mem cp a);
      (* The lowest difference wins across the paged and overflow parts. *)
      let e = Interp.run prog and f = Interp.run prog in
      Interp.set_mem e a 1;
      Interp.set_mem e (addr 2) 1;
      let lo = min a (addr 2) and hi = max a (addr 2) in
      Alcotest.(check (option int)) (what ^ ": lowest differing address") (Some lo)
        (Interp.mem_diff ~only:(fun _ -> true) e f);
      Alcotest.(check (option int)) (what ^ ": next differing address") (Some hi)
        (Interp.mem_diff ~only:(fun k -> k <> lo) f e);
      Interp.set_mem f a 1;
      Interp.set_mem f (addr 2) 1;
      check (what ^ ": equal again") true (Interp.mem_equal e f))
    edges;
  (* A virtual register with a large id grows the register file. *)
  let src = Interp.run prog in
  let cp = Interp.copy src in
  let v = Reg.virt 5000 in
  Interp.set_reg cp v 3;
  check_int "large register in the copy" 3 (Interp.get_reg cp v);
  check_int "large register: source untouched" 0 (Interp.get_reg src v);
  check "grown register file differs" false (Interp.regs_equal src cp);
  Interp.set_reg cp v 0;
  check "grown = ungrown register file once 0" true
    (Interp.regs_equal src cp && Interp.regs_equal cp src);
  (* Absent = explicit 0 between a grown memory and an ungrown one. *)
  let g = Interp.run prog and h = Interp.run prog in
  Interp.set_mem g (Layout.data_base + (8 * 5000)) 0;
  Interp.set_mem g (Layout.spill_slot 700) 0;
  Interp.set_mem g 0x1234_5678 0;
  check "grown memory = ungrown" true (Interp.mem_equal g h && Interp.mem_equal h g);
  (* A word held in the overflow table moves into the segment once the
     segment grows over it, and reads back unchanged. *)
  let page k = Layout.data_base + (k * 128 * Layout.word) in
  let g = Interp.run prog and h = Interp.run prog in
  Interp.set_mem g (page 40) 5;
  Interp.set_mem g (page 30) 1;
  Interp.set_mem g (page 50) 1;
  check_int "overflow word survives growth" 5 (Interp.get_mem g (page 40));
  List.iter (fun k -> Interp.set_mem h (page k) (if k = 40 then 5 else 1)) [ 50; 30; 40 ];
  check "same words, different write order" true (Interp.mem_equal g h);
  (* A far write goes to the overflow table: it does not grow a segment
     to reach it. *)
  let st = Interp.run prog in
  let before = Obj.reachable_words (Obj.repr st) in
  Interp.set_mem st 0x1234_5678 9;
  Interp.set_mem st (Layout.spill_base + 0x0100_0000) 9;
  let grown = Obj.reachable_words (Obj.repr st) - before in
  if grown > 1000 then Alcotest.failf "far writes grew the state by %d words" grown

(* Every event shape, with zero, negative and virtual registers, survives
   the columnar encoding: the decoded view is the event put in. *)
let test_trace_round_trip () =
  let v = Reg.virt 7 and neg = -3 in
  let es =
    [
      Trace.Alu { dst = Some 1; srcs = [] };
      Trace.Alu { dst = Some v; srcs = [ neg ] };
      Trace.Alu { dst = None; srcs = [ 2; v ] };
      Trace.Alu { dst = Some neg; srcs = [ Reg.zero; 5 ] };
      Trace.Load { dst = 4; srcs = []; addr = 0x1000_0000; kind = Instr.App_mem };
      Trace.Load { dst = v; srcs = [ 6 ]; addr = -8; kind = Instr.Spill_mem };
      Trace.Load { dst = neg; srcs = [ v ]; addr = max_int; kind = Instr.Ckpt_mem };
      Trace.Store { srcs = []; addr = 0; cls = Trace.Regular_app };
      Trace.Store { srcs = [ 3 ]; addr = 16; cls = Trace.Regular_spill };
      Trace.Store { srcs = [ neg; v ]; addr = min_int; cls = Trace.Checkpoint };
      Trace.Ckpt { src = 9 };
      Trace.Ckpt { src = Reg.zero };
      Trace.Ckpt { src = neg };
      Trace.Branch { srcs = []; taken = true; pc = 12345 };
      Trace.Branch { srcs = [ 7 ]; taken = false; pc = -1 };
      Trace.Branch { srcs = [ v ]; taken = true; pc = 0 };
      Trace.Boundary { region = 0 };
      Trace.Boundary { region = -1 };
    ]
  in
  let t = Trace.of_events ~complete:false es in
  check "incomplete flag kept" false t.Trace.complete;
  check_int "length" (List.length es) (Trace.length t);
  List.iteri
    (fun i e ->
      Alcotest.(check string) "decoded event" (Trace.show_event e)
        (Trace.show_event (Trace.get t i));
      check "equal" true (Trace.equal_event e (Trace.get t i)))
    es;
  check_int "sb writes" 6 (Trace.num_sb_writes t);
  check_int "ckpts" 3 (Trace.num_ckpts t);
  check_int "boundaries" 2 (Trace.num_boundaries t);
  check_int "instructions" (List.length es - 2) (Trace.num_instructions t);
  Alcotest.check_raises "three sources rejected"
    (Invalid_argument "Trace.of_events: more than two source registers") (fun () ->
      ignore (Trace.of_events [ Trace.Alu { dst = None; srcs = [ 1; 2; 3 ] } ]));
  let wide = 1 lsl 26 in
  ignore (Trace.of_events [ Trace.Alu { dst = Some (wide - 1); srcs = [ -wide ] } ]);
  Alcotest.check_raises "two-source branch rejected"
    (Invalid_argument "Trace: only ALU ops and stores take two sources") (fun () ->
      ignore (Trace.of_events [ Trace.Branch { srcs = [ 1; 2 ]; taken = true; pc = 3 } ]));
  Alcotest.check_raises "register beyond the 27-bit field rejected"
    (Invalid_argument "Trace: register id outside the 27-bit field") (fun () ->
      ignore (Trace.of_events [ Trace.Alu { dst = Some wide; srcs = [] } ]))

(* ------------------------------------------------------------------ *)
(* QCheck properties. *)

let prop_eval_add_sub_inverse =
  QCheck.Test.make ~name:"binop: (a+b)-b = a" ~count:200
    QCheck.(pair small_signed_int small_signed_int)
    (fun (a, b) ->
      Instr.eval_binop Instr.Sub (Instr.eval_binop Instr.Add a b) b = a)

let prop_eval_cmp_total_order =
  QCheck.Test.make ~name:"cmp: lt/eq/gt partition" ~count:200
    QCheck.(pair small_signed_int small_signed_int)
    (fun (a, b) ->
      Instr.eval_cmp Instr.Lt a b + Instr.eval_cmp Instr.Eq a b
      + Instr.eval_cmp Instr.Gt a b
      = 1)

let prop_rename_compose =
  QCheck.Test.make ~name:"rename composes" ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (x, y) ->
      let i = Instr.Binop (Instr.Add, 1, 2, Instr.Reg 3) in
      let f r = r + x and g r = r + y in
      Instr.equal
        (Instr.rename f (Instr.rename g i))
        (Instr.rename (fun r -> f (g r)) i))

let prop_interp_sum_closed_form =
  QCheck.Test.make ~name:"interp: sum loop matches closed form" ~count:30
    QCheck.(int_range 1 60)
    (fun n ->
      let prog, out = sum_prog n in
      Interp.get_mem (Interp.run prog) out = n * (n - 1) / 2)

let prop_trace_instr_count_matches_rerun =
  QCheck.Test.make ~name:"trace is deterministic" ~count:20
    QCheck.(int_range 1 40)
    (fun n ->
      let prog, _ = sum_prog n in
      let t1, _ = Interp.trace_run prog in
      let t2, _ = Interp.trace_run prog in
      Trace.length t1 = Trace.length t2)

let qcheck =
  List.map QCheck_alcotest.to_alcotest
    [ prop_eval_add_sub_inverse; prop_eval_cmp_total_order; prop_rename_compose;
      prop_interp_sum_closed_form; prop_trace_instr_count_matches_rerun ]

let tests =
  [
    ("reg classification", `Quick, test_reg_classification);
    ("reg invalid args", `Quick, test_reg_invalid);
    ("layout slots", `Quick, test_layout_slots);
    ("instr defs/uses", `Quick, test_instr_defs_uses);
    ("instr classes", `Quick, test_instr_classes);
    ("instr eval", `Quick, test_instr_eval);
    ("instr rename", `Quick, test_instr_rename);
    ("block successors", `Quick, test_block_successors);
    ("block counts", `Quick, test_block_counts);
    ("func validate", `Quick, test_func_validate);
    ("func duplicate label", `Quick, test_func_duplicate_label);
    ("func copy is deep", `Quick, test_func_copy_independent);
    ("func add_block/fallthrough", `Quick, test_func_add_block_and_fallthrough);
    ("cfg preds and rpo", `Quick, test_cfg_preds_rpo);
    ("cfg unreachable block", `Quick, test_cfg_unreachable);
    ("dominance diamond", `Quick, test_dominance_diamond);
    ("loops simple", `Quick, test_loops_simple);
    ("loops nested", `Quick, test_loops_nested);
    ("liveness loop-carried", `Quick, test_liveness_loop);
    ("liveness per instruction", `Quick, test_liveness_per_instruction);
    ("builder implicit fallthrough", `Quick, test_builder_implicit_fallthrough);
    ("builder error handling", `Quick, test_builder_errors);
    ("interp sum", `Quick, test_interp_sum);
    ("interp diamond", `Quick, test_interp_diamond);
    ("interp zero register", `Quick, test_interp_zero_reg);
    ("interp out of fuel", `Quick, test_interp_out_of_fuel);
    ("interp ckpt default slot", `Quick, test_interp_ckpt_default);
    ("trace counts", `Quick, test_trace_counts);
    ("trace fallthrough branches", `Quick, test_trace_fallthrough_branches);
    ("trace columnar round trip", `Quick, test_trace_round_trip);
    ("interp mem equality", `Quick, test_interp_mem_equal);
  ]
  @ qcheck
