(* The hash-table interpreter the dense [Turnpike_ir.Interp] replaced, kept
   verbatim as a test-only differential oracle: the dense interpreter must
   agree with it on every register, memory word, step count and trace
   column (see test_interp_diff.ml). *)

open Turnpike_ir

(* Functional (architectural) interpreter. It defines the reference
   semantics used for correctness checks, produces dynamic traces for the
   timing model, and exposes a single-step API that the resilience engine
   drives for fault injection and region-restart recovery. *)

type pc = { block : string; index : int }

(* Registers and memory are hash tables in which an absent binding reads
   as 0. Only this module knows that: every other module reads, writes,
   copies and compares architectural state through the functions below. *)
type regs = (Reg.t, int) Hashtbl.t

type mem = (int, int) Hashtbl.t

type state = {
  regs : regs;
  mem : mem;
  mutable pc : pc;
  mutable steps : int;
  mutable halted : bool;
}

exception Out_of_fuel

(* [Hashtbl.find] with a handler instead of [find_opt] keeps every read
   allocation-free. *)
let find0 tbl k = match Hashtbl.find tbl k with v -> v | exception Not_found -> 0

let get_reg st r = if Reg.is_zero r then 0 else find0 st.regs r

let set_reg st r v = if not (Reg.is_zero r) then Hashtbl.replace st.regs r v

let get_mem st a = find0 st.mem a

let set_mem st a v = Hashtbl.replace st.mem a v

let copy st = { st with regs = Hashtbl.copy st.regs; mem = Hashtbl.copy st.mem }

(* Lowest key accepted by [only] whose values differ between two tables;
   [max_int] when they agree. A differing key holds a non-zero value on at
   least one side, so each side's scan only looks up its non-zero
   bindings. *)
let lowest_diff only a b =
  let low = ref max_int in
  let scan x y =
    Hashtbl.iter
      (fun k v -> if v <> 0 && k < !low && only k && v <> find0 y k then low := k)
      x
  in
  scan a b;
  scan b a;
  !low

let mem_diff ~only a b =
  let k = lowest_diff only a.mem b.mem in
  if k = max_int then None else Some k

let everywhere _ = true

let regs_equal a b = lowest_diff everywhere a.regs b.regs = max_int

let mem_equal a b = mem_diff ~only:everywhere a b = None

let app_mem_equal a b =
  mem_diff ~only:(fun k -> not (Layout.is_ckpt_addr k)) a b = None

let operand_value st = function
  | Instr.Reg r -> get_reg st r
  | Instr.Imm i -> i

let init (prog : Prog.t) =
  let st =
    {
      regs = Hashtbl.create 64;
      mem = Hashtbl.create 4096;
      pc = { block = prog.func.Func.entry; index = 0 };
      steps = 0;
      halted = false;
    }
  in
  List.iter (fun (a, v) -> set_mem st a v) prog.mem_init;
  (* Seed the base-color checkpoint slot of every initialised register: the
     initial architectural state counts as verified, so a rollback that
     restarts the entry region restores inputs instead of zeros. *)
  List.iter
    (fun (r, v) ->
      set_reg st r v;
      if not (Reg.is_zero r) then set_mem st (Layout.ckpt_slot ~reg:r ~color:0) v)
    prog.reg_init;
  st

let default_ckpt st r =
  set_mem st (Layout.ckpt_slot ~reg:r ~color:0) (get_reg st r)

type hooks = {
  on_ckpt : state -> Reg.t -> unit;
  on_boundary : state -> int -> unit;
  on_load : state -> int -> unit;
  write_mem : state -> int -> int -> unit;
}

let no_hooks =
  {
    on_ckpt = default_ckpt;
    on_boundary = (fun _ _ -> ());
    on_load = (fun _ _ -> ());
    write_mem = set_mem;
  }

(* Trace recording appends one event per executed instruction straight
   into the column buffer. The sources are those [Instr.uses] lists —
   the non-zero registers among [a] and [b], in that order — without
   building the list. *)
let record buf kind ~dst ~aux a b =
  match buf with
  | None -> ()
  | Some buf ->
    if Reg.is_zero a then
      if Reg.is_zero b then Trace.Buf.add buf kind ~nsrcs:0 ~dst ~s0:0 ~s1:0 ~aux
      else Trace.Buf.add buf kind ~nsrcs:1 ~dst ~s0:b ~s1:0 ~aux
    else if Reg.is_zero b then Trace.Buf.add buf kind ~nsrcs:1 ~dst ~s0:a ~s1:0 ~aux
    else Trace.Buf.add buf kind ~nsrcs:2 ~dst ~s0:a ~s1:b ~aux

let operand_reg = function Instr.Reg r -> r | Instr.Imm _ -> Reg.zero

let alu_dst = Trace.alu_kind ~has_dst:true

let exec hooks buf st (i : Instr.t) =
  match i with
  | Binop (op, d, a, o) ->
    set_reg st d (Instr.eval_binop op (get_reg st a) (operand_value st o));
    record buf alu_dst ~dst:d ~aux:0 a (operand_reg o)
  | Cmp (c, d, a, o) ->
    set_reg st d (Instr.eval_cmp c (get_reg st a) (operand_value st o));
    record buf alu_dst ~dst:d ~aux:0 a (operand_reg o)
  | Mov (d, o) ->
    set_reg st d (operand_value st o);
    record buf alu_dst ~dst:d ~aux:0 (operand_reg o) Reg.zero
  | Load (d, b, off, kind) ->
    let addr = get_reg st b + off in
    set_reg st d (get_mem st addr);
    hooks.on_load st addr;
    record buf (Trace.load_kind kind) ~dst:d ~aux:addr b Reg.zero
  | Store (s, b, off, kind) ->
    let addr = get_reg st b + off in
    hooks.write_mem st addr (get_reg st s);
    let cls =
      match kind with
      | Instr.Spill_mem -> Trace.Regular_spill
      | Instr.App_mem | Instr.Ckpt_mem -> Trace.Regular_app
    in
    record buf (Trace.store_kind cls) ~dst:0 ~aux:addr s b
  | Ckpt r -> (
    hooks.on_ckpt st r;
    (* A checkpoint always names its register, even the zero register. *)
    match buf with
    | Some buf -> Trace.Buf.add buf Trace.ckpt_kind ~nsrcs:1 ~dst:0 ~s0:r ~s1:0 ~aux:0
    | None -> ())
  | Boundary id ->
    hooks.on_boundary st id;
    record buf Trace.boundary_kind ~dst:0 ~aux:id Reg.zero Reg.zero
  | Nop -> record buf (Trace.alu_kind ~has_dst:false) ~dst:0 ~aux:0 Reg.zero Reg.zero

let exec_instr hooks st i = exec hooks None st i

(* A function prepared for stepping: its fall-through table is built once
   instead of on every control transfer. *)
type code = { func : Func.t; fallthrough : (string, string) Hashtbl.t }

let prepare func = { func; fallthrough = Func.fallthrough_table func }

let falls_to code block l =
  match Hashtbl.find code.fallthrough block with
  | next -> String.equal next l
  | exception Not_found -> false

let current_instr code st =
  let b = Func.block code.func st.pc.block in
  if st.pc.index < Array.length b.Block.body then Some b.Block.body.(st.pc.index)
  else None

let step_with hooks buf code st =
  if st.halted then ()
  else begin
    let b = Func.block code.func st.pc.block in
    let n = Array.length b.Block.body in
    if st.pc.index < n then begin
      exec hooks buf st b.Block.body.(st.pc.index);
      st.pc <- { st.pc with index = st.pc.index + 1 };
      st.steps <- st.steps + 1
    end
    else begin
      (* A control transfer to the layout successor is a fall-through: no
         fetch redirect, and for an unconditional jump not even an
         instruction (region-boundary block splits are PC markers, not
         code). *)
      let site = Hashtbl.hash st.pc.block in
      (match b.Block.term with
      | Block.Jump l ->
        if not (falls_to code st.pc.block l) then
          record buf (Trace.branch_kind ~taken:true) ~dst:0 ~aux:site Reg.zero Reg.zero;
        st.pc <- { block = l; index = 0 }
      | Block.Branch (r, l1, l2) ->
        let target = if get_reg st r <> 0 then l1 else l2 in
        let taken = not (falls_to code st.pc.block target) in
        (* The condition register is a source even when it is the zero
           register, as [Instr.uses] never sees terminators. *)
        (match buf with
        | Some buf ->
          Trace.Buf.add buf (Trace.branch_kind ~taken) ~nsrcs:1 ~dst:0 ~s0:r ~s1:0 ~aux:site
        | None -> ());
        st.pc <- { block = target; index = 0 }
      | Block.Ret -> st.halted <- true);
      st.steps <- st.steps + 1
    end
  end

let step ?(hooks = no_hooks) code st = step_with hooks None code st

(* The one fuel loop: a fresh state stepped until it halts or has taken
   [fuel] steps. *)
let run_fuel ~fuel hooks buf (prog : Prog.t) =
  let st = init prog in
  let code = prepare prog.func in
  while (not st.halted) && st.steps < fuel do
    step_with hooks buf code st
  done;
  st

let run ?(fuel = 10_000_000) ?(hooks = no_hooks) prog =
  let st = run_fuel ~fuel hooks None prog in
  if not st.halted then raise Out_of_fuel;
  st

let trace_run ?(fuel = 1_000_000) prog =
  let buf = Trace.Buf.create () in
  let st = run_fuel ~fuel no_hooks (Some buf) prog in
  (Trace.Buf.finish buf ~complete:st.halted, st)
