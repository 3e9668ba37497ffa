(* Loop induction variable merging (paper §4.1.2) — one of Turnpike's two
   novel compiler optimizations.

   Strength reduction turns address expressions into separate basic
   induction variables; each such variable is loop-carried, hence live-out
   of every iteration region and checkpointed every iteration. LIVM merges
   a basic induction variable [r2] (init B, step s2) into another basic
   induction variable [r1] (init 0, step s1, s1 | s2) by recomputing
   [r2 = B + r1 * (s2/s1)] locally at each use — the loop-carried
   dependence (and with it the per-iteration checkpoint) disappears.

   Runs before register allocation, on virtual registers. *)

open Turnpike_ir
module Context = Turnpike_analysis.Context

type merge = {
  victim : Reg.t;
  anchor : Reg.t;
  ratio : int;
  m_base : [ `Const of int | `Reg of Reg.t ];
  header : string;
}

type result = { func : Func.t; merged : int; merges : merge list }

type iv = {
  reg : Reg.t;
  step : int;
  inc_block : string;
  init_block : string;
  init : [ `Const of int | `Reg of Reg.t ];
}

let find_loop_ivs func cfg dom loops (lp : Loop_info.loop) =
  let in_loop l = List.exists (String.equal l) lp.Loop_info.blocks in
  (* Pre-header: the unique predecessor of the header outside the loop. *)
  let preheader =
    match List.filter (fun p -> not (in_loop p)) (Cfg.predecessors cfg lp.Loop_info.header) with
    | [ p ] -> Some p
    | _ -> None
  in
  match preheader with
  | None -> []
  | Some ph ->
    (* Defs per register inside the loop. *)
    let defs_in_loop : (Reg.t, (string * Instr.t) list) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun l ->
        Array.iter
          (fun i ->
            List.iter
              (fun d ->
                Hashtbl.replace defs_in_loop d
                  ((l, i) :: Option.value (Hashtbl.find_opt defs_in_loop d) ~default:[]))
              (Instr.defs i))
          (Func.block func l).Block.body)
      lp.Loop_info.blocks;
    let last_def_in_block label r =
      let b = Func.block func label in
      Array.fold_left
        (fun acc i -> if List.mem r (Instr.defs i) then Some i else acc)
        None b.Block.body
    in
    let ivs = ref [] in
    Hashtbl.iter
      (fun r defs ->
        match defs with
        | [ (l, Instr.Binop (Instr.Add, d, a, Instr.Imm step)) ]
          when Reg.equal d r && Reg.equal a r
               && List.for_all
                    (fun latch -> Dominance.dominates dom ~dom:l ~sub:latch)
                    lp.Loop_info.latches ->
          (* Initialization reaching the header from the pre-header. *)
          (match last_def_in_block ph r with
          | Some (Instr.Mov (_, Instr.Imm c)) ->
            ivs := { reg = r; step; inc_block = l; init_block = ph; init = `Const c } :: !ivs
          | Some (Instr.Mov (_, Instr.Reg base)) when not (Hashtbl.mem defs_in_loop base) ->
            ivs := { reg = r; step; inc_block = l; init_block = ph; init = `Reg base } :: !ivs
          | Some _ | None -> ())
        | _ -> ())
      defs_in_loop;
    ignore loops;
    !ivs

(* r2 merges into r1 when r1 starts at 0 and r1's step divides r2's. *)
let mergeable ~anchor:r1 ~victim:r2 =
  r1.init = `Const 0 && r2.step <> 0 && r1.step <> 0
  && r2.step mod r1.step = 0
  && r2.step / r1.step > 0
  && not (Reg.equal r1.reg r2.reg)

let run ?ctx func =
  let ctx = Context.for_func ?ctx func in
  let cfg = Context.cfg ctx in
  let dom = Context.dominance ctx in
  let loops = Context.loops ctx in
  let live = Context.liveness ctx in
  let merged = ref 0 in
  let merges = ref [] in
  let fresh =
    let next = ref (Func.max_reg func + 1) in
    fun () ->
      let r = max !next Reg.virt_base in
      next := r + 1;
      r
  in
  List.iter
    (fun (lp : Loop_info.loop) ->
      let in_loop l = List.exists (String.equal l) lp.Loop_info.blocks in
      let ivs = find_loop_ivs func cfg dom loops lp in
      (* Pick the anchor: a zero-initialized IV with the smallest step. *)
      let anchors = List.filter (fun iv -> iv.init = `Const 0) ivs in
      match
        List.sort (fun a b -> compare (abs a.step) (abs b.step)) anchors
      with
      | [] -> ()
      | anchor :: _ ->
        List.iter
          (fun victim ->
            if mergeable ~anchor ~victim then begin
              (* The victim must not escape the loop. *)
              let escapes =
                List.exists
                  (fun (_, target) ->
                    Reg.Set.mem victim.reg (Liveness.live_in live target))
                  (Loop_info.exits loops cfg lp.Loop_info.header)
              in
              (* Profitability: never merge an induction variable used as a
                 load base — the recompute would lengthen the load's
                 address path, which in-order pipelines cannot hide. Store
                 addresses are off the critical path, so store-base IVs
                 merge freely (they are also the ones whose checkpoints
                 pressure the store buffer). *)
              let feeds_a_load =
                List.exists
                  (fun l ->
                    in_loop l
                    && Array.exists
                         (fun i ->
                           match i with
                           | Instr.Load (_, base, _, _) -> Reg.equal base victim.reg
                           | _ -> false)
                         (Func.block func l).Block.body)
                  lp.Loop_info.blocks
              in
              if (not escapes) && not feeds_a_load then begin
                let ratio = victim.step / anchor.step in
                let base_operand =
                  match victim.init with
                  | `Const c -> Instr.Imm c
                  | `Reg b -> Instr.Reg b
                in
                (* Rewrite each in-loop use of the victim (except its own
                   increment, which is deleted) to a locally recomputed
                   value: t = anchor * ratio + base. *)
                let ok = ref true in
                let rewritten = ref [] in
                List.iter
                  (fun l ->
                    if in_loop l then begin
                      let b = Func.block func l in
                      let out = ref [] in
                      (* The recomputed value is CSE'd within the block: it
                         stays valid until the anchor (or the base register)
                         is redefined. *)
                      let cached = ref None in
                      let invalidates i =
                        List.exists
                          (fun d ->
                            Reg.equal d anchor.reg
                            ||
                            match base_operand with
                            | Instr.Reg base -> Reg.equal d base
                            | Instr.Imm _ -> false)
                          (Instr.defs i)
                      in
                      let recomputed () =
                        match !cached with
                        | Some t2 -> t2
                        | None ->
                          let t1 = fresh () and t2 = fresh () in
                          (* Prefer a 1-cycle shift for power-of-two ratios,
                             as real code generation would. *)
                          let scale =
                            if ratio land (ratio - 1) = 0 then
                              let rec log2 n acc =
                                if n <= 1 then acc else log2 (n / 2) (acc + 1)
                              in
                              Instr.Binop
                                (Instr.Shl, t1, anchor.reg, Instr.Imm (log2 ratio 0))
                            else Instr.Binop (Instr.Mul, t1, anchor.reg, Instr.Imm ratio)
                          in
                          out := Instr.Binop (Instr.Add, t2, t1, base_operand) :: scale :: !out;
                          cached := Some t2;
                          t2
                      in
                      Array.iter
                        (fun i ->
                          (match i with
                          | Instr.Binop (Instr.Add, d, a, Instr.Imm s)
                            when Reg.equal d victim.reg && Reg.equal a victim.reg
                                 && s = victim.step ->
                            () (* drop the increment *)
                          | _ when List.mem victim.reg (Instr.defs i) ->
                            (* Unexpected extra definition: bail out. *)
                            ok := false;
                            out := i :: !out
                          | _ when List.mem victim.reg (Instr.uses i) ->
                            let t2 = recomputed () in
                            out :=
                              Instr.rename
                                (fun r -> if Reg.equal r victim.reg then t2 else r)
                                i
                              :: !out
                          | _ -> out := i :: !out);
                          if invalidates i then cached := None)
                        b.Block.body;
                      rewritten := (b, List.rev !out) :: !rewritten;
                      (match b.Block.term with
                      | Block.Branch (r, _, _) when Reg.equal r victim.reg -> ok := false
                      | Block.Branch _ | Block.Jump _ | Block.Ret -> ())
                    end)
                  lp.Loop_info.blocks;
                if !ok then begin
                  List.iter (fun (b, body) -> Block.set_body b body) !rewritten;
                  incr merged;
                  merges :=
                    {
                      victim = victim.reg;
                      anchor = anchor.reg;
                      ratio;
                      m_base = victim.init;
                      header = lp.Loop_info.header;
                    }
                    :: !merges
                end
              end
            end)
          ivs)
    (Loop_info.loops loops);
  { func; merged = !merged; merges = List.rev !merges }
