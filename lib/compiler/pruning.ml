(* Optimal checkpoint pruning (paper §4.1.3, after Penny).

   A checkpoint is pruned when the value it would save can be reconstructed
   at recovery time from constants and the verified checkpoint slots of
   other registers. This implementation covers two cases:

   Straight-line: the checkpoint of a register [r] is pruned when
   - [r] has exactly one checkpoint site and exactly one definition in the
     whole function (so every recovery of [r] reconstructs the same way),
   - that definition is a pure instruction (mov / ALU / compare), and
   - each register operand is itself single-definition and either keeps an
     un-pruned checkpoint (read its slot) or recursively reconstructs.

   Diamond (paper Fig 9): [r] has exactly two definitions and two
   checkpoints, one in each arm of a two-sided branch whose condition is
   itself reconstructible; both checkpoints are pruned and recovery
   replays the branch as a select over the reconstructed predicate.

   Since regions verify strictly in order, any slot an expression reads
   was written and verified before the recovering region started —
   reconstruction is exact. The generated expressions are executed for
   real by the resilience engine, so soundness is tested end to end. *)

open Turnpike_ir
module Context = Turnpike_analysis.Context

type result = {
  func : Func.t;
  exprs : (Reg.t, Recovery_expr.t) Hashtbl.t; (* pruned reg -> reconstruction *)
  pruned : int;
}

let max_depth = 4

let collect_sites func =
  let defs : (Reg.t, (string * Instr.t) list) Hashtbl.t = Hashtbl.create 64 in
  let ckpts : (Reg.t, string list) Hashtbl.t = Hashtbl.create 64 in
  Func.iter_blocks
    (fun b ->
      Array.iter
        (fun i ->
          (match i with
          | Instr.Ckpt r ->
            Hashtbl.replace ckpts r
              (b.Block.label :: Option.value (Hashtbl.find_opt ckpts r) ~default:[])
          | _ -> ());
          List.iter
            (fun d ->
              Hashtbl.replace defs d
                ((b.Block.label, i)
                :: Option.value (Hashtbl.find_opt defs d) ~default:[]))
            (Instr.defs i))
        b.Block.body)
    func;
  (defs, ckpts)

let run ?ctx func =
  let ctx = Context.for_func ?ctx func in
  let defs, ckpts = collect_sites func in
  let single_def r =
    match Hashtbl.find_opt defs r with
    | Some [ (_, d) ] -> Some d
    | Some _ | None -> None
  in
  let ckpt_count r =
    List.length (Option.value (Hashtbl.find_opt ckpts r) ~default:[])
  in
  (* Registers holding one value for the whole run: program inputs (no
     definition at all) and single-definition temporaries. *)
  let stable_value r =
    match Hashtbl.find_opt defs r with
    | None -> true
    | Some [ _ ] -> true
    | Some _ -> false
  in
  (* Straight-line candidates: single checkpoint, single pure definition. *)
  let candidates = Hashtbl.create 16 in
  Hashtbl.iter
    (fun r sites ->
      if List.length sites = 1 then
        match single_def r with
        | Some d when Instr.is_pure d -> Hashtbl.replace candidates r d
        | Some _ | None -> ())
    ckpts;
  (* Fixpoint: an expression may read the slot of a register only when that
     register's checkpoint survives (is not itself pruned). Start by
     assuming every candidate is pruned and demote until stable. *)
  let pruned = Hashtbl.copy candidates in
  let rec expr_of_reg ~depth r =
    if depth > max_depth then None
    else if Reg.is_zero r then Some (Recovery_expr.Const 0)
    else if
      (* Reading a slot is only exact when the register holds one value for
         the whole run (single definition): a loop-varying operand's slot
         could be out of sync with the value the pruned definition read. *)
      ckpt_count r >= 1 && (not (Hashtbl.mem pruned r)) && stable_value r
    then Some (Recovery_expr.Slot r)
    else
      (* No surviving checkpoint: reconstruct from the single definition. *)
      match single_def r with
      | Some d when Instr.is_pure d -> expr_of_instr ~depth d
      | Some _ | None -> None
  and expr_of_operand ~depth = function
    | Instr.Imm c -> Some (Recovery_expr.Const c)
    | Instr.Reg r -> expr_of_reg ~depth:(depth + 1) r
  and expr_of_instr ~depth = function
    | Instr.Mov (_, o) -> expr_of_operand ~depth o
    | Instr.Binop (op, _, a, o) -> (
      match (expr_of_reg ~depth:(depth + 1) a, expr_of_operand ~depth o) with
      | Some ea, Some eo -> Some (Recovery_expr.Op (op, ea, eo))
      | _ -> None)
    | Instr.Cmp (c, _, a, o) -> (
      match (expr_of_reg ~depth:(depth + 1) a, expr_of_operand ~depth o) with
      | Some ea, Some eo -> Some (Recovery_expr.Cmp (c, ea, eo))
      | _ -> None)
    | Instr.Load _ | Instr.Store _ | Instr.Ckpt _ | Instr.Boundary _ | Instr.Nop ->
      None
  in
  let exprs = Hashtbl.create 16 in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.reset exprs;
    Hashtbl.iter
      (fun r d ->
        match expr_of_instr ~depth:0 d with
        | Some e -> Hashtbl.replace exprs r e
        | None ->
          Hashtbl.remove pruned r;
          changed := true)
      (Hashtbl.copy pruned)
  done;
  (* Diamond pattern (paper Fig 9): two checkpoints of [r], one per arm of
     a two-sided branch with a reconstructible predicate. Diamond-pruned
     registers are multi-definition, so no straight-line expression can
     reference them — a single pass after the fixpoint is enough. *)
  let cfg = Context.cfg ctx in
  let diamond = Hashtbl.create 8 in
  Hashtbl.iter
    (fun r sites ->
      match (List.sort_uniq compare sites, Hashtbl.find_opt defs r) with
      | [ la; lb ], Some def_sites when List.length def_sites = 2 -> (
        let def_in l =
          List.find_opt (fun (l', _) -> String.equal l l') def_sites
        in
        match (def_in la, def_in lb) with
        | Some (_, da), Some (_, db) when Instr.is_pure da && Instr.is_pure db -> (
          match (Cfg.predecessors cfg la, Cfg.predecessors cfg lb) with
          | [ p ], [ p' ] when String.equal p p' -> (
            match (Func.block func p).Block.term with
            | Block.Branch (c, taken, fall)
              when (String.equal taken la && String.equal fall lb)
                   || (String.equal taken lb && String.equal fall la) -> (
              let taken_def = if String.equal taken la then da else db in
              let fall_def = if String.equal taken la then db else da in
              match
                ( expr_of_reg ~depth:1 c,
                  expr_of_instr ~depth:1 taken_def,
                  expr_of_instr ~depth:1 fall_def )
              with
              | Some ec, Some et, Some ef ->
                Hashtbl.replace diamond r (Recovery_expr.Select (ec, et, ef))
              | _ -> ())
            | Block.Branch _ | Block.Jump _ | Block.Ret -> ())
          | _ -> ())
        | _ -> ())
      | _ -> ())
    ckpts;
  Hashtbl.iter
    (fun r e ->
      Hashtbl.replace pruned r Instr.Nop;
      Hashtbl.replace exprs r e)
    diamond;
  (* Drop the pruned checkpoint instructions. *)
  let removed = ref 0 in
  Func.iter_blocks
    (fun b ->
      Block.set_body b
        (List.filter
           (fun i ->
             match i with
             | Instr.Ckpt r when Hashtbl.mem pruned r ->
               incr removed;
               false
             | _ -> true)
           (Block.body_list b)))
    func;
  { func; exprs; pruned = !removed }
