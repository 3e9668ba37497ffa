(* Recoverability: at every region head, every live-in register must be
   restorable after a rollback — either its checkpoint slot provably holds
   the current value on every path into the head ("covered"), or the
   pipeline supplies a recovery expression that reconstructs it from
   covered slots (paper §4.1.3).

   The proof is a forward must-dataflow per register: a definition makes
   the slot stale, a checkpoint re-covers it, and a register is covered at
   a join only if it is covered on every incoming path. The entry state is
   all-covered: initialised registers have their base slot seeded by
   [Interp.init], and a register that was never defined reads as zero —
   exactly what its unwritten slot restores. *)

open Turnpike_ir

let name = "recoverability"

(* ------------------------------------------------------------------ *)
(* Independent re-derivation of recovery expressions.

   The pruning pass is not trusted for the *content* of the expressions it
   publishes: for every (register, expression) pair the checker re-derives
   the register's unique runtime value from its defining instructions and
   demands that the claimed expression normalize to the same value tree.

   Both sides normalize into [Recovery_expr] over root atoms: [Const c],
   and [Slot x] where [x] has no definition (program input, slot seeded at
   entry) or a single impure definition (a load — opaque but unique).
   [Slot x] of a single pure definition expands through that definition,
   so structurally different but value-equal claims (e.g. reading a slot
   vs. re-deriving its producer) converge to the same tree. Expansion
   fails loudly on a clobbered (multiply-defined) register — its slot has
   no stable value — and on a loop-carried chain (a definition that feeds
   itself): both are exactly the unsound claims this check exists to
   convict. *)
(* ------------------------------------------------------------------ *)

exception Clobbered of Reg.t
exception Cyclic of Reg.t
exception Too_deep

(* Generous: pruning emits depth ≤ 4 expressions; the bound only guards
   adversarial hand-built IR from non-termination. *)
let max_expand_steps = 4096

(* One scan, shared by [validate_exprs] and the coverage walk in [run]:
   every definition site of every register, in program order. *)
let def_sites_of func =
  let def_sites : (Reg.t, (string * Instr.t) list) Hashtbl.t =
    Hashtbl.create 64
  in
  Func.iter_blocks
    (fun b ->
      Array.iter
        (fun i ->
          Instr.iter_defs
            (fun d ->
              Hashtbl.replace def_sites d
                ((b.Block.label, i)
                :: Option.value (Hashtbl.find_opt def_sites d) ~default:[]))
            i)
        b.Block.body)
    func;
  def_sites

let validate_exprs ~def_sites (ctx : Context.t) =
  if ctx.Context.recovery_exprs = [] then []
  else begin
    let func = ctx.Context.func in
    let fname = func.Func.name in
    let sites r =
      List.rev (Option.value (Hashtbl.find_opt def_sites r) ~default:[])
    in
    let fuel = ref 0 in
    let tick () =
      incr fuel;
      if !fuel > max_expand_steps then raise Too_deep
    in
    (* A register's expansion is independent of the [visiting] path (which
       only detects cycles), so successful expansions are shared across
       every expression being validated; a register that raises is never
       cached. Sharing makes repeated subtrees physically equal, which the
       [eq] shortcut below exploits. *)
    let memo : (Reg.t, Recovery_expr.t) Hashtbl.t = Hashtbl.create 32 in
    let rec value_of_reg visiting r =
      match Hashtbl.find_opt memo r with
      | Some v -> v
      | None ->
        tick ();
        let v =
          if Reg.is_zero r then Recovery_expr.Const 0
          else if List.exists (Reg.equal r) visiting then raise (Cyclic r)
          else
            match sites r with
            | [] -> Recovery_expr.Slot r
            | [ (_, d) ] when Instr.is_pure d ->
              value_of_instr (r :: visiting) d
            | [ _ ] -> Recovery_expr.Slot r (* load-defined: opaque but unique *)
            | _ -> raise (Clobbered r)
        in
        Hashtbl.replace memo r v;
        v
    and value_of_operand visiting = function
      | Instr.Imm c -> Recovery_expr.Const c
      | Instr.Reg r -> value_of_reg visiting r
    and value_of_instr visiting = function
      | Instr.Mov (_, o) -> value_of_operand visiting o
      | Instr.Binop (op, _, a, o) ->
        Recovery_expr.Op (op, value_of_reg visiting a, value_of_operand visiting o)
      | Instr.Cmp (c, _, a, o) ->
        Recovery_expr.Cmp (c, value_of_reg visiting a, value_of_operand visiting o)
      | Instr.Load _ | Instr.Store _ | Instr.Ckpt _ | Instr.Boundary _
      | Instr.Nop ->
        raise Too_deep (* unreachable: callers check purity first *)
    in
    (* Structural equality with a physical shortcut: memoized expansion
       shares subtrees, so deep equal comparisons usually hit [==]. *)
    let rec eq a b =
      a == b
      ||
      match (a, b) with
      | Recovery_expr.Const x, Recovery_expr.Const y -> x = y
      | Recovery_expr.Slot x, Recovery_expr.Slot y -> Reg.equal x y
      | Recovery_expr.Op (o, a1, b1), Recovery_expr.Op (o', a2, b2) ->
        o = o' && eq a1 a2 && eq b1 b2
      | Recovery_expr.Cmp (c, a1, b1), Recovery_expr.Cmp (c', a2, b2) ->
        c = c' && eq a1 a2 && eq b1 b2
      | Recovery_expr.Select (c1, a1, b1), Recovery_expr.Select (c2, a2, b2) ->
        eq c1 c2 && eq a1 a2 && eq b1 b2
      | _ -> false
    in
    let rec norm visiting = function
      | Recovery_expr.Const c -> Recovery_expr.Const c
      | Recovery_expr.Slot r -> value_of_reg visiting r
      | Recovery_expr.Op (op, a, b) ->
        Recovery_expr.Op (op, norm visiting a, norm visiting b)
      | Recovery_expr.Cmp (c, a, b) ->
        Recovery_expr.Cmp (c, norm visiting a, norm visiting b)
      | Recovery_expr.Select (c, a, b) ->
        Recovery_expr.Select (norm visiting c, norm visiting a, norm visiting b)
    in
    let diags = ref [] in
    let emit severity msg =
      diags := Diag.make ~check:name ~severity ~func:fname msg :: !diags
    in
    let reg = Reg.to_string in
    List.iter
      (fun (r, e) ->
        fuel := 0;
        try
          match sites r with
          | [ (la, da); (lb, db) ] -> (
            (* Two-sided definition: only a select replaying the defining
               branch can be sound (paper Fig 9). *)
            match e with
            | Recovery_expr.Select (ec, et, ef) -> (
              if not (Instr.is_pure da && Instr.is_pure db) then
                emit Diag.Error
                  (Printf.sprintf
                     "recovery expression for %s reconstructs an impure two-sided definition"
                     (reg r))
              else
                let cfg = Context.cfg ctx in
                match (Cfg.predecessors cfg la, Cfg.predecessors cfg lb) with
                | [ p ], [ p' ] when String.equal p p' -> (
                  match (Func.block func p).Block.term with
                  | Block.Branch (c, taken, fall)
                    when (String.equal taken la && String.equal fall lb)
                         || (String.equal taken lb && String.equal fall la) ->
                    let td, fd =
                      if String.equal taken la then (da, db) else (db, da)
                    in
                    if
                      not
                        (eq (norm [] ec) (value_of_reg [] c)
                        && eq (norm [] et)
                             (value_of_instr [ r ] td)
                        && eq (norm [] ef)
                             (value_of_instr [ r ] fd))
                    then
                      emit Diag.Error
                        (Printf.sprintf
                           "recovery select for %s does not replay the branch that defines it (predicate or arm mismatch)"
                           (reg r))
                  | Block.Branch _ | Block.Jump _ | Block.Ret ->
                    emit Diag.Error
                      (Printf.sprintf
                         "recovery select for %s: definitions in %s/%s are not the two arms of one branch"
                         (reg r) la lb)
                  )
                | _ ->
                  emit Diag.Error
                    (Printf.sprintf
                       "recovery select for %s: definitions in %s/%s are not the two arms of one branch"
                       (reg r) la lb))
            | _ ->
              emit Diag.Error
                (Printf.sprintf
                   "register %s has two definitions but its recovery expression is not a branch select"
                   (reg r)))
          | [] | [ _ ] ->
            if not (eq (norm [] e) (value_of_reg [] r)) then
              emit Diag.Error
                (Printf.sprintf
                   "recovery expression for %s does not recompute its definition: %s"
                   (reg r) (Recovery_expr.to_string e))
          | ds ->
            emit Diag.Error
              (Printf.sprintf
                 "register %s has %d definitions (clobbered); no recovery expression can denote its value"
                 (reg r) (List.length ds))
        with
        | Cyclic x ->
          emit Diag.Error
            (Printf.sprintf
               "recovery expression for %s depends on the loop-carried value of %s (definition feeds itself)"
               (reg r) (reg x))
        | Clobbered x ->
          emit Diag.Error
            (Printf.sprintf
               "recovery expression for %s reconstructs from %s, which has multiple definitions (slot value is not stable)"
               (reg r) (reg x))
        | Too_deep ->
          emit Diag.Warn
            (Printf.sprintf
               "recovery expression for %s is too deep to validate independently"
               (reg r)))
      ctx.Context.recovery_exprs;
    !diags
  end

(* The coverage gaps alone (no expression validation): region live-ins
   that are stale on some incoming path and carry no recovery
   expression. This is the subset of [run]'s errors the static
   vulnerability estimate ({!Vuln}) charges as unbounded exposure. *)
let uncovered_live_ins (ctx : Context.t) =
  let rv = Context.regions ctx in
  if not rv.Regions_view.has_regions then []
  else begin
    let live = Context.liveness ctx in
    let coverage = Context.coverage ctx in
    let expr_of r = List.assoc_opt r ctx.Context.recovery_exprs in
    List.concat_map
      (fun { Regions_view.id; head; _ } ->
        let stale = Ckpt_coverage.stale_in coverage head in
        let needed = Reg.Set.remove Reg.zero (Liveness.live_in live head) in
        List.rev
          (Reg.Set.fold
             (fun r acc ->
               if stale r && expr_of r = None then
                 (id, head, r) :: acc
               else acc)
             needed []))
      rv.Regions_view.regions
  end

let run (ctx : Context.t) =
  let func = ctx.Context.func in
  let fname = func.Func.name in
  let rv = Context.regions ctx in
  if not rv.Regions_view.has_regions then []
  else begin
    let live = Context.liveness ctx in
    let coverage = Context.coverage ctx in
    (* Only consulted for recovery expressions (validation and dependence
       stability). Rounds before pruning publishes any — notably the
       expensive post-partition one — never pay for the scan. *)
    let def_sites = lazy (def_sites_of func) in
    let diags =
      ref
        (if ctx.Context.recovery_exprs = [] then []
         else validate_exprs ~def_sites:(Lazy.force def_sites) ctx)
    in
    let emit ?block severity msg =
      diags := Diag.make ~check:name ~severity ~func:fname ?block msg :: !diags
    in
    (* Definition multiplicity (for expression dependence stability). *)
    let def_count r =
      List.length
        (Option.value (Hashtbl.find_opt (Lazy.force def_sites) r) ~default:[])
    in
    let expr_of r = List.assoc_opt r ctx.Context.recovery_exprs in
    List.iter
      (fun { Regions_view.id; head; _ } ->
        let stale = Ckpt_coverage.stale_in coverage head in
        let needed = Reg.Set.remove Reg.zero (Liveness.live_in live head) in
        Reg.Set.iter
          (fun r ->
            if stale r then
              match expr_of r with
              | None ->
                emit ~block:head Diag.Error
                  (Printf.sprintf
                     "register %s is live into region %d but no checkpoint covers it on every path and no recovery expression exists"
                     (Reg.to_string r) id)
              | Some e ->
                List.iter
                  (fun dep ->
                    if stale dep then
                      emit ~block:head Diag.Error
                        (Printf.sprintf
                           "recovery expression for %s reads the slot of %s, which is not covered at region %d"
                           (Reg.to_string r) (Reg.to_string dep) id);
                    if def_count dep > 1 then
                      emit ~block:head Diag.Error
                        (Printf.sprintf
                           "recovery expression for %s depends on %s, which has multiple definitions (slot value is not stable)"
                           (Reg.to_string r) (Reg.to_string dep)))
                  (List.sort_uniq Reg.compare (Recovery_expr.slots e)))
          needed)
      rv.Regions_view.regions;
    Diag.sort !diags
  end
