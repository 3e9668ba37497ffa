open Turnpike_ir
module Context = Turnpike_analysis.Context

type t = {
  bypass_stores : (string * int) list;
  direct_ckpts : (string * int) list;
}

let empty = { bypass_stores = []; direct_ckpts = [] }

(* Segment discipline makes aliasing decidable for most of the traffic:
   kinds address disjoint segments, and spill/checkpoint accesses use
   absolute zero-based addresses that compare exactly. Register-based
   addresses of the same kind are assumed to alias. *)
let may_alias (ka, ba, oa) (kb, bb, ob) =
  if not (Instr.equal_mem_kind ka kb) then false
  else if Reg.is_zero ba && Reg.is_zero bb then oa = ob
  else true

let compute ?ctx func =
  let ctx = Context.for_func ?ctx func in
  let cfg = Context.cfg ctx in
  let dom = Context.dominance ctx in
  let live = Context.liveness ctx in
  (* All load accesses of the function, once. *)
  let loads =
    Func.fold_instrs
      (fun acc i ->
        match i with Instr.Load (_, b, off, k) -> (k, b, off) :: acc | _ -> acc)
      [] func
  in
  let bypass = ref [] in
  Func.iter_blocks
    (fun b ->
      Array.iteri
        (fun i instr ->
          match instr with
          | Instr.Store (_, base, off, kind)
            when not (List.exists (may_alias (kind, base, off)) loads) ->
            bypass := (b.Block.label, i) :: !bypass
          | _ -> ())
        b.Block.body)
    func;
  (* Direct-release checkpoints. *)
  let ckpt_sites : (Reg.t, (string * int) list) Hashtbl.t = Hashtbl.create 16 in
  let def_count : (Reg.t, int) Hashtbl.t = Hashtbl.create 32 in
  Func.iter_blocks
    (fun b ->
      Array.iteri
        (fun i instr ->
          (match instr with
          | Instr.Ckpt r ->
            Hashtbl.replace ckpt_sites r
              ((b.Block.label, i) :: Option.value (Hashtbl.find_opt ckpt_sites r) ~default:[])
          | _ -> ());
          List.iter
            (fun r ->
              Hashtbl.replace def_count r (1 + Option.value (Hashtbl.find_opt def_count r) ~default:0))
            (Instr.defs instr))
        b.Block.body)
    func;
  let self_reachable label =
    let rec go visited = function
      | [] -> false
      | l :: rest ->
        if String.equal l label then true
        else if List.mem l visited then go visited rest
        else go (l :: visited) (Cfg.successors cfg l @ rest)
    in
    go [] (Cfg.successors cfg label)
  in
  let heads =
    List.filter_map
      (fun b ->
        if Array.length b.Block.body > 0 && Instr.is_boundary b.Block.body.(0) then
          Some b.Block.label
        else None)
      (Func.blocks func)
  in
  let direct = ref [] in
  Hashtbl.fold (fun r sites acc -> (r, sites) :: acc) ckpt_sites []
  |> List.sort compare
  |> List.iter (fun (r, sites) ->
         match sites with
         | [ (label, i) ]
           when Reg.is_physical r
                && (not (Reg.is_zero r))
                && not (self_reachable label) ->
           let defs = Option.value (Hashtbl.find_opt def_count r) ~default:0 in
           let restart_after_site h =
             (not (Reg.Set.mem r (Liveness.live_in live h)))
             || (Dominance.dominates dom ~dom:label ~sub:h && not (String.equal label h))
           in
           if defs = 0 || List.for_all restart_after_site heads then
             direct := (label, i) :: !direct
         | _ -> ())
  ;
  {
    bypass_stores = List.sort compare !bypass;
    direct_ckpts = List.sort compare !direct;
  }
