(* Eager checkpointing (paper §2.2). A checkpoint store is inserted right
   after the last definition of every register that leaves its region live
   (it will be the input of some later region). Walking each region tree
   backward with a "needed at a region exit" set implements exactly that:
   hitting a definition of a needed register inserts the checkpoint and
   satisfies the need.

   The entry region additionally checkpoints the program's input registers
   (they were "defined" by initialization, not by an instruction). *)

open Turnpike_ir
module Context = Turnpike_analysis.Context
module Facet = Turnpike_analysis.Facet

let count func =
  Func.fold_instrs (fun acc i -> if Instr.is_ckpt i then acc + 1 else acc) 0 func

let strip ?ctx func =
  if count func > 0 then begin
    Func.iter_blocks
      (fun b ->
        Block.set_body b
          (List.filter (fun i -> not (Instr.is_ckpt i)) (Block.body_list b)))
      func;
    Context.invalidate (Context.for_func ?ctx func) (Facet.Set.singleton Facet.Instrs)
  end;
  func

(* Reverse-topological order of a region's tree (leaves first). *)
let region_blocks_bottom_up func regions (r : Regions.region) =
  let in_region l = Regions.region_of regions l = Some r.Regions.id in
  let order = ref [] in
  let visited = Hashtbl.create 8 in
  let rec dfs l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.add visited l ();
      List.iter
        (fun s -> if in_region s then dfs s)
        (Block.successors (Func.block func l));
      order := l :: !order
    end
  in
  dfs r.Regions.head;
  (* !order is now top-down (head first); bottom-up is its reverse. *)
  List.rev !order

let insert ?(entry_live = []) ?ctx func =
  let ctx = Context.for_func ?ctx func in
  let live = Context.liveness ctx in
  let regions = Regions.of_func ~ctx func in
  let inserted = ref 0 in
  (* need_in.(region head traversal): registers that must still be
     checkpointed above the current point. *)
  let need_in = Hashtbl.create 64 in
  List.iter
    (fun (r : Regions.region) ->
      (* An edge back to the region's own head crosses the boundary into a
         new dynamic instance, so it is an exit edge (liveness applies). *)
      let in_region l =
        Regions.region_of regions l = Some r.Regions.id
        && not (String.equal l r.Regions.head)
      in
      List.iter
        (fun l ->
          let b = Func.block func l in
          let need_out =
            List.fold_left
              (fun acc s ->
                if in_region s then
                  Reg.Set.union acc
                    (Option.value (Hashtbl.find_opt need_in s) ~default:Reg.Set.empty)
                else Reg.Set.union acc (Liveness.live_in live s))
              Reg.Set.empty (Block.successors b)
          in
          let body = Array.to_list b.Block.body in
          let rev = List.rev body in
          let need = ref need_out and out = ref [] in
          List.iter
            (fun i ->
              (* Walking backward: first emit the instruction, then decide
                 whether its definition needs a checkpoint placed after it. *)
              let defs = Instr.defs i in
              let needed_defs = List.filter (fun d -> Reg.Set.mem d !need) defs in
              List.iter
                (fun d ->
                  out := Instr.Ckpt d :: !out;
                  incr inserted)
                needed_defs;
              List.iter (fun d -> need := Reg.Set.remove d !need) defs;
              out := i :: !out)
            rev;
          Hashtbl.replace need_in l !need;
          Block.set_body b !out)
        (region_blocks_bottom_up func regions r))
    (Regions.regions regions);
  (* Program inputs live into later regions are checkpointed right after
     the entry boundary. *)
  let entry = Func.entry_block func in
  let entry_need =
    Option.value (Hashtbl.find_opt need_in entry.Block.label) ~default:Reg.Set.empty
  in
  let prologue =
    List.filter (fun r -> Reg.Set.mem r entry_need && not (Reg.is_zero r)) entry_live
  in
  if prologue <> [] then begin
    let body = Block.body_list entry in
    let body =
      match body with
      | (Instr.Boundary _ as bd) :: rest ->
        bd :: (List.map (fun r -> Instr.Ckpt r) prologue @ rest)
      | rest -> List.map (fun r -> Instr.Ckpt r) prologue @ rest
    in
    Block.set_body entry body;
    inserted := !inserted + List.length prologue
  end;
  if !inserted > 0 then Context.invalidate ctx (Facet.Set.singleton Facet.Instrs);
  (func, !inserted)
