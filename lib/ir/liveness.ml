(* Classic backward liveness over registers, plus a per-instruction view
   used by checkpoint insertion and pruning.

   The analysis is dense: blocks are numbered in layout order, registers
   are mapped onto a compacted id universe (physical registers keep their
   ids, virtuals are shifted down next to them), and use/def/in/out are
   {!Bitset} arrays indexed by block id. The fixpoint walks an int
   postorder and updates in/out where they stand, so an iteration
   allocates nothing. Compilation reads liveness after most
   instruction-editing passes, which makes this fixpoint a hot path; the
   public {!Reg.Set} views are built only for the blocks a caller asks
   about, once each. *)

type t = {
  ids : (string, int) Hashtbl.t;  (* block label -> block id *)
  gap : int;  (* compacted id of the first virtual register *)
  live_in : Bitset.t array;
  live_out : Bitset.t array;
  in_views : Reg.Set.t option array;
  out_views : Reg.Set.t option array;
}

let block_use_def (b : Block.t) =
  (* use = read before any write in the block (terminator included). *)
  let use = ref Reg.Set.empty and def = ref Reg.Set.empty in
  Array.iter
    (fun i ->
      List.iter
        (fun r -> if not (Reg.Set.mem r !def) then use := Reg.Set.add r !use)
        (Instr.uses i);
      List.iter (fun r -> def := Reg.Set.add r !def) (Instr.defs i))
    b.Block.body;
  List.iter
    (fun r -> if not (Reg.Set.mem r !def) then use := Reg.Set.add r !use)
    (Block.term_uses b);
  (!use, !def)

let compute cfg func =
  let blocks = Array.of_list (Func.blocks func) in
  let n = Array.length blocks in
  let ids = Hashtbl.create (2 * n) in
  Array.iteri (fun i (b : Block.t) -> Hashtbl.replace ids b.Block.label i) blocks;
  let max_phys = ref 0 in
  let max_virt = ref (-1) in
  let span r =
    if Reg.is_virtual r then (if r > !max_virt then max_virt := r)
    else if r > !max_phys then max_phys := r
  in
  Array.iter
    (fun (b : Block.t) ->
      Array.iter
        (fun i ->
          Instr.iter_defs span i;
          Instr.iter_uses span i)
        b.Block.body;
      List.iter span (Block.term_uses b))
    blocks;
  let gap = !max_phys + 1 in
  let rid r = if Reg.is_virtual r then r - Reg.virt_base + gap else r in
  let max_id =
    if !max_virt < 0 then !max_phys else gap + (!max_virt - Reg.virt_base)
  in
  let fresh () = Array.init n (fun _ -> Bitset.create ~max_id) in
  let use = fresh () and def = fresh () in
  let live_in = fresh () and live_out = fresh () in
  Array.iteri
    (fun id (b : Block.t) ->
      let use = use.(id) and def = def.(id) in
      let read r =
        let r = rid r in
        if not (Bitset.mem def r) then Bitset.add use r
      in
      Array.iter
        (fun i ->
          Instr.iter_uses read i;
          Instr.iter_defs (fun r -> Bitset.add def (rid r)) i)
        b.Block.body;
      List.iter read (Block.term_uses b))
    blocks;
  (* Successor ids per block (targets naming no block contribute nothing)
     and the reachable blocks in postorder; unreachable blocks keep empty
     sets. *)
  let succs =
    Array.map
      (fun (b : Block.t) ->
        Array.of_list (List.filter_map (Hashtbl.find_opt ids) (Block.successors b)))
      blocks
  in
  let order = Array.of_list (List.map (Hashtbl.find ids) (Cfg.postorder cfg)) in
  let out = Bitset.create ~max_id in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        Bitset.clear out;
        Array.iter (fun s -> Bitset.union_into ~dst:out live_in.(s)) succs.(b);
        if Bitset.assign ~dst:live_out.(b) out then changed := true;
        if Bitset.transfer_into ~dst:live_in.(b) ~gen:use.(b) ~kill:def.(b) out then
          changed := true)
      order
  done;
  { ids; gap; live_in; live_out; in_views = Array.make n None; out_views = Array.make n None }

(* The tree-set view of one block's set, built on first request. *)
let view t views sets l =
  match Hashtbl.find_opt t.ids l with
  | None -> Reg.Set.empty
  | Some id -> (
    match views.(id) with
    | Some s -> s
    | None ->
      let acc = ref Reg.Set.empty in
      Bitset.iter
        (fun i ->
          let r = if i < t.gap then i else i - t.gap + Reg.virt_base in
          acc := Reg.Set.add r !acc)
        sets.(id);
      views.(id) <- Some !acc;
      !acc)

let live_in t l = view t t.in_views t.live_in l

let live_out t l = view t t.out_views t.live_out l

let live_before_each t (b : Block.t) =
  (* live.(i) = registers live immediately before instruction i. The array
     has one extra slot: live.(n) is liveness before the terminator. *)
  let n = Array.length b.body in
  let live = Array.make (n + 1) Reg.Set.empty in
  let after_term = live_out t b.label in
  let before_term =
    List.fold_left (fun acc r -> Reg.Set.add r acc) after_term (Block.term_uses b)
  in
  live.(n) <- before_term;
  for i = n - 1 downto 0 do
    let ins = b.body.(i) in
    let s = live.(i + 1) in
    let s = List.fold_left (fun acc r -> Reg.Set.remove r acc) s (Instr.defs ins) in
    let s = List.fold_left (fun acc r -> Reg.Set.add r acc) s (Instr.uses ins) in
    live.(i) <- s
  done;
  live
