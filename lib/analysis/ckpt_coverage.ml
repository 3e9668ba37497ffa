(* Checkpoint coverage at block entries: the forward must-dataflow behind
   the recoverability check. A definition makes a register's checkpoint
   slot stale, a checkpoint re-covers it, and a register is covered at a
   join only if it is covered on every incoming path; the entry starts
   all-covered. Runs on {!Bitset}s: the universe is the registers the
   function defines or checkpoints (anything else is untouched, hence
   covered). *)

open Turnpike_ir

(* Stale (not covered) sets per reachable block entry; an absent block or
   register is covered. *)
type t = { stale_at : (string, Bitset.t) Hashtbl.t; none : Bitset.t }

let compute cfg func =
  let rpo = Cfg.reverse_postorder cfg in
  let max_id = ref 0 in
  let bump r = if r > !max_id then max_id := r in
  Func.iter_blocks
    (fun b ->
      Array.iter
        (fun i ->
          (match i with Instr.Ckpt r -> bump r | _ -> ());
          Instr.iter_defs bump i)
        b.Block.body)
    func;
  let max_id = !max_id in
  (* The sequential transfer (Ckpt covers, def stales) collapses to a
     last-event-wins summary per register, so each block contributes a
     gen set (last touch was a def) and a kill set (last touch was a
     checkpoint), computed once instead of per fixpoint iteration:
     out = (in \ kill) ∪ gen. *)
  (* Dense reverse-postorder indices, as in [Wellformed]: the fixpoint
     iterations touch only arrays. *)
  let rpo_arr = Array.of_list rpo in
  let n = Array.length rpo_arr in
  let idx : (string, int) Hashtbl.t = Hashtbl.create n in
  Array.iteri (fun i l -> Hashtbl.replace idx l i) rpo_arr;
  let gen_arr = Array.init n (fun _ -> Bitset.create ~max_id) in
  let kill_arr = Array.init n (fun _ -> Bitset.create ~max_id) in
  Array.iteri
    (fun bi label ->
      let gen = gen_arr.(bi) and kill = kill_arr.(bi) in
      Array.iter
        (fun i ->
          (match i with
          | Instr.Ckpt r ->
            Bitset.add kill r;
            Bitset.remove gen r
          | _ -> ());
          Instr.iter_defs
            (fun r ->
              Bitset.add gen r;
              Bitset.remove kill r)
            i)
        (Func.block func label).Block.body)
    rpo_arr;
  let preds_arr =
    Array.map
      (fun label ->
        List.filter_map
          (fun p -> Hashtbl.find_opt idx p)
          (Cfg.predecessors cfg label))
      rpo_arr
  in
  let entry_i = Option.value (Hashtbl.find_opt idx func.Func.entry) ~default:0 in
  let in_arr = Array.init n (fun _ -> Bitset.create ~max_id) in
  let out_arr = Array.init n (fun _ -> Bitset.create ~max_id) in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let input = Bitset.create ~max_id in
      (* The entry starts all-covered regardless of back edges into it. *)
      if i <> entry_i then
        List.iter
          (fun p -> Bitset.union_into ~dst:input out_arr.(p))
          preds_arr.(i);
      in_arr.(i) <- input;
      let o = Bitset.transfer ~gen:gen_arr.(i) ~kill:kill_arr.(i) input in
      if not (Bitset.equal out_arr.(i) o) then begin
        out_arr.(i) <- o;
        changed := true
      end
    done
  done;
  let stale_at : (string, Bitset.t) Hashtbl.t = Hashtbl.create n in
  Array.iteri (fun i l -> Hashtbl.replace stale_at l in_arr.(i)) rpo_arr;
  { stale_at; none = Bitset.create ~max_id }

let stale_in t block =
  let s = Option.value (Hashtbl.find_opt t.stale_at block) ~default:t.none in
  fun r -> Bitset.mem s r
