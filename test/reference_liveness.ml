(* The tree-set liveness the dense [Turnpike_ir.Liveness] replaced, kept
   as a test-only differential oracle: per-label hash tables of
   [Reg.Set.t], a fixpoint over the CFG postorder that rebuilds each set
   every iteration, and the same per-instruction view. The dense analysis
   must agree with it on every block (see test_pass_cache.ml). *)

open Turnpike_ir

type t = {
  live_in : (string, Reg.Set.t) Hashtbl.t;
  live_out : (string, Reg.Set.t) Hashtbl.t;
}

let compute cfg func =
  let use_def = Hashtbl.create 64 in
  Func.iter_blocks
    (fun b -> Hashtbl.replace use_def b.Block.label (Liveness.block_use_def b))
    func;
  let live_in = Hashtbl.create 64 and live_out = Hashtbl.create 64 in
  let find tbl l = Option.value (Hashtbl.find_opt tbl l) ~default:Reg.Set.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        let out =
          List.fold_left
            (fun acc s ->
              if Hashtbl.mem use_def s then Reg.Set.union acc (find live_in s) else acc)
            Reg.Set.empty (Cfg.successors cfg l)
        in
        let use, def = Hashtbl.find use_def l in
        let inn = Reg.Set.union use (Reg.Set.diff out def) in
        if not (Reg.Set.equal out (find live_out l)) then begin
          Hashtbl.replace live_out l out;
          changed := true
        end;
        if not (Reg.Set.equal inn (find live_in l)) then begin
          Hashtbl.replace live_in l inn;
          changed := true
        end)
      (Cfg.postorder cfg)
  done;
  { live_in; live_out }

let live_in t l = Option.value (Hashtbl.find_opt t.live_in l) ~default:Reg.Set.empty

let live_out t l = Option.value (Hashtbl.find_opt t.live_out l) ~default:Reg.Set.empty

let live_before_each t (b : Block.t) =
  let n = Array.length b.Block.body in
  let live = Array.make (n + 1) Reg.Set.empty in
  live.(n) <- Reg.Set.union (live_out t b.Block.label) (Reg.Set.of_list (Block.term_uses b));
  for i = n - 1 downto 0 do
    let ins = b.Block.body.(i) in
    live.(i) <-
      Reg.Set.union (Reg.Set.of_list (Instr.uses ins))
        (Reg.Set.diff live.(i + 1) (Reg.Set.of_list (Instr.defs ins)))
  done;
  live
