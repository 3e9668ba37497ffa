type t = {
  name : string;
  entry : string;
  blocks : (string, Block.t) Hashtbl.t;
  mutable order : string list;
}

let create ~name ~entry blocks =
  let tbl = Hashtbl.create (List.length blocks * 2) in
  List.iter
    (fun (b : Block.t) ->
      if Hashtbl.mem tbl b.label then
        invalid_arg (Printf.sprintf "Func.create: duplicate label %s" b.label);
      Hashtbl.add tbl b.label b)
    blocks;
  if not (Hashtbl.mem tbl entry) then
    invalid_arg (Printf.sprintf "Func.create: entry %s not among blocks" entry);
  { name; entry; blocks = tbl; order = List.map (fun (b : Block.t) -> b.label) blocks }

let block f l =
  (* [find] rather than [find_opt]: this path allocates nothing. *)
  match Hashtbl.find f.blocks l with
  | b -> b
  | exception Not_found -> invalid_arg (Printf.sprintf "Func.block: unknown label %s in %s" l f.name)

let block_opt f l = Hashtbl.find_opt f.blocks l

let labels f = f.order

let blocks f = List.map (block f) f.order

let entry_block f = block f f.entry

let num_blocks f = List.length f.order

let num_instrs f =
  List.fold_left (fun acc b -> acc + Block.num_instrs b) 0 (blocks f)

let iter_blocks g f = List.iter g (blocks f)

let fold_instrs g acc f =
  List.fold_left
    (fun acc b -> Array.fold_left g acc b.Block.body)
    acc (blocks f)

let add_block f (b : Block.t) ~after =
  if Hashtbl.mem f.blocks b.label then
    invalid_arg (Printf.sprintf "Func.add_block: duplicate label %s" b.label);
  Hashtbl.add f.blocks b.label b;
  let rec insert = function
    | [] -> [ b.label ]
    | l :: rest when String.equal l after -> l :: b.label :: rest
    | l :: rest -> l :: insert rest
  in
  f.order <- insert f.order

(* Layout successors: the block that follows each label in emission order.
   A jump or branch to it is a fall-through (no fetch redirect). *)
let fallthrough_table f =
  let tbl = Hashtbl.create 64 in
  let rec go = function
    | a :: (b :: _ as rest) ->
      Hashtbl.replace tbl a b;
      go rest
    | [ _ ] | [] -> ()
  in
  go f.order;
  tbl

let validate f =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          if not (Hashtbl.mem f.blocks s) then
            err "block %s: unknown successor %s" b.Block.label s)
        (Block.successors b))
    (blocks f);
  if List.length f.order <> Hashtbl.length f.blocks then
    err "order list and block table disagree";
  List.rev !errors

let copy f =
  let cp (b : Block.t) =
    { Block.label = b.label; body = Array.copy b.body; term = b.term }
  in
  let blocks = List.map (fun l -> cp (block f l)) f.order in
  create ~name:f.name ~entry:f.entry blocks

let max_reg f =
  let on_instr acc i =
    List.fold_left max acc (Instr.defs i @ Instr.uses i)
  in
  let acc = fold_instrs on_instr 0 f in
  List.fold_left
    (fun acc b -> List.fold_left max acc (Block.term_uses b))
    acc (blocks f)

let to_string f =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "func %s (entry %s):\n" f.name f.entry);
  List.iter (fun b -> Buffer.add_string buf (Block.to_string b)) (blocks f);
  Buffer.contents buf
