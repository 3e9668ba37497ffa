(* Dynamic execution trace consumed by the timing models, stored as two
   int columns, so an event costs two words and the boxed [event] variant
   exists only as a decoded view (for tests, golden digests and hand-built
   traces). The interpreter appends straight into the columns and the
   timing models read them in place.

   [ops.(i)] packs the kind byte (bits 0-7) with two 27-bit signed
   register fields: A (bits 8-34) holds the destination, or a store's
   second source; B (bits 35-61) holds the first source. Kind byte: bits
   0-2 the operation ([op] below), bits 3-4 the number of source registers
   (0-2), bit 5 a flag (an ALU op writes [dst]; a branch redirected
   fetch), bits 6-7 the memory class (a load's [Instr.mem_kind], a store's
   [store_class]). [aux.(i)] holds a two-source ALU op's second source, a
   load's or store's effective address, a branch's site or a boundary's
   static region. A checkpoint's register is its first source. *)

type store_class = Regular_app | Regular_spill | Checkpoint
[@@deriving show { with_path = false }, eq]

type event =
  | Alu of { dst : Reg.t option; srcs : Reg.t list }
  | Load of { dst : Reg.t; srcs : Reg.t list; addr : int; kind : Instr.mem_kind }
  | Store of { srcs : Reg.t list; addr : int; cls : store_class }
  | Ckpt of { src : Reg.t }
  | Branch of { srcs : Reg.t list; taken : bool; pc : int }
  | Boundary of { region : int }
[@@deriving show { with_path = false }, eq]

type op = Op_alu | Op_load | Op_store | Op_ckpt | Op_branch | Op_boundary

type t = {
  ops : int array;
  aux : int array;
  complete : bool; (* false when the fuel budget cut execution short *)
}

let op_code = function
  | Op_alu -> 0
  | Op_load -> 1
  | Op_store -> 2
  | Op_ckpt -> 3
  | Op_branch -> 4
  | Op_boundary -> 5

let op_of_code = function
  | 0 -> Op_alu
  | 1 -> Op_load
  | 2 -> Op_store
  | 3 -> Op_ckpt
  | 4 -> Op_branch
  | _ -> Op_boundary

let flag_bit = 0x20

let mem_kind_code = function Instr.App_mem -> 0 | Instr.Spill_mem -> 1 | Instr.Ckpt_mem -> 2
let mem_kind_of_code = function 0 -> Instr.App_mem | 1 -> Instr.Spill_mem | _ -> Instr.Ckpt_mem

let store_class_code = function Regular_app -> 0 | Regular_spill -> 1 | Checkpoint -> 2
let store_class_of_code = function 0 -> Regular_app | 1 -> Regular_spill | _ -> Checkpoint

(* Kind bytes without their source count, which [Buf.add] ORs in. *)
let alu_kind ~has_dst = op_code Op_alu lor if has_dst then flag_bit else 0
let load_kind mk = op_code Op_load lor (mem_kind_code mk lsl 6)
let store_kind cls = op_code Op_store lor (store_class_code cls lsl 6)
let ckpt_kind = op_code Op_ckpt
let branch_kind ~taken = op_code Op_branch lor if taken then flag_bit else 0
let boundary_kind = op_code Op_boundary

(* Register fields are 27-bit two's complement. *)
let reg_bits = 27
let reg_mask = (1 lsl reg_bits) - 1
let reg_fits r = r >= -(1 lsl (reg_bits - 1)) && r < 1 lsl (reg_bits - 1)
let field_a w = (w lsl 28) asr 36
let field_b w = (w lsl 1) asr 36

let length t = Array.length t.ops
let word t i = t.ops.(i)
let op_of_word w = op_of_code (w land 7)
let nsrcs_of_word w = (w lsr 3) land 3
let flag_of_word w = w land flag_bit <> 0
let dst_of_word = field_a
let src0_of_word = field_b

let src1 t i =
  let w = t.ops.(i) in
  if w land 7 = op_code Op_store then field_a w else t.aux.(i)

let aux t i = t.aux.(i)

(* Growable column buffer the interpreter appends to. *)
module Buf = struct
  type trace = t

  type t = { mutable ops : int array; mutable aux : int array; mutable len : int }

  let create () = { ops = Array.make 1024 0; aux = Array.make 1024 0; len = 0 }

  let grow b =
    let extend a =
      let a' = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 a' 0 b.len;
      a'
    in
    b.ops <- extend b.ops;
    b.aux <- extend b.aux

  (* A store's second source takes the destination's field; an ALU op's
     takes [aux], which it does not otherwise use. No other operation
     has two sources. *)
  let add b kind ~nsrcs ~dst ~s0 ~s1 ~aux =
    let store = kind land 7 = op_code Op_store in
    let a = if store then s1 else dst in
    if not (reg_fits a && reg_fits s0) then
      invalid_arg "Trace: register id outside the 27-bit field";
    if nsrcs = 2 && not (store || kind land 7 = op_code Op_alu) then
      invalid_arg "Trace: only ALU ops and stores take two sources";
    if b.len = Array.length b.ops then grow b;
    let i = b.len in
    Array.unsafe_set b.ops i
      (kind lor (nsrcs lsl 3) lor ((a land reg_mask) lsl 8) lor ((s0 land reg_mask) lsl 35));
    Array.unsafe_set b.aux i (if nsrcs = 2 && not store then s1 else aux);
    b.len <- i + 1

  let finish b ~complete : trace =
    { ops = Array.sub b.ops 0 b.len; aux = Array.sub b.aux 0 b.len; complete }
end

let add_event b e =
  let srcs_kind k srcs ~dst ~aux =
    match srcs with
    | [] -> Buf.add b k ~nsrcs:0 ~dst ~s0:0 ~s1:0 ~aux
    | [ s0 ] -> Buf.add b k ~nsrcs:1 ~dst ~s0 ~s1:0 ~aux
    | [ s0; s1 ] -> Buf.add b k ~nsrcs:2 ~dst ~s0 ~s1 ~aux
    | _ -> invalid_arg "Trace.of_events: more than two source registers"
  in
  match e with
  | Alu { dst = Some d; srcs } -> srcs_kind (alu_kind ~has_dst:true) srcs ~dst:d ~aux:0
  | Alu { dst = None; srcs } -> srcs_kind (alu_kind ~has_dst:false) srcs ~dst:0 ~aux:0
  | Load { dst; srcs; addr; kind } -> srcs_kind (load_kind kind) srcs ~dst ~aux:addr
  | Store { srcs; addr; cls } -> srcs_kind (store_kind cls) srcs ~dst:0 ~aux:addr
  | Ckpt { src } -> srcs_kind ckpt_kind [ src ] ~dst:0 ~aux:0
  | Branch { srcs; taken; pc } -> srcs_kind (branch_kind ~taken) srcs ~dst:0 ~aux:pc
  | Boundary { region } -> srcs_kind boundary_kind [] ~dst:0 ~aux:region

let of_events ?(complete = true) events =
  let b = Buf.create () in
  List.iter (add_event b) events;
  Buf.finish b ~complete

let get t i =
  let w = word t i in
  let srcs =
    match nsrcs_of_word w with
    | 0 -> []
    | 1 -> [ src0_of_word w ]
    | _ -> [ src0_of_word w; src1 t i ]
  in
  let flag = flag_of_word w and cls = (w lsr 6) land 3 in
  match op_of_word w with
  | Op_alu -> Alu { dst = (if flag then Some (dst_of_word w) else None); srcs }
  | Op_load -> Load { dst = dst_of_word w; srcs; addr = aux t i; kind = mem_kind_of_code cls }
  | Op_store -> Store { srcs; addr = aux t i; cls = store_class_of_code cls }
  | Op_ckpt -> Ckpt { src = src0_of_word w }
  | Op_branch -> Branch { srcs; taken = flag; pc = aux t i }
  | Op_boundary -> Boundary { region = aux t i }

let count p t =
  let n = ref 0 in
  for i = 0 to length t - 1 do
    if p (get t i) then incr n
  done;
  !n

let count_ops p t =
  let n = ref 0 in
  for i = 0 to length t - 1 do
    if p (op_of_word (word t i)) then incr n
  done;
  !n

let num_sb_writes t = count_ops (function Op_store | Op_ckpt -> true | _ -> false) t

let num_ckpts t = count_ops (fun o -> o = Op_ckpt) t

let num_boundaries t = count_ops (fun o -> o = Op_boundary) t

let num_instructions t =
  (* Boundaries are markers, not executed instructions. *)
  count_ops (fun o -> o <> Op_boundary) t
