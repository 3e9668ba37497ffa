(* Functional (architectural) interpreter. It defines the reference
   semantics used for correctness checks, produces dynamic traces for the
   timing model, and exposes a single-step API that the resilience engine
   drives for fault injection and region-restart recovery.

   The state is dense. The function is lowered once into a flat program
   (int block ids, instruction arrays, terminators with resolved targets),
   the pc is two ints, registers are an int array and memory is one int
   array per [Layout] segment plus a sparse overflow table. Stepping
   allocates nothing, and a copy is a handful of array copies. *)

(* ------------------------------------------------------------------ *)
(* The lowered program. *)

(* A terminator with its targets resolved to block ids. Whether a
   transfer redirects fetch is decided once here: a target that is the
   block's layout successor is a fall-through. *)
type term =
  | Jump of { target : int; redirect : bool }
  | Branch of {
      cond : Reg.t;
      if_true : int;
      true_redirect : bool;
      if_false : int;
      false_redirect : bool;
    }
  | Ret
  | Missing of string  (** a label that names no block *)

type code = {
  name : string;
  labels : string array; (* block id -> label *)
  ids : (string, int) Hashtbl.t; (* label -> block id *)
  bodies : Instr.t array array;
  terms : term array;
  sites : int array; (* [Hashtbl.hash label]: the trace's branch site *)
  stride : int; (* exceeds every body length, so [block * stride + index] is unique *)
  entry : int;
  max_reg : Reg.t;
}

(* Block ids follow the layout order, so the layout successor of block [i]
   is block [i + 1]. Blocks outside the layout order (a malformed function)
   come next, in label order, and have no layout successor; labels that
   name no block come last, as [Missing] blocks that raise when reached,
   where [Func.block] used to. *)
let lower (f : Func.t) =
  let ids = Hashtbl.create 64 in
  let rev = ref [] in
  let add l =
    if not (Hashtbl.mem ids l) then begin
      Hashtbl.add ids l (Hashtbl.length ids);
      rev := l :: !rev
    end
  in
  List.iter add f.Func.order;
  let in_layout = Hashtbl.length ids in
  let outside =
    Hashtbl.fold (fun l _ acc -> if Hashtbl.mem ids l then acc else l :: acc) f.Func.blocks []
  in
  List.iter add (List.sort String.compare outside);
  List.iter
    (fun l -> Option.iter (fun b -> List.iter add (Block.successors b)) (Func.block_opt f l))
    (List.rev !rev);
  let labels = Array.of_list (List.rev !rev) in
  let n = Array.length labels in
  let block i = Func.block_opt f labels.(i) in
  let id l = Hashtbl.find ids l in
  let redirect i l = not (i + 1 < in_layout && id l = i + 1) in
  let bodies =
    Array.init n (fun i -> match block i with Some b -> b.Block.body | None -> [||])
  in
  let terms =
    Array.init n (fun i ->
        match block i with
        | None -> Missing labels.(i)
        | Some b -> (
          match b.Block.term with
          | Block.Jump l -> Jump { target = id l; redirect = redirect i l }
          | Block.Branch (cond, l1, l2) ->
            Branch
              {
                cond;
                if_true = id l1;
                true_redirect = redirect i l1;
                if_false = id l2;
                false_redirect = redirect i l2;
              }
          | Block.Ret -> Ret))
  in
  let max_reg = ref 0 in
  let see r = if r > !max_reg then max_reg := r in
  Array.iter (Array.iter (fun i -> Instr.iter_defs see i; Instr.iter_uses see i)) bodies;
  Array.iter (function Branch { cond; _ } -> see cond | Jump _ | Ret | Missing _ -> ()) terms;
  {
    name = f.Func.name;
    labels;
    ids;
    bodies;
    terms;
    sites = Array.map Hashtbl.hash labels;
    stride = 1 + Array.fold_left (fun m b -> max m (Array.length b)) 0 bodies;
    entry = id f.Func.entry;
    max_reg = !max_reg;
  }

(* ------------------------------------------------------------------ *)
(* Registers and memory. An absent register or word reads as 0; only this
   module knows how they are stored. *)

type regs = int array

(* Memory is paged: a segment is a table of [page_words]-word pages, with
   word [i] of the segment at [base + i * word]. Pages are copy-on-write.
   [copy] copies page tables only, and both states give up ownership of
   every page; a write to a page its state does not own copies the page
   first. Snapshots and forks therefore share every page neither side has
   written since, and [mem_diff] skips physically shared pages. A page is
   at most [page_words] words, which keeps it a small block in the
   runtime's size-class pools rather than a large allocation. *)
let page_bits = 7

let page_words = 1 lsl page_bits

let page_mask = page_words - 1

(* Never written: a page nobody owns is copied before any write. *)
let zero_page = Array.make page_words 0

type seg = {
  base : int;
  mutable pages : int array array;
  mutable owned : Bytes.t; (* one byte per page: '\001' when this state owns it *)
  mutable owns_any : bool;
}

(* The data, spill and checkpoint segments of [Layout], plus an overflow
   table for every address they do not hold: unaligned addresses,
   addresses below [Layout.data_base], and addresses too far past a
   segment's end to grow it to (typically a fault-corrupted pointer). An
   address lives in exactly one place. *)
type mem = { data : seg; spill : seg; ckpt : seg; overflow : (int, int) Hashtbl.t }

type state = {
  code : code;
  mutable regs : regs;
  mem : mem;
  mutable block : int;
  mutable index : int;
  mutable steps : int;
  mutable halted : bool;
}

exception Out_of_fuel

(* [Hashtbl.find] with a handler instead of [find_opt] keeps every read
   allocation-free. *)
let find0 tbl k = match Hashtbl.find tbl k with v -> v | exception Not_found -> 0

let get_reg st r =
  (* Register 0 is never written, so it reads 0 without a test. *)
  if r >= 0 && r < Array.length st.regs then Array.unsafe_get st.regs r else 0

let set_reg st r v =
  if r > 0 then begin
    let len = Array.length st.regs in
    if r >= len then begin
      let regs = Array.make (max (r + 1) (2 * len)) 0 in
      Array.blit st.regs 0 regs 0 len;
      st.regs <- regs
    end;
    Array.unsafe_set st.regs r v
  end
  else if r < 0 then invalid_arg (Printf.sprintf "Interp.set_reg: negative register %d" r)

(* Growth cap: a segment's page table grows to hold a write at most
   [grow_slack] pages past twice its length, and never past [max_pages]
   (32 MB of words). Anything further goes to the overflow table. *)
let grow_slack = 32

let max_pages = 1 lsl 15

let segment m a =
  if a >= Layout.ckpt_base then m.ckpt else if a >= Layout.spill_base then m.spill else m.data

let overflow_get m a = if Hashtbl.length m.overflow = 0 then 0 else find0 m.overflow a

let mem_get m a =
  if a < Layout.data_base then overflow_get m a
  else
    let s = segment m a in
    let off = a - s.base in
    let i = off / Layout.word in
    let p = i lsr page_bits in
    if off land (Layout.word - 1) = 0 && p < Array.length s.pages then
      Array.unsafe_get (Array.unsafe_get s.pages p) (i land page_mask)
    else overflow_get m a

let get_mem st a = mem_get st.mem a

(* Page [p] of [s], copied first unless [s] owns it. *)
let own_page s p =
  if Bytes.unsafe_get s.owned p <> '\000' then Array.unsafe_get s.pages p
  else begin
    let page = Array.copy s.pages.(p) in
    s.pages.(p) <- page;
    Bytes.unsafe_set s.owned p '\001';
    s.owns_any <- true;
    page
  end

let write_word s i v = Array.unsafe_set (own_page s (i lsr page_bits)) (i land page_mask) v

(* Grow [s]'s page table to hold page [p] (new pages are the zero page),
   moving any overflow entries the new range covers into it. *)
let grow m s p =
  let n = Array.length s.pages in
  let n' = min max_pages (max (p + 1) (2 * n)) in
  let pages = Array.make n' zero_page in
  Array.blit s.pages 0 pages 0 n;
  let owned = Bytes.make n' '\000' in
  Bytes.blit s.owned 0 owned 0 n;
  s.pages <- pages;
  s.owned <- owned;
  if Hashtbl.length m.overflow > 0 then begin
    let lo = s.base + (n * page_words * Layout.word) in
    let hi = s.base + (n' * page_words * Layout.word) in
    let moved =
      Hashtbl.fold
        (fun a v acc ->
          if a >= lo && a < hi && (a - s.base) land (Layout.word - 1) = 0 then (a, v) :: acc
          else acc)
        m.overflow []
    in
    List.iter
      (fun (a, v) ->
        Hashtbl.remove m.overflow a;
        write_word s ((a - s.base) / Layout.word) v)
      moved
  end

let set_mem st a v =
  let m = st.mem in
  if a < Layout.data_base then Hashtbl.replace m.overflow a v
  else
    let s = segment m a in
    let off = a - s.base in
    let i = off / Layout.word in
    let p = i lsr page_bits in
    let n = Array.length s.pages in
    if off land (Layout.word - 1) <> 0 then Hashtbl.replace m.overflow a v
    else if p < n then write_word s i v
    else if p < min max_pages ((2 * n) + grow_slack) then begin
      grow m s p;
      write_word s i v
    end
    else Hashtbl.replace m.overflow a v

(* The source gives up its pages too, so a later write on either side
   copies. A state that owns nothing (a snapshot, read by several domains
   at once) is not written to. *)
let copy_seg s =
  if s.owns_any then begin
    Bytes.fill s.owned 0 (Bytes.length s.owned) '\000';
    s.owns_any <- false
  end;
  { s with pages = Array.copy s.pages; owned = Bytes.make (Array.length s.pages) '\000' }

let copy st =
  let m = st.mem in
  {
    st with
    regs = Array.copy st.regs;
    mem =
      {
        data = copy_seg m.data;
        spill = copy_seg m.spill;
        ckpt = copy_seg m.ckpt;
        overflow = Hashtbl.copy m.overflow;
      };
  }

(* Lowest address of segment [sa]/[sb] (the same segment of two memories)
   accepted by [only] whose values differ; [max_int] when none. Shared
   pages are skipped, other pages compared word by word. Past the end of
   one side's page table, that side's value is in its overflow table or
   absent. *)
let seg_diff only ma mb sa sb =
  let na = Array.length sa.pages and nb = Array.length sb.pages in
  let n = max na nb in
  let low = ref max_int and p = ref 0 in
  while !p < n do
    let pg = !p in
    let xa = if pg < na then Array.unsafe_get sa.pages pg else zero_page in
    let xb = if pg < nb then Array.unsafe_get sb.pages pg else zero_page in
    (* A side past its table reads as the zero page here. When both read
       it, any difference is a non-zero overflow value, which
       [mem_diff]'s overflow scan finds. *)
    if xa != xb then begin
      let first = sa.base + (pg * page_words * Layout.word) in
      let w = ref 0 in
      while !w < page_words do
        let k = !w in
        let a = first + (k * Layout.word) in
        let va = if pg < na then Array.unsafe_get xa k else overflow_get ma a in
        let vb = if pg < nb then Array.unsafe_get xb k else overflow_get mb a in
        if va <> vb && only a then begin
          low := a;
          w := page_words
        end
        else w := k + 1
      done
    end;
    p := if !low = max_int then pg + 1 else n
  done;
  !low

(* The segments in ascending address order, so the first one with a
   difference holds the lowest paged one. An overflow address can lie
   anywhere, so both overflow tables are scanned last; a differing address
   holds a non-zero value on at least one side, so each scan only looks at
   its non-zero entries. *)
let mem_diff ~only a b =
  let ma = a.mem and mb = b.mem in
  let d = seg_diff only ma mb ma.data mb.data in
  let d = if d < max_int then d else seg_diff only ma mb ma.spill mb.spill in
  let d = if d < max_int then d else seg_diff only ma mb ma.ckpt mb.ckpt in
  let low = ref d in
  let scan x y =
    Hashtbl.iter
      (fun k v -> if v <> 0 && k < !low && only k && v <> mem_get y k then low := k)
      x.overflow
  in
  scan ma mb;
  scan mb ma;
  if !low = max_int then None else Some !low

let regs_equal a b =
  let ra = a.regs and rb = b.regs in
  let la = Array.length ra and lb = Array.length rb in
  let common = min la lb in
  let rec same i =
    i >= common || (Array.unsafe_get ra i = Array.unsafe_get rb i && same (i + 1))
  in
  let rec zero r i = i >= Array.length r || (Array.unsafe_get r i = 0 && zero r (i + 1)) in
  same 0 && zero ra common && zero rb common

let everywhere _ = true

let mem_equal a b = mem_diff ~only:everywhere a b = None

let app_mem_equal a b =
  mem_diff ~only:(fun k -> not (Layout.is_ckpt_addr k)) a b = None

(* ------------------------------------------------------------------ *)
(* The pc. *)

let label st = st.code.labels.(st.block)

let jump st l =
  match Hashtbl.find st.code.ids l with
  | id ->
    st.block <- id;
    st.index <- 0
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Interp.jump: unknown label %s in %s" l st.code.name)

let same_pc a b = a.block = b.block && a.index = b.index

let site st = (st.block * st.code.stride) + st.index

let site_of st l index =
  match Hashtbl.find_opt st.code.ids l with
  | Some id when index >= 0 && index < st.code.stride -> (id * st.code.stride) + index
  | Some _ | None -> -1

let operand_value st = function
  | Instr.Reg r -> get_reg st r
  | Instr.Imm i -> i

(* The data segment's page table covers [mem_init]'s data words; the
   checkpoint segment's covers every slot of the program's registers.
   Pages stay the shared zero page until written. *)
let init (prog : Prog.t) =
  let code = lower prog.func in
  let max_reg = List.fold_left (fun m (r, _) -> max m r) code.max_reg prog.reg_init in
  let data_words =
    List.fold_left
      (fun n (a, _) ->
        let off = a - Layout.data_base in
        if a >= Layout.data_base && a < Layout.spill_base && off land (Layout.word - 1) = 0
        then max n ((off / Layout.word) + 1)
        else n)
      0 prog.mem_init
  in
  let seg base words =
    let n = min max_pages ((words + page_mask) lsr page_bits) in
    { base; pages = Array.make n zero_page; owned = Bytes.make n '\000'; owns_any = false }
  in
  let st =
    {
      code;
      regs = Array.make (max_reg + 1) 0;
      mem =
        {
          data = seg Layout.data_base data_words;
          spill = seg Layout.spill_base 0;
          ckpt = seg Layout.ckpt_base ((max_reg + 1) * Layout.colors);
          overflow = Hashtbl.create 8;
        };
      block = code.entry;
      index = 0;
      steps = 0;
      halted = false;
    }
  in
  List.iter (fun (a, v) -> set_mem st a v) prog.mem_init;
  (* Seed the base-color checkpoint slot of every initialised register: the
     initial architectural state counts as verified, so a rollback that
     restarts the entry region restores inputs instead of zeros. *)
  List.iter
    (fun (r, v) ->
      set_reg st r v;
      if not (Reg.is_zero r) then set_mem st (Layout.ckpt_slot ~reg:r ~color:0) v)
    prog.reg_init;
  st

let default_ckpt st r =
  set_mem st (Layout.ckpt_slot ~reg:r ~color:0) (get_reg st r)

type hooks = {
  on_ckpt : state -> Reg.t -> unit;
  on_boundary : state -> int -> unit;
  on_load : state -> int -> unit;
  write_mem : state -> int -> int -> unit;
}

let no_hooks =
  {
    on_ckpt = default_ckpt;
    on_boundary = (fun _ _ -> ());
    on_load = (fun _ _ -> ());
    write_mem = set_mem;
  }

(* Trace recording appends one event per executed instruction straight
   into the column buffer. The sources are those [Instr.uses] lists —
   the non-zero registers among [a] and [b], in that order — without
   building the list. *)
let record buf kind ~dst ~aux a b =
  match buf with
  | None -> ()
  | Some buf ->
    if Reg.is_zero a then
      if Reg.is_zero b then Trace.Buf.add buf kind ~nsrcs:0 ~dst ~s0:0 ~s1:0 ~aux
      else Trace.Buf.add buf kind ~nsrcs:1 ~dst ~s0:b ~s1:0 ~aux
    else if Reg.is_zero b then Trace.Buf.add buf kind ~nsrcs:1 ~dst ~s0:a ~s1:0 ~aux
    else Trace.Buf.add buf kind ~nsrcs:2 ~dst ~s0:a ~s1:b ~aux

let operand_reg = function Instr.Reg r -> r | Instr.Imm _ -> Reg.zero

let alu_dst = Trace.alu_kind ~has_dst:true

let exec hooks buf st (i : Instr.t) =
  match i with
  | Binop (op, d, a, o) ->
    set_reg st d (Instr.eval_binop op (get_reg st a) (operand_value st o));
    record buf alu_dst ~dst:d ~aux:0 a (operand_reg o)
  | Cmp (c, d, a, o) ->
    set_reg st d (Instr.eval_cmp c (get_reg st a) (operand_value st o));
    record buf alu_dst ~dst:d ~aux:0 a (operand_reg o)
  | Mov (d, o) ->
    set_reg st d (operand_value st o);
    record buf alu_dst ~dst:d ~aux:0 (operand_reg o) Reg.zero
  | Load (d, b, off, kind) ->
    let addr = get_reg st b + off in
    set_reg st d (get_mem st addr);
    hooks.on_load st addr;
    record buf (Trace.load_kind kind) ~dst:d ~aux:addr b Reg.zero
  | Store (s, b, off, kind) ->
    let addr = get_reg st b + off in
    hooks.write_mem st addr (get_reg st s);
    let cls =
      match kind with
      | Instr.Spill_mem -> Trace.Regular_spill
      | Instr.App_mem | Instr.Ckpt_mem -> Trace.Regular_app
    in
    record buf (Trace.store_kind cls) ~dst:0 ~aux:addr s b
  | Ckpt r -> (
    hooks.on_ckpt st r;
    (* A checkpoint always names its register, even the zero register. *)
    match buf with
    | Some buf -> Trace.Buf.add buf Trace.ckpt_kind ~nsrcs:1 ~dst:0 ~s0:r ~s1:0 ~aux:0
    | None -> ())
  | Boundary id ->
    hooks.on_boundary st id;
    record buf Trace.boundary_kind ~dst:0 ~aux:id Reg.zero Reg.zero
  | Nop -> record buf (Trace.alu_kind ~has_dst:false) ~dst:0 ~aux:0 Reg.zero Reg.zero

let exec_instr hooks st i = exec hooks None st i

let current_instr st =
  let body = st.code.bodies.(st.block) in
  if st.index < Array.length body then Some body.(st.index) else None

let step_with hooks buf st =
  if not st.halted then begin
    let code = st.code in
    let b = st.block in
    let body = code.bodies.(b) in
    let i = st.index in
    if i < Array.length body then begin
      exec hooks buf st body.(i);
      st.index <- i + 1
    end
    else begin
      (* A control transfer to the layout successor is a fall-through: no
         fetch redirect, and for an unconditional jump not even an
         instruction (region-boundary block splits are PC markers, not
         code). *)
      match code.terms.(b) with
      | Jump { target; redirect } ->
        if redirect then
          record buf (Trace.branch_kind ~taken:true) ~dst:0 ~aux:code.sites.(b) Reg.zero
            Reg.zero;
        st.block <- target;
        st.index <- 0
      | Branch { cond; if_true; true_redirect; if_false; false_redirect } ->
        let nz = get_reg st cond <> 0 in
        let taken = if nz then true_redirect else false_redirect in
        (* The condition register is a source even when it is the zero
           register, as [Instr.uses] never sees terminators. *)
        (match buf with
        | Some buf ->
          Trace.Buf.add buf (Trace.branch_kind ~taken) ~nsrcs:1 ~dst:0 ~s0:cond ~s1:0
            ~aux:code.sites.(b)
        | None -> ());
        st.block <- (if nz then if_true else if_false);
        st.index <- 0
      | Ret -> st.halted <- true
      | Missing l ->
        invalid_arg (Printf.sprintf "Func.block: unknown label %s in %s" l code.name)
    end;
    st.steps <- st.steps + 1
  end

let step ?(hooks = no_hooks) st = step_with hooks None st

(* The one fuel loop: a fresh state stepped until it halts or has taken
   [fuel] steps. *)
let run_fuel ~fuel hooks buf (prog : Prog.t) =
  let st = init prog in
  while (not st.halted) && st.steps < fuel do
    step_with hooks buf st
  done;
  st

let run ?(fuel = 10_000_000) ?(hooks = no_hooks) prog =
  let st = run_fuel ~fuel hooks None prog in
  if not st.halted then raise Out_of_fuel;
  st

let trace_run ?(fuel = 1_000_000) prog =
  let buf = Trace.Buf.create () in
  let st = run_fuel ~fuel no_hooks (Some buf) prog in
  (Trace.Buf.finish buf ~complete:st.halted, st)
