(* Fault-campaign construction: deterministic sets of faults spread across
   a program's dynamic execution, targeting registers that actually carry
   values at the injection point (so the campaign stresses recovery rather
   than flipping dead bits). *)

open Turnpike_ir

let mix a b =
  let z = ref ((a * 0x9E3779B9) + (b * 0x85EBCA6B) + 0x165667B1) in
  z := !z lxor (!z lsr 15);
  z := !z * 0x2C1B3C6D;
  z := !z lxor (!z lsr 13);
  !z land max_int

(* Registers written during a window of the trace, as (step, reg) pairs. *)
let written_regs_by_step (trace : Trace.t) =
  let acc = ref [] in
  for step = Trace.length trace - 1 downto 0 do
    let w = Trace.word trace step in
    match Trace.op_of_word w with
    | Trace.Op_load -> acc := (step, Trace.dst_of_word w) :: !acc
    | Trace.Op_alu when Trace.flag_of_word w -> acc := (step, Trace.dst_of_word w) :: !acc
    | Trace.Op_alu | Trace.Op_store | Trace.Op_ckpt | Trace.Op_branch | Trace.Op_boundary -> ()
  done;
  Array.of_list !acc

(* Register values are 63-bit OCaml ints and Fault.single_bit accepts bits
   0..62; draw over the full width so high bits are struck too. *)
let value_bits = 63

let campaign ?(seed = 42) ~count (trace : Trace.t) =
  let sites = written_regs_by_step trace in
  let n = Array.length sites in
  let last_step = Trace.length trace - 1 in
  if n = 0 || count <= 0 then []
  else begin
    (* The site and bit draws both come from the [mix seed _] stream, so
       distinct k can repeat a (step, reg, bit) triple; repeated trials
       waste campaign budget and bias the i.i.d. assumption behind the
       sequential stopping rules. Deduplicate in seeded draw order,
       topping up with extra draws (then a systematic sweep) until [count]
       distinct faults exist or the site/bit space is exhausted. *)
    let distinct_sites =
      let t = Hashtbl.create n in
      Array.iter (fun (s, r) -> Hashtbl.replace t (min (s + 1) last_step, r) ()) sites;
      Hashtbl.length t
    in
    let target = min count (distinct_sites * value_bits) in
    let seen = Hashtbl.create (2 * target) in
    let acc = ref [] in
    let added = ref 0 in
    let add step reg bit =
      (* Strike one step after the write so the fault lands on a live,
         freshly produced value — clamped into the trace when the
         sampled write is its final event. *)
      let at_step = min (step + 1) last_step in
      if not (Hashtbl.mem seen (at_step, reg, bit)) then begin
        Hashtbl.replace seen (at_step, reg, bit) ();
        acc := Fault.single_bit ~at_step ~reg ~bit :: !acc;
        incr added
      end
    in
    let k = ref 0 in
    let max_draws = (64 * target) + 256 in
    while !added < target && !k < max_draws do
      let step, reg = sites.(mix seed !k mod n) in
      let bit = mix seed ((!k * 7) + 1) mod value_bits in
      add step reg bit;
      incr k
    done;
    (* Hashed draws starved (tiny site space): sweep site-major so the
       remaining distinct faults are reached deterministically. *)
    let i = ref 0 in
    while !added < target && !i < n * value_bits do
      let step, reg = sites.(!i mod n) in
      add step reg (!i / n);
      incr i
    done;
    List.rev !acc
  end
