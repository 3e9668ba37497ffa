(* Register scoreboard shared by the timing models: the cycle at which
   each register's value becomes available. An int array indexed by a
   zigzag encoding of the register id (0, -1, 1, -2, 2, ... map to
   0, 1, 2, 3, 4, ...), grown on demand for virtual registers; unset
   registers and the zero register are ready at cycle 0. *)

open Turnpike_ir

type t = { mutable ready : int array }

let create () = { ready = Array.make 64 0 }

let index r = (r lsl 1) lxor (r asr (Sys.int_size - 1))

let ready t r =
  let i = index r in
  if i < Array.length t.ready then Array.unsafe_get t.ready i else 0

let set t r c =
  if not (Reg.is_zero r) then begin
    let i = index r in
    if i >= Array.length t.ready then begin
      let a = Array.make (Int.max (i + 1) (2 * Array.length t.ready)) 0 in
      Array.blit t.ready 0 a 0 (Array.length t.ready);
      t.ready <- a
    end;
    Array.unsafe_set t.ready i c
  end

let sources_ready t tr i w =
  match Trace.nsrcs_of_word w with
  | 0 -> 0
  | 1 -> ready t (Trace.src0_of_word w)
  | _ -> Int.max (ready t (Trace.src0_of_word w)) (ready t (Trace.src1 tr i))
