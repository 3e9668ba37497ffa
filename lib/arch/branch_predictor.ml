(* Bimodal (2-bit saturating counter) branch predictor with a direct-mapped
   pattern table, as fitted to small in-order cores. The timing model
   charges the redirect penalty only on mispredictions; unconditional
   fall-throughs never reach the predictor. *)

type t = {
  counters : int array; (* 0..3; >=2 predicts taken *)
  mask : int;
  mutable lookups : int;
  mutable mispredicts : int;
}

let create ?(entries = 512) () =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Branch_predictor.create: entries must be a positive power of two";
  (* Weakly taken initial state: loops start off predicted correctly. *)
  { counters = Array.make entries 2; mask = entries - 1; lookups = 0; mispredicts = 0 }

let index t pc = pc land t.mask

let predict t ~pc = t.counters.(index t pc) >= 2

let update t ~pc ~taken =
  t.lookups <- t.lookups + 1;
  let i = index t pc in
  let predicted = t.counters.(i) >= 2 in
  if predicted <> taken then t.mispredicts <- t.mispredicts + 1;
  let c = t.counters.(i) in
  t.counters.(i) <- (if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1));
  predicted = taken

let lookups t = t.lookups
let mispredicts t = t.mispredicts

let mispredict_rate t =
  if t.lookups = 0 then 0.0 else float_of_int t.mispredicts /. float_of_int t.lookups
