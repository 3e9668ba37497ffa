(* Flat int-array bitsets, 62 usable bits per word (shifts stay clear of
   the OCaml int sign bit on every platform). *)

type t = int array

let bits_per_word = 62

let create ~max_id = Array.make ((max_id + bits_per_word + 1) / bits_per_word) 0

(* Out-of-universe ids read as absent: checks probe sets with ids taken
   from claims and recovery expressions, which hand-built (adversarial)
   IR can point anywhere. *)
let mem bs r =
  let w = r / bits_per_word in
  w < Array.length bs && bs.(w) land (1 lsl (r mod bits_per_word)) <> 0

let add bs r =
  bs.(r / bits_per_word) <- bs.(r / bits_per_word) lor (1 lsl (r mod bits_per_word))

let remove bs r =
  bs.(r / bits_per_word) <-
    bs.(r / bits_per_word) land lnot (1 lsl (r mod bits_per_word))

let copy = Array.copy

let equal (a : t) (b : t) = a = b

let clear bs = Array.fill bs 0 (Array.length bs) 0

let assign ~dst src =
  let changed = ref false in
  for w = 0 to Array.length dst - 1 do
    if dst.(w) <> src.(w) then begin
      dst.(w) <- src.(w);
      changed := true
    end
  done;
  !changed

let union_into ~dst src =
  for w = 0 to Array.length dst - 1 do
    dst.(w) <- dst.(w) lor src.(w)
  done

let inter_into ~dst src =
  for w = 0 to Array.length dst - 1 do
    dst.(w) <- dst.(w) land src.(w)
  done

let transfer ~gen ~kill src =
  let out = Array.make (Array.length src) 0 in
  for w = 0 to Array.length src - 1 do
    out.(w) <- src.(w) land lnot kill.(w) lor gen.(w)
  done;
  out

let transfer_into ~dst ~gen ~kill src =
  let changed = ref false in
  for w = 0 to Array.length dst - 1 do
    let v = src.(w) land lnot kill.(w) lor gen.(w) in
    if dst.(w) <> v then begin
      dst.(w) <- v;
      changed := true
    end
  done;
  !changed

let iter f bs =
  for w = 0 to Array.length bs - 1 do
    let word = bs.(w) in
    if word <> 0 then
      for b = 0 to bits_per_word - 1 do
        if word land (1 lsl b) <> 0 then f ((w * bits_per_word) + b)
      done
  done

let of_reg_set ~max_id s =
  let bs = create ~max_id in
  Reg.Set.iter (fun r -> add bs r) s;
  bs
