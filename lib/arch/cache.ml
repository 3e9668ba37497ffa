(* Set-associative write-back, write-allocate cache with true-LRU
   replacement. Timing is supplied by the enclosing hierarchy; this module
   only tracks hit/miss state. *)

type line = { mutable tag : int; mutable valid : bool; mutable dirty : bool; mutable lru : int }

type t = {
  name : string;
  sets : line array array;
  set_bits : int;
  line_bits : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let log2_exact n =
  let rec go acc v = if v = 1 then acc else go (acc + 1) (v / 2) in
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg "Cache: size must be a power of two";
  go 0 n

let create ~name ~size_bytes ~assoc ~line_bytes =
  if size_bytes mod (assoc * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by assoc*line";
  let n_sets = size_bytes / (assoc * line_bytes) in
  let set_bits = log2_exact n_sets and line_bits = log2_exact line_bytes in
  let sets =
    Array.init n_sets (fun _ ->
        Array.init assoc (fun _ -> { tag = 0; valid = false; dirty = false; lru = 0 }))
  in
  { name; sets; set_bits; line_bits; tick = 0; hits = 0; misses = 0; writebacks = 0 }

let touch t line =
  t.tick <- t.tick + 1;
  line.lru <- t.tick

(* Index loops rather than [Array.iter] closures: a probe allocates
   nothing. *)
let access t ~write addr =
  let line_addr = addr lsr t.line_bits in
  let set = t.sets.(line_addr land ((1 lsl t.set_bits) - 1)) in
  let tag = line_addr lsr t.set_bits in
  let found = ref (-1) in
  for i = 0 to Array.length set - 1 do
    let l = set.(i) in
    if l.valid && l.tag = tag then found := i
  done;
  if !found >= 0 then begin
    let l = set.(!found) in
    touch t l;
    if write then l.dirty <- true;
    t.hits <- t.hits + 1;
    `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    (* Victim = least recently used (invalid lines first). *)
    let victim = ref 0 in
    for i = 0 to Array.length set - 1 do
      let l = set.(i) and v = set.(!victim) in
      if not l.valid then victim := i
      else if v.valid && l.lru < v.lru then victim := i
    done;
    let v = set.(!victim) in
    if v.valid && v.dirty then t.writebacks <- t.writebacks + 1;
    v.valid <- true;
    v.tag <- tag;
    v.dirty <- write;
    touch t v;
    `Miss
  end

let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 1.0 else float_of_int t.hits /. float_of_int total

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0
