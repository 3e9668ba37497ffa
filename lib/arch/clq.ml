(* Committed load queue (paper §4.3.1): dynamically proves the absence of
   WAR dependence so regular stores can bypass verification. Two designs:
   the ideal CAM design records every committed load address of a region;
   the compact design keeps one [min,max] range per region with a small
   fixed number of entries and the Fig-13 enable/disable automaton.

   Entry records are allocated up front (the ideal design grows its pool)
   and recycled: entries in use occupy [entries.(0 .. count-1)] in
   insertion order, so per-load and per-store work allocates nothing
   beyond the ideal design's address sets. *)

type design = Ideal | Compact of int

module ISet = Set.Make (Int)

type entry = {
  mutable region : int; (* dynamic region *)
  mutable lo : int; (* compact: loaded address range *)
  mutable hi : int;
  mutable addrs : ISet.t; (* ideal only: every loaded address *)
}

type t = {
  design : design;
  mutable entries : entry array;
  mutable count : int; (* entries in use *)
  mutable enabled : bool;
  mutable overflows : int;
  mutable inserted_loads : int;
  (* Entries-in-use samples, one per region boundary (Fig 24). *)
  mutable samples : int;
  mutable populated_total : int;
  mutable populated_max : int;
}

let fresh _ = { region = 0; lo = 0; hi = 0; addrs = ISet.empty }

let create design =
  let cap =
    match design with
    | Compact n when n <= 0 -> invalid_arg "Clq.create: entries must be positive"
    | Compact n -> n
    | Ideal -> 4
  in
  {
    design;
    entries = Array.init cap fresh;
    count = 0;
    enabled = true;
    overflows = 0;
    inserted_loads = 0;
    samples = 0;
    populated_total = 0;
    populated_max = 0;
  }

let copy t =
  (* Deep copy for executor snapshotting (the address sets are immutable
     and shared). *)
  { t with entries = Array.map (fun e -> { e with region = e.region }) t.entries }

let enabled t = t.enabled

let entries_in_use t = t.count

let capacity t = match t.design with Ideal -> max_int | Compact n -> n

(* Index of [region]'s entry, or -1. *)
let find_region t region =
  let i = ref 0 in
  while !i < t.count && t.entries.(!i).region <> region do
    incr i
  done;
  if !i < t.count then !i else -1

let clear_sets t ~from =
  for i = from to t.count - 1 do
    t.entries.(i).addrs <- ISet.empty
  done

let disable t =
  t.enabled <- false;
  clear_sets t ~from:0;
  t.count <- 0;
  t.overflows <- t.overflows + 1

let record_load t ~region addr =
  if not t.enabled then false
  else begin
    let i = find_region t region in
    if i >= 0 then begin
      let e = t.entries.(i) in
      t.inserted_loads <- t.inserted_loads + 1;
      (match t.design with
      | Ideal -> e.addrs <- ISet.add addr e.addrs
      | Compact _ -> ());
      if addr < e.lo then e.lo <- addr;
      if addr > e.hi then e.hi <- addr;
      false
    end
    else if t.count >= capacity t then begin
      disable t;
      true
    end
    else begin
      t.inserted_loads <- t.inserted_loads + 1;
      if t.count = Array.length t.entries then
        t.entries <- Array.append t.entries (Array.init t.count fresh);
      let e = t.entries.(t.count) in
      e.region <- region;
      e.lo <- addr;
      e.hi <- addr;
      (match t.design with
      | Ideal -> e.addrs <- ISet.singleton addr
      | Compact _ -> ());
      t.count <- t.count + 1;
      false
    end
  end

let war_free t ~region addr =
  (* A store may bypass verification only when the fast-release logic is
     enabled and no prior load of its own region may alias it. *)
  t.enabled
  &&
  let i = find_region t region in
  i < 0
  ||
  let e = t.entries.(i) in
  match t.design with
  | Ideal -> not (ISet.mem addr e.addrs)
  | Compact _ -> addr < e.lo || addr > e.hi

let on_region_verified t ~region =
  (* Drop [region]'s entry, keeping the others in order; the freed record
     moves behind them for reuse. *)
  let kept = ref 0 in
  for i = 0 to t.count - 1 do
    let e = t.entries.(i) in
    if e.region <> region then begin
      t.entries.(i) <- t.entries.(!kept);
      t.entries.(!kept) <- e;
      incr kept
    end
  done;
  clear_sets t ~from:!kept;
  t.count <- !kept

let maybe_enable t ~unverified_regions =
  (* Fig 13: after an overflow the logic stays off until a region boundary
     at which the prior region has been verified (at most the just-closed
     region is still pending). *)
  if (not t.enabled) && unverified_regions <= 1 then t.enabled <- true

let sample t =
  t.samples <- t.samples + 1;
  t.populated_total <- t.populated_total + t.count;
  t.populated_max <- Int.max t.populated_max t.count

let overflows t = t.overflows
let inserted_loads t = t.inserted_loads

let max_populated t = t.populated_max

let mean_populated t =
  if t.samples = 0 then 0.0
  else float_of_int t.populated_total /. float_of_int t.samples
