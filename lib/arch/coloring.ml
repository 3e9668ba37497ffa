(* Hardware coloring (paper §4.3.2): a pool of [Layout.colors] alternative
   checkpoint storage locations per register, so that checkpoint stores can
   be released to cache without verification while the previously verified
   checkpoint value stays intact. Three logical maps: Available (free
   colors), Used (per un-verified region) and Verified. *)

(* Per (register, color) state: [free], [verified], or the dynamic region
   that used the color (region ids are never [min_int] or [min_int + 1]).
   Plain ints keep assignment and verification allocation-free. *)
let free = min_int
let verified = min_int + 1

type t = {
  nregs : int;
  states : int array array; (* states.(reg).(color) *)
  used : int array; (* colors of each register held by a region *)
  mutable fast_assigned : int;
  mutable fallbacks : int;
}

let create ?(colors = Turnpike_ir.Layout.colors) ~nregs () =
  if nregs <= 0 then invalid_arg "Coloring.create: nregs must be positive";
  if colors <= 0 then invalid_arg "Coloring.create: colors must be positive";
  {
    nregs;
    states = Array.init nregs (fun _ -> Array.make colors free);
    used = Array.make nregs 0;
    fast_assigned = 0;
    fallbacks = 0;
  }

let copy t = { t with states = Array.map Array.copy t.states; used = Array.copy t.used }

let in_range t reg = reg >= 0 && reg < t.nregs

(* First color of [row] in state [s], or -1. *)
let find row s =
  let c = ref 0 in
  while !c < Array.length row && row.(!c) <> s do
    incr c
  done;
  if !c < Array.length row then !c else -1

let release_verified row ~except =
  for c = 0 to Array.length row - 1 do
    if c <> except && row.(c) = verified then row.(c) <- free
  done

let try_assign t ~reg ~region =
  if not (in_range t reg) then -1
  else begin
    let row = t.states.(reg) in
    let c = find row free in
    if c >= 0 then begin
      row.(c) <- region;
      t.used.(reg) <- t.used.(reg) + 1;
      t.fast_assigned <- t.fast_assigned + 1
    end
    else t.fallbacks <- t.fallbacks + 1;
    c
  end

let on_region_verified t ~region =
  (* For every register checkpointed by [region] through a color: the old
     verified color returns to the pool and the region's (last) color
     becomes the verified one. Registers no region holds a color of are
     skipped without a scan. *)
  for reg = 0 to t.nregs - 1 do
    if t.used.(reg) > 0 then begin
      let row = t.states.(reg) in
      let newly = ref (-1) in
      for c = 0 to Array.length row - 1 do
        if row.(c) = region then newly := c
      done;
      if !newly >= 0 then begin
        release_verified row ~except:(-1);
        row.(!newly) <- verified;
        t.used.(reg) <- t.used.(reg) - 1
      end
    end
  done

let to_option c = if c < 0 then None else Some c

let verified_color t ~reg =
  if not (in_range t reg) then None else to_option (find t.states.(reg) verified)

let used_color t ~reg ~region =
  if not (in_range t reg) then None else to_option (find t.states.(reg) region)

let free_color t ~reg =
  if not (in_range t reg) then None else to_option (find t.states.(reg) free)

let force_verified t ~reg ~color =
  (* A quarantined (fallback) checkpoint drains into [color] at its
     region's verification: that slot becomes the verified storage and any
     other verified color returns to the pool. *)
  if in_range t reg then begin
    let row = t.states.(reg) in
    release_verified row ~except:color;
    if row.(color) <> free && row.(color) <> verified then t.used.(reg) <- t.used.(reg) - 1;
    row.(color) <- verified
  end

let invalidate_verified t ~reg =
  (* A quarantined (fallback) checkpoint of [reg] just verified: the base
     slot now holds the verified value, so any previously verified color
     returns to the pool. *)
  if in_range t reg then release_verified t.states.(reg) ~except:(-1)

let discard_unverified t ~regions =
  (* Error recovery: colors assigned by regions that will be re-executed
     (or were corrupted) return to the pool. *)
  Array.iteri
    (fun reg row ->
      Array.iteri
        (fun c s ->
          if s <> free && s <> verified && List.mem s regions then begin
            row.(c) <- free;
            t.used.(reg) <- t.used.(reg) - 1
          end)
        row)
    t.states

let fast_assigned t = t.fast_assigned
let fallbacks t = t.fallbacks
