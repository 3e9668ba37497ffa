(* Gated store buffer (GSB). Under verification (Turnstile/Turnpike), an
   entry allocated by a committed store is quarantined until the store's
   region is verified error-free; entries then drain to L1 one per cycle.
   In baseline mode entries are given a release time at allocation.

   Fixed-capacity parallel arrays, oldest entry at index 0. Each
   per-store operation is a scan over at most [size] entries and
   allocates nothing. *)

let quarantined = -1 (* [release_at] of an entry awaiting verification *)

type t = {
  size : int;
  addr : int array;
  region : int array; (* dynamic region sequence number *)
  is_ckpt : bool array;
  release_at : int array; (* drain cycle, or [quarantined] *)
  mutable count : int;
  mutable earliest : int; (* min assigned drain cycle, or [max_int] *)
  mutable occupancy_samples : int;
  mutable occupancy_total : int;
}

let create size =
  if size <= 0 then invalid_arg "Store_buffer.create: size must be positive";
  {
    size;
    addr = Array.make size 0;
    region = Array.make size 0;
    is_ckpt = Array.make size false;
    release_at = Array.make size quarantined;
    count = 0;
    earliest = max_int;
    occupancy_samples = 0;
    occupancy_total = 0;
  }

let occupancy t = t.count

let is_full t = t.count >= t.size

let sample t =
  t.occupancy_samples <- t.occupancy_samples + 1;
  t.occupancy_total <- t.occupancy_total + t.count

let mean_occupancy t =
  if t.occupancy_samples = 0 then 0.0
  else float_of_int t.occupancy_total /. float_of_int t.occupancy_samples

let alloc t ~addr ~region ~is_ckpt ~release_at =
  if is_full t then invalid_arg "Store_buffer.alloc: buffer full";
  let i = t.count in
  t.addr.(i) <- addr;
  t.region.(i) <- region;
  t.is_ckpt.(i) <- is_ckpt;
  t.release_at.(i) <- release_at;
  if release_at <> quarantined then t.earliest <- Int.min t.earliest release_at;
  t.count <- i + 1

let contains_addr t a =
  let i = ref 0 in
  while !i < t.count && t.addr.(!i) <> a do
    incr i
  done;
  !i < t.count

let assign_releases t ~region ~start =
  (* Called when [region] is verified: its quarantined entries drain to L1
     one per cycle starting at [start]. Returns the next free drain slot. *)
  let next = ref start in
  for i = 0 to t.count - 1 do
    if t.region.(i) = region && t.release_at.(i) = quarantined then begin
      t.release_at.(i) <- !next;
      incr next
    end
  done;
  if !next > start then t.earliest <- Int.min t.earliest start;
  !next

let scan_earliest t =
  let m = ref max_int in
  for i = 0 to t.count - 1 do
    let r = t.release_at.(i) in
    if r <> quarantined && r < !m then m := r
  done;
  t.earliest <- !m

let release_up_to t cycle env f =
  (* Drained entries are reported oldest first; survivors slide down in
     place, keeping their order. *)
  if t.earliest <= cycle then begin
    let kept = ref 0 and earliest = ref max_int in
    for i = 0 to t.count - 1 do
      let r = t.release_at.(i) in
      if r <> quarantined && r <= cycle then
        f env ~addr:t.addr.(i) ~is_ckpt:t.is_ckpt.(i) ~region:t.region.(i) ~at:r
      else begin
        let k = !kept in
        if k <> i then begin
          t.addr.(k) <- t.addr.(i);
          t.region.(k) <- t.region.(i);
          t.is_ckpt.(k) <- t.is_ckpt.(i);
          t.release_at.(k) <- r
        end;
        if r <> quarantined then earliest := Int.min !earliest r;
        kept := k + 1
      end
    done;
    t.count <- !kept;
    t.earliest <- !earliest
  end

let earliest_release t = t.earliest

let all_unreleasable t ~current_region =
  let i = ref 0 in
  while
    !i < t.count
    && t.release_at.(!i) = quarantined
    && t.region.(!i) = current_region
  do
    incr i
  done;
  t.count > 0 && !i = t.count

let force_release_oldest t =
  if t.count = 0 then None
  else begin
    let addr = t.addr.(0) and is_ckpt = t.is_ckpt.(0) in
    Array.blit t.addr 1 t.addr 0 (t.count - 1);
    Array.blit t.region 1 t.region 0 (t.count - 1);
    Array.blit t.is_ckpt 1 t.is_ckpt 0 (t.count - 1);
    Array.blit t.release_at 1 t.release_at 0 (t.count - 1);
    t.count <- t.count - 1;
    scan_earliest t;
    Some (addr, is_ckpt)
  end

let unverified_regions t =
  let acc = ref [] in
  for i = t.count - 1 downto 0 do
    if t.release_at.(i) = quarantined then acc := t.region.(i) :: !acc
  done;
  List.sort_uniq Int.compare !acc
