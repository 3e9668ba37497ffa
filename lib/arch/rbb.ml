(* Region boundary buffer: one entry per in-flight (unverified) dynamic
   region, recording when it will be verified. The entry also anchors the
   recovery PC (represented here by the static region id).

   Closed regions wait in a ring, oldest first; the open region lives in
   scalar fields. Nothing allocates per region: the ring only grows (by
   doubling) when a model lets more regions pend than its [size], as the
   OoO model's never-full RBB does. *)

type t = {
  size : int;
  mutable seqs : int array; (* pending ring: dynamic sequence numbers *)
  mutable statics : int array; (* static region ids *)
  mutable verify_at : int array; (* verification cycles *)
  mutable head : int;
  mutable pending : int;
  mutable current_seq : int; (* open region, or -1 *)
  mutable current_static : int;
  mutable next_seq : int;
  mutable verified_any : bool;
  mutable last_verified_static : int;
}

let create size =
  if size <= 0 then invalid_arg "Rbb.create: size must be positive";
  {
    size;
    seqs = Array.make size 0;
    statics = Array.make size 0;
    verify_at = Array.make size 0;
    head = 0;
    pending = 0;
    current_seq = -1;
    current_static = 0;
    next_seq = 0;
    verified_any = false;
    last_verified_static = 0;
  }

let has_open t = t.current_seq >= 0

let current_seq t = t.current_seq

let unverified_count t = t.pending + if has_open t then 1 else 0

let is_full t = unverified_count t >= t.size

let open_region t ~static_id =
  if has_open t then invalid_arg "Rbb.open_region: a region is already open";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.current_seq <- seq;
  t.current_static <- static_id;
  seq

let grow t =
  let cap = Array.length t.seqs in
  let unroll a =
    Array.init (2 * cap) (fun i -> if i < cap then a.((t.head + i) mod cap) else 0)
  in
  t.seqs <- unroll t.seqs;
  t.statics <- unroll t.statics;
  t.verify_at <- unroll t.verify_at;
  t.head <- 0

let close_region t ~end_cycle ~wcdl =
  if not (has_open t) then invalid_arg "Rbb.close_region: no open region";
  if t.pending = Array.length t.seqs then grow t;
  let i = (t.head + t.pending) mod Array.length t.seqs in
  let seq = t.current_seq in
  t.seqs.(i) <- seq;
  t.statics.(i) <- t.current_static;
  t.verify_at.(i) <- end_cycle + wcdl;
  t.pending <- t.pending + 1;
  t.current_seq <- -1;
  seq

let next_verify_time t = if t.pending = 0 then max_int else t.verify_at.(t.head)

let pop t =
  if t.pending = 0 then invalid_arg "Rbb.pop: no closed region";
  let seq = t.seqs.(t.head) in
  t.verified_any <- true;
  t.last_verified_static <- t.statics.(t.head);
  t.head <- (t.head + 1) mod Array.length t.seqs;
  t.pending <- t.pending - 1;
  seq

let last_verified_static t =
  if t.verified_any then Some t.last_verified_static else None
