(* Static ACE/AVF estimate. See the .mli for the model; the shape of the
   output deliberately mirrors [Forensics]' dynamic tables so the two
   rankings are comparable key-for-key:

     by_site     "block:index"     <-> strike pc of each injected fault
     by_register "rN"              <-> struck register
     by_region   "id"              <-> region open at the strike

   Everything is derived from the context's memoized analyses plus one
   private loop-nesting pass, so a [compute] costs roughly one liveness
   fixpoint — cheap enough for the explorer to score a whole design grid
   before any simulation. *)

open Turnpike_ir

let name = "vuln"
let loop_weight = 8.0

(* A fault escapes detection when it propagates out of its region before
   the detector fires; longer regions give the (WCDL-delayed) detector
   more slack, so escape falls as mass/WCDL grows (paper Fig. 4). *)
let base_escape = 0.01

(* Weighted mass feeding a claimed verification-bypassable store is a
   direct SDC path when the claim is wrong; keep the charge small but
   visible so bogus claims move their sites up the ranking. *)
let bypass_factor = 0.05

(* An uncovered region live-in makes every rollback of that region
   restore a stale value: charge the full region mass once per gap. *)
let gap_factor = 1.0

type row = { key : string; exposure : float; score : float }
type table = row list

type window = {
  w_block : string;
  w_index : int;
  w_reg : Reg.t;
  w_region : int;
  w_length : float;
  w_bypass : float;
}

type t = {
  windows : window list;
  by_site : table;
  by_register : table;
  by_region : table;
  gaps : (int * string * Reg.t) list;
  total_mass : float;
  predicted_avf : float;
  wcdl : int;
}

let empty =
  {
    windows = [];
    by_site = [];
    by_register = [];
    by_region = [];
    gaps = [];
    total_mass = 0.0;
    predicted_avf = 0.0;
    wcdl = 0;
  }

let rank rows =
  List.sort
    (fun a b ->
      let c = compare b.score a.score in
      if c <> 0 then c
      else
        let c = compare b.exposure a.exposure in
        if c <> 0 then c else Rank.key_compare a.key b.key)
    rows

(* Loop-weighted positions of one block: every body slot plus the
   terminator slot, each weighing loop_weight^depth. *)
let block_mass func depth label =
  let b = Func.block func label in
  (loop_weight ** float_of_int (depth label))
  *. float_of_int (Block.num_instrs b + 1)

let compute (ctx : Context.t) =
  let func = ctx.Context.func in
  let rv = Context.regions ctx in
  if not rv.Regions_view.has_regions then empty
  else begin
    let cfg = Context.cfg ctx in
    let live = Context.liveness ctx in
    let loops = Context.loops ctx in
    let wcdl = max 1 (Option.value ctx.Context.wcdl ~default:10) in
    let labels = Cfg.reverse_postorder cfg in
    let depth = Loop_info.depth loops in
    let weight l = loop_weight ** float_of_int (depth l) in
    let nregs = float_of_int (max 1 ctx.Context.nregs) in
    let region_of l = Regions_view.region_of_block rv l in
    (* live-before-each is the per-position ACE set; memoize per block *)
    let slots_tbl : (string, Reg.Set.t array) Hashtbl.t = Hashtbl.create 16 in
    let slots_of l =
      match Hashtbl.find_opt slots_tbl l with
      | Some s -> s
      | None ->
        let s = Liveness.live_before_each live (Func.block func l) in
        Hashtbl.replace slots_tbl l s;
        s
    in
    (* region masses and the function total *)
    let region_mass : (int, float) Hashtbl.t = Hashtbl.create 16 in
    let total_mass = ref 0.0 in
    List.iter
      (fun l ->
        let m = block_mass func depth l in
        total_mass := !total_mass +. m;
        match region_of l with
        | Some id ->
          Hashtbl.replace region_mass id
            (m +. Option.value (Hashtbl.find_opt region_mass id) ~default:0.0)
        | None -> ())
      labels;
    let mass_of rid = Option.value (Hashtbl.find_opt region_mass rid) ~default:0.0 in
    (* coverage gaps: each one leaves its region's rollback unsound *)
    let gaps = Recoverability.uncovered_live_ins ctx in
    let gap_count rid =
      List.length (List.filter (fun (id, _, _) -> id = rid) gaps)
    in
    let escape rid =
      base_escape *. float_of_int wcdl /. (float_of_int wcdl +. mass_of rid)
    in
    let multiplier = function
      | Some rid -> escape rid +. (gap_factor *. float_of_int (gap_count rid))
      | None -> base_escape (* outside every region: no rollback at all *)
    in
    (* ---- per-site table: weighted ACE fraction at each position ---- *)
    let by_site =
      List.concat_map
        (fun l ->
          let slots = slots_of l in
          let w = weight l and m = multiplier (region_of l) in
          List.init (Array.length slots) (fun i ->
              let s = slots.(i) in
              let live = Reg.Set.cardinal s - if Reg.Set.mem Reg.zero s then 1 else 0 in
              let ace = float_of_int live /. nregs in
              {
                key = l ^ ":" ^ string_of_int i;
                exposure = w;
                score = w *. ace *. m;
              }))
        labels
    in
    (* ---- per-def windows: def -> last use, across block boundaries ---- *)
    let bypass_tbl : (string * int, unit) Hashtbl.t = Hashtbl.create 16 in
    (match ctx.Context.claims with
    | Some c ->
      List.iter
        (fun site -> Hashtbl.replace bypass_tbl site ())
        c.Context.bypass_stores
    | None -> ());
    let visited : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    let walk_def l0 i0 d =
      let mass = ref 0.0 and bypass = ref 0.0 in
      Hashtbl.clear visited;
      Hashtbl.replace visited l0 ();
      let rec block_from l j =
        let b = Func.block func l in
        let slots = slots_of l in
        let n = Block.num_instrs b in
        let w = weight l in
        let j = ref j and continue = ref true and fell_through = ref false in
        while !continue do
          if !j > n then begin
            continue := false;
            fell_through := true
          end
          else if not (Reg.Set.mem d slots.(!j)) then continue := false
          else begin
            mass := !mass +. w;
            if !j < n then begin
              let ins = b.Block.body.(!j) in
              if
                Hashtbl.mem bypass_tbl (l, !j)
                && List.exists (Reg.equal d) (Instr.uses ins)
              then bypass := !bypass +. w;
              let redefines = ref false in
              Instr.iter_defs (fun r -> if Reg.equal r d then redefines := true) ins;
              if !redefines then continue := false else incr j
            end
            else incr j
          end
        done;
        if !fell_through && Reg.Set.mem d (Liveness.live_out live l) then
          List.iter
            (fun s ->
              if
                (not (Hashtbl.mem visited s))
                && Reg.Set.mem d (Liveness.live_in live s)
              then begin
                Hashtbl.replace visited s ();
                block_from s 0
              end)
            (Cfg.successors cfg l)
      in
      block_from l0 (i0 + 1);
      (!mass, !bypass)
    in
    let windows =
      List.concat_map
        (fun l ->
          let b = Func.block func l in
          let rid = Option.value (region_of l) ~default:(-1) in
          List.concat
            (List.mapi
               (fun i ins ->
                 List.filter_map
                   (fun d ->
                     if Reg.is_zero d then None
                     else
                       let len, byp = walk_def l i d in
                       Some
                         {
                           w_block = l;
                           w_index = i;
                           w_reg = d;
                           w_region = rid;
                           w_length = len;
                           w_bypass = byp;
                         })
                   (List.sort_uniq Reg.compare (Instr.defs ins)))
               (Array.to_list b.Block.body)))
        labels
    in
    (* ---- per-register table: window mass under the region multiplier,
       plus the full region mass for each coverage gap the register
       causes (a stale restore strikes every use in the region) ---- *)
    let reg_rows : (Reg.t, float * float) Hashtbl.t = Hashtbl.create 16 in
    let add_reg r exp sc =
      let e0, s0 = Option.value (Hashtbl.find_opt reg_rows r) ~default:(0.0, 0.0) in
      Hashtbl.replace reg_rows r (e0 +. exp, s0 +. sc)
    in
    List.iter
      (fun w ->
        let m =
          multiplier (if w.w_region < 0 then None else Some w.w_region)
        in
        add_reg w.w_reg w.w_length
          ((w.w_length *. m) +. (w.w_bypass *. bypass_factor)))
      windows;
    List.iter (fun (rid, _, r) -> add_reg r 0.0 (gap_factor *. mass_of rid)) gaps;
    let by_register =
      Hashtbl.fold
        (fun r (exposure, score) acc ->
          { key = Reg.to_string r; exposure; score } :: acc)
        reg_rows []
    in
    (* ---- per-region table ---- *)
    let by_region =
      List.map
        (fun { Regions_view.id; _ } ->
          let m = mass_of id in
          {
            key = string_of_int id;
            exposure = m;
            score = m *. multiplier (Some id);
          })
        rv.Regions_view.regions
    in
    let region_score_sum =
      List.fold_left (fun acc r -> acc +. r.score) 0.0 by_region
    in
    {
      windows;
      by_site = rank by_site;
      by_register = rank by_register;
      by_region = rank by_region;
      gaps;
      total_mass = !total_mass;
      predicted_avf =
        (if !total_mass > 0.0 then region_score_sum /. !total_mass else 0.0);
      wcdl;
    }
  end

(* The registry entry point only needs the gap list — skip the table
   construction so per-pass incremental lint pays at most one coverage
   fixpoint (shared with recoverability through the context), not a
   full window walk, each time a pass dirties the read set. *)
let check (ctx : Context.t) =
  let gaps =
    if (Context.regions ctx).Regions_view.has_regions then
      Recoverability.uncovered_live_ins ctx
    else []
  in
  List.map
    (fun (rid, head, r) ->
      Diag.make ~check:name ~severity:Diag.Warn ~func:ctx.Context.func.Func.name
        ~block:head
        (Printf.sprintf
           "vulnerability window never closes: %s is live into region %d without checkpoint coverage, so every rollback of the region restores a stale value"
           (Reg.to_string r) rid))
    gaps

(* ------------------------------ JSON ------------------------------ *)

let f = Printf.sprintf "%.6f"

let table_to_json rows =
  "["
  ^ String.concat ","
      (List.map
         (fun r ->
           Printf.sprintf "{\"key\":\"%s\",\"exposure\":%s,\"score\":%s}"
             (Diag.json_escape r.key) (f r.exposure) (f r.score))
         rows)
  ^ "]"

let to_json t =
  Printf.sprintf
    "{\"wcdl\":%d,\"total_mass\":%s,\"predicted_avf\":%s,\"gaps\":[%s],\"by_site\":%s,\"by_register\":%s,\"by_region\":%s}"
    t.wcdl (f t.total_mass) (f t.predicted_avf)
    (String.concat ","
       (List.map
          (fun (rid, head, r) ->
            Printf.sprintf "{\"region\":%d,\"head\":\"%s\",\"reg\":\"%s\"}" rid
              (Diag.json_escape head)
              (Diag.json_escape (Reg.to_string r)))
          t.gaps))
    (table_to_json t.by_site)
    (table_to_json t.by_register)
    (table_to_json t.by_region)
