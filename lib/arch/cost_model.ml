(* Analytic area/energy model reproducing the paper's Table 1 (CACTI,
   22nm). The paper's RAM rows are exactly linear in byte count, and its
   two CAM anchor points (4- and 40-entry store buffers) determine a linear
   per-entry CAM model; both are derived here from the published anchors so
   that the table regenerates from first principles. *)

type cost = { area_um2 : float; energy_pj : float }

(* Anchors from Table 1. *)
let sb4 = { area_um2 = 621.28; energy_pj = 0.43099 }
let sb40 = { area_um2 = 3132.50; energy_pj = 2.11525 }
let color_maps_24b = { area_um2 = 36.651; energy_pj = 0.02518 }

(* CAM: cost = slope * entries + intercept, fit on the two SB anchors. *)
let cam_area_slope = (sb40.area_um2 -. sb4.area_um2) /. 36.0
let cam_area_intercept = sb4.area_um2 -. (cam_area_slope *. 4.0)
let cam_energy_slope = (sb40.energy_pj -. sb4.energy_pj) /. 36.0
let cam_energy_intercept = sb4.energy_pj -. (cam_energy_slope *. 4.0)

(* RAM: cost per byte, from the color-map anchor (24 bytes). *)
let ram_area_per_byte = color_maps_24b.area_um2 /. 24.0
let ram_energy_per_byte = color_maps_24b.energy_pj /. 24.0

let cam ~entries =
  if entries <= 0 then invalid_arg "Cost_model.cam: entries must be positive";
  {
    area_um2 = (cam_area_slope *. float_of_int entries) +. cam_area_intercept;
    energy_pj = (cam_energy_slope *. float_of_int entries) +. cam_energy_intercept;
  }

let ram ~bytes =
  if bytes <= 0 then invalid_arg "Cost_model.ram: bytes must be positive";
  {
    area_um2 = ram_area_per_byte *. float_of_int bytes;
    energy_pj = ram_energy_per_byte *. float_of_int bytes;
  }

let store_buffer ~entries = cam ~entries

let color_map_bytes ?(colors = Turnpike_ir.Layout.colors) ~nregs () =
  (* 3 maps (AC, UC, VC), log2(colors) bits each, per register. *)
  if colors <= 0 then invalid_arg "Cost_model.color_map_bytes: colors must be positive";
  let bits_per_color =
    Int.max 1 (int_of_float (ceil (log (float_of_int colors) /. log 2.0)))
  in
  let bits = 3 * bits_per_color * nregs in
  (bits + 7) / 8

let color_maps ?colors ~nregs () = ram ~bytes:(color_map_bytes ?colors ~nregs ())

let clq_bytes ~entries =
  (* One [min,max] 32-bit address pair per compact-CLQ entry. *)
  entries * 8

let clq ~entries = ram ~bytes:(clq_bytes ~entries)

let dynamic_energy_pj ~sb_entries ?clq_entries ?colors ~nregs (stats : Sim_stats.t) =
  let cam = 2.0 *. float_of_int stats.quarantined *. (store_buffer ~entries:sb_entries).energy_pj in
  let cmap =
    match colors with
    | Some colors ->
      float_of_int stats.colored_released *. (color_maps ~colors ~nregs ()).energy_pj
    | None -> 0.0
  in
  let clq =
    match clq_entries with
    | Some entries ->
      float_of_int (stats.loads + Sim_stats.sb_writes stats) *. (clq ~entries).energy_pj
    | None -> 0.0
  in
  cam +. cmap +. clq

let add a b = { area_um2 = a.area_um2 +. b.area_um2; energy_pj = a.energy_pj +. b.energy_pj }

let turnpike_total ~nregs ~clq_entries = add (color_maps ~nregs ()) (clq ~entries:clq_entries)

let ratio a b =
  { area_um2 = a.area_um2 /. b.area_um2; energy_pj = a.energy_pj /. b.energy_pj }

type table1_row = { label : string; area_um2 : float; energy_pj : float }

let table1 () =
  let sb4 = store_buffer ~entries:4 in
  let cmap = color_maps ~nregs:32 () in
  let clq2 = clq ~entries:2 in
  let total = add cmap clq2 in
  let sb40 = store_buffer ~entries:40 in
  let pct (c : cost) : cost =
    { area_um2 = c.area_um2 *. 100.0; energy_pj = c.energy_pj *. 100.0 }
  in
  let r label (c : cost) = { label; area_um2 = c.area_um2; energy_pj = c.energy_pj } in
  [
    r "4-entry SB (CAM)" sb4;
    r "Color maps in Turnpike (RAM)" cmap;
    r "2-entry CLQ in Turnpike (RAM)" clq2;
    r "Turnpike in total (color maps + 2-entry CLQ)" total;
    r "40-entry SB (CAM)" sb40;
    r "Turnpike in total / 4-entry SB [%]" (pct (ratio total sb4));
    r "40-entry SB / 4-entry SB [%]" (pct (ratio sb40 sb4));
  ]
