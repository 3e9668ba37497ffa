(* Analytic acoustic-sensor model (paper Fig 18). Sensors perceive the
   sound wave of a particle strike; the worst-case detection latency (WCDL)
   is the time for the wave to reach the nearest sensor, in core clock
   cycles. For [n] sensors uniformly deployed on a die of area [a] mm²,
   the worst-case distance to a sensor scales as sqrt(a / n); dividing by
   the wave propagation speed and multiplying by the clock frequency gives
   the WCDL. The constant is calibrated on the paper's anchor: 300 sensors
   on 1mm² at 2.5GHz give a 10-cycle WCDL (and 30 sensors roughly 30
   cycles). *)

type t = {
  num_sensors : int;
  clock_ghz : float;
  die_area_mm2 : float;
}

let calibration_constant =
  (* wcdl = k * f / sqrt(n/a); anchored at wcdl=10, f=2.5, n=300, a=1. *)
  10.0 *. sqrt 300.0 /. 2.5

let create ?(die_area_mm2 = 1.0) ~num_sensors ~clock_ghz () =
  if num_sensors <= 0 then invalid_arg "Sensor.create: num_sensors must be positive";
  if clock_ghz <= 0.0 then invalid_arg "Sensor.create: clock_ghz must be positive";
  { num_sensors; clock_ghz; die_area_mm2 }

let wcdl t =
  let density = float_of_int t.num_sensors /. t.die_area_mm2 in
  let cycles = calibration_constant *. t.clock_ghz /. sqrt density in
  Int.max 1 (int_of_float (Float.round cycles))

let sensors_for ~wcdl:target ~clock_ghz ?(die_area_mm2 = 1.0) () =
  if target <= 0 then invalid_arg "Sensor.sensors_for: wcdl must be positive";
  let n =
    die_area_mm2 *. ((calibration_constant *. clock_ghz /. float_of_int target) ** 2.0)
  in
  Int.max 1 (int_of_float (ceil n))

let for_wcdl ?(die_area_mm2 = 1.0) ~wcdl:target ~clock_ghz () =
  let num_sensors = sensors_for ~wcdl:target ~clock_ghz ~die_area_mm2 () in
  create ~die_area_mm2 ~num_sensors ~clock_ghz ()

let to_json t =
  Printf.sprintf
    {|{"num_sensors": %d, "clock_ghz": %.6g, "die_area_mm2": %.6g, "wcdl": %d, "area_overhead_percent": %.6g}|}
    t.num_sensors t.clock_ghz t.die_area_mm2 (wcdl t)
    (float_of_int t.num_sensors /. 300.0 *. 1.0)

let area_overhead_percent t =
  (* Paper: ~300 sensors cost about 1% of die area; cost scales linearly
     with the sensor count. *)
  float_of_int t.num_sensors /. 300.0 *. 1.0

(* Deterministic splitmix-style generator for detection-latency sampling:
   an error is detected some number of cycles after occurrence, uniform in
   [1, wcdl] (the WCDL is the worst case). *)
let sample_detection_latency t ~seed =
  let z = ref (seed * 0x2545F4914F6CDD1D) in
  z := !z lxor (!z lsr 30);
  z := !z * 0x27D4EB2F165667C5;
  z := !z lxor (!z lsr 27);
  let r = !z land max_int in
  1 + (r mod wcdl t)
