(* One value over both core models, so the design-space explorer can
   treat {in-order, out-of-order} as just another sweep axis. *)

type t = In_order of Machine.t | Out_of_order of Ooo_timing.config

let name = function
  | In_order m -> m.Machine.name
  | Out_of_order c ->
    Printf.sprintf "ooo-rob%d-sb%d%s" c.Ooo_timing.rob_size c.Ooo_timing.sb_size
      (if c.Ooo_timing.verification then Printf.sprintf "-dl%d" c.Ooo_timing.wcdl
       else "")

let sb_size = function
  | In_order m -> m.Machine.sb_size
  | Out_of_order c -> c.Ooo_timing.sb_size

let simulate t trace =
  match t with
  | In_order m -> Timing.simulate m trace
  | Out_of_order c -> Ooo_timing.simulate c trace
