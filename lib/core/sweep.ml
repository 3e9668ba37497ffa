(* First-class sweep axes over the Parallel grid engine. An axis names a
   configuration knob and carries its candidate values in sweep order;
   grid evaluation submits the whole (item × value) product to the domain
   pool as one flat task list, so rows are identical at any --jobs. *)

type 'a axis = { name : string; show : 'a -> string; values : 'a list }

let axis ~name ~show values =
  if values = [] then
    invalid_arg (Printf.sprintf "Sweep.axis %s: empty value list" name);
  { name; show; values }

let ints ~name values = axis ~name ~show:string_of_int values

let names a = List.map a.show a.values

let cross a b =
  axis
    ~name:(a.name ^ "×" ^ b.name)
    ~show:(fun (x, y) -> a.show x ^ "," ^ b.show y)
    (List.concat_map (fun x -> List.map (fun y -> (x, y)) b.values) a.values)

let grid ?jobs ~items ~axis f =
  Turnpike_parallel.grid ?jobs ~items ~configs:axis.values f

let rows ~items ~axis ~row f =
  List.map (fun (item, results) -> row item results) (grid ~items ~axis f)
