module Json = Engine.Json

let time_ms f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  (r, Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t0))

(* Linear interpolation between closest ranks (the numpy default). *)
let percentile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  match Array.length a with
  | 0 -> Float.nan
  | n ->
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      let j = min (n - 1) (i + 1) in
      a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median xs = percentile xs 0.5

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let member path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let str path j = Option.bind (member path j) Json.to_str
let num path j = Option.bind (member path j) Json.to_float
let int path j = Option.bind (member path j) Json.to_int
let items path j = Option.value ~default:[] (Option.bind (member path j) Json.to_list)
