(* Single layers timed from outside the daemon, in this process, at the
   state a run ended in: the same points, the same ledger history, the
   same reply size, the same filesystem.  Also the in-process replay
   that the correctness gate compares daemon answers against. *)

open Util

let charge_cost = Prim.Dp.v ~eps:2.0 ~delta:1e-7

(* [Accountant.charge] against a ledger already holding [history]
   charges, in microseconds (median of 51). *)
let charge_us ~history =
  let acct = Engine.Accountant.create ~budget:(Prim.Dp.v ~eps:1e12 ~delta:0.5) () in
  for _ = 1 to history do
    ignore (Engine.Accountant.charge acct charge_cost)
  done;
  let once () = snd (time_ms (fun () -> Engine.Accountant.charge acct charge_cost)) in
  1e3 *. median (List.init 51 (fun _ -> once ()))

(* [Wal.append] with fsync, in a fresh journal in [dir] (median of 21). *)
let wal_append_ms ~dir =
  let path = Filename.concat dir "layer.wal" in
  match Server.Wal.open_ ~sync:true path with
  | Error e -> Proc.fail "open %s: %s" path e
  | Ok w ->
      let op = Server.Wal.Charge { label = "j1"; cost = charge_cost } in
      let r = { Server.Wal.tenant = "t"; dataset = "d"; op } in
      let xs = List.init 21 (fun _ -> snd (time_ms (fun () -> Server.Wal.append w r))) in
      Server.Wal.close w;
      Sys.remove path;
      median xs

(* Reply line bytes, and encode / decode ms of it (median of 11 each). *)
let codec payload =
  let line = Server.Wire.reply_to_line ~rid:2 (Ok payload) in
  let reps f = median (List.init 11 (fun _ -> snd (time_ms f))) in
  let enc = reps (fun () -> ignore (Server.Wire.reply_to_line ~rid:2 (Ok payload))) in
  let dec = reps (fun () -> ignore (Server.Wire.reply_of_line line)) in
  (String.length line, enc, dec)

let grid () = Geometry.Grid.create ~axis_size:256 ~dim:2

(* The points a daemon synthesizes for [register ~seed] (its convention:
   the data RNG is seeded with [seed + 7919]). *)
let points ~n ~seed =
  (Workload.Synth.planted_ball
     (Prim.Rng.create ~seed:(seed + 7919) ())
     ~grid:(grid ()) ~n ~cluster_fraction:0.5 ~cluster_radius:0.05)
    .Workload.Synth.points

let big_budget = Prim.Dp.v ~eps:1e12 ~delta:0.5

type registry = {
  register_ms : float;
  bounds_ms : float;
  append_ms : float;
  retire_ms : float;
  index_bytes : float;
}

(* Re-run sampled daemon requests in-process with [Service.run_batch] on
   the same synthesized points; returns the mismatches.  With
   [~time_layers:true] it also times registration (median of 3), the
   first r_opt-bounds computation, and three append-75 / retire-75
   pairs on the replay dataset. *)
let replay ~n ~seed ~jobs_text ~samples ~time_layers =
  let svc = Engine.Service.create ~domains:2 ~retries:0 ~faults:Engine.Faults.none () in
  let pts = points ~n ~seed in
  let ds, reg0 =
    time_ms (fun () -> Engine.Service.register svc ~name:"d" ~grid:(grid ()) ~budget:big_budget pts)
  in
  let t = max 1 (int_of_float (ceil (0.4 *. float_of_int n))) in
  let _, bounds_ms = time_ms (fun () -> Engine.Registry.r_opt_bounds ds ~t) in
  let specs =
    match Engine.Job.parse ~default_beta:Workload.Harness.default_beta jobs_text with
    | Ok s -> s
    | Error e -> Proc.fail "jobs text: %s" e
  in
  let render r =
    let j = Engine.Job.result_to_json r in
    ( Option.value ~default:"?" (str [ "status" ] j),
      match member [ "output" ] j with Some o -> Json.to_string ~indent:false o | None -> "" )
  in
  let mismatches =
    List.concat_map
      (fun (run_seed, (statuses, outputs)) ->
        let mine = List.map render (Engine.Service.run_batch ~seed:run_seed svc ~dataset:ds specs) in
        if List.map fst mine = statuses && List.map snd mine = outputs then []
        else [ Printf.sprintf "seed %d: daemon answer differs from the in-process replay" run_seed ])
      samples
  in
  let layers =
    if not time_layers then None
    else
      let regs =
        reg0
        :: List.init 2 (fun k ->
               snd
                 (time_ms (fun () ->
                      Engine.Service.register svc ~name:(Printf.sprintf "r%d" k) ~grid:(grid ())
                        ~budget:big_budget pts)))
      in
      let index_bytes =
        float_of_int (Obj.reachable_words (Obj.repr (Engine.Registry.index ds)) * (Sys.word_size / 8))
      in
      let pairs =
        List.init 3 (fun k ->
            let extra =
              (Workload.Synth.planted_ball
                 (Prim.Rng.create ~seed:(seed + k + 1) ())
                 ~grid:(grid ()) ~n:75 ~cluster_fraction:0.5 ~cluster_radius:0.05)
                .Workload.Synth.points
            in
            let _, a = time_ms (fun () -> Engine.Registry.append ds extra) in
            let _, r = time_ms (fun () -> Engine.Registry.retire ds ~from_:0 ~count:75) in
            (a, r))
      in
      Some
        {
          register_ms = median regs;
          bounds_ms;
          append_ms = median (List.map fst pairs);
          retire_ms = median (List.map snd pairs);
          index_bytes;
        }
  in
  (mismatches, layers)
