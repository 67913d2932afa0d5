(* Stage decomposition of traced [run] requests, read from the exemplar
   Chrome traces a daemon started with [--trace-sample 1 --slow-log DIR]
   writes (request -> service.batch -> admission / job / settlement ->
   good_radius / good_center).  No span is added to the daemon: the
   benchmark combines these existing spans with timings it takes from
   outside. *)

open Util

type span = { name : string; cat : string; dur_ms : float; id : int; parent : int option }

let spans_of_file path =
  match Json.parse (Proc.read_file path) with
  | Error _ | (exception Sys_error _) -> ([], Json.Null)
  | Ok j ->
      let events = items [ "traceEvents" ] j in
      let spans =
        List.filter_map
          (fun e ->
            match (str [ "ph" ] e, int [ "args"; "span_id" ] e) with
            | Some "X", Some id ->
                Some
                  {
                    name = Option.value ~default:"" (str [ "name" ] e);
                    cat = Option.value ~default:"" (str [ "cat" ] e);
                    dur_ms = Option.value ~default:0. (num [ "dur" ] e) /. 1e3;
                    id;
                    parent = int [ "args"; "parent" ] e;
                  }
            | _ -> None)
          events
      in
      let root_args =
        List.find_map
          (fun e -> if str [ "cat" ] e = Some "request" then member [ "args" ] e else None)
          events
      in
      (spans, Option.value ~default:Json.Null root_args)

(* One traced request's daemon-side spans, in ms. *)
type request = {
  tenant : string;
  rid : int;
  request_ms : float;  (** The executor's request span. *)
  batch_ms : float;
  admission_ms : float;
  settlement_ms : float;
  longest_job_ms : float;  (** 0 when every job was a cache hit. *)
  radius_ms : float;  (** GoodRadius inside the longest job. *)
  center_ms : float;  (** GoodCenter inside the longest job. *)
  radius_each : float list;  (** Every GoodRadius span of the request. *)
  center_each : float list;
}

let sum_named spans name =
  List.fold_left (fun a s -> if s.name = name then a +. s.dur_ms else a) 0. spans

let of_spans (spans, args) =
  let find p = List.find_opt p spans in
  match (find (fun s -> s.cat = "request"), str [ "tenant" ] args, int [ "rid" ] args) with
  | Some root, Some tenant, Some rid ->
      let child_named p name = find (fun s -> s.parent = Some p.id && s.name = name) in
      let dur = function Some s -> s.dur_ms | None -> 0. in
      let batch = child_named root "service.batch" in
      let under_batch name = Option.bind batch (fun b -> child_named b name) in
      let jobs =
        match batch with
        | None -> []
        | Some b -> List.filter (fun s -> s.cat = "job" && s.parent = Some b.id) spans
      in
      (* Descendants of a span: ids increase in start order and a parent
         sorts before its children. *)
      let subtree top =
        let keep = Hashtbl.create 16 in
        Hashtbl.replace keep top.id ();
        List.filter
          (fun s ->
            match s.parent with
            | Some p when Hashtbl.mem keep p && s.id > top.id ->
                Hashtbl.replace keep s.id ();
                true
            | _ -> false)
          (List.sort (fun a b -> compare a.id b.id) spans)
      in
      let longest =
        List.fold_left
          (fun acc s -> match acc with Some a when a.dur_ms >= s.dur_ms -> acc | _ -> Some s)
          None jobs
      in
      let inside = match longest with Some j -> subtree j | None -> [] in
      let each name = List.filter_map (fun s -> if s.name = name then Some s.dur_ms else None) spans in
      Some
        {
          tenant;
          rid;
          request_ms = root.dur_ms;
          batch_ms = dur batch;
          admission_ms = dur (under_batch "service.admission");
          settlement_ms = dur (under_batch "service.settlement");
          longest_job_ms = dur longest;
          radius_ms = sum_named inside "good_radius";
          center_ms = sum_named inside "good_center";
          radius_each = each "good_radius";
          center_each = each "good_center";
        }
  | _ -> None

let load dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter (fun f -> String.ends_with ~suffix:"-run.trace.json" f)
      |> List.filter_map (fun f -> of_spans (spans_of_file (Filename.concat dir f)))

let pool_overhead_ms r = r.batch_ms -. r.admission_ms -. r.settlement_ms -. r.longest_job_ms

(* The stage table: each part's mean over the matched requests, in ms.
   [matched] pairs a request's client round trip and modelled wire codec
   time with its spans; [queue_wait_ms] is the mean executor queue wait
   of the same requests (the [stats] verb's exact histogram sums).  The
   parts and the residual sum to the mean round trip. *)
let table ~matched ~queue_wait_ms =
  let m f = mean (List.map f matched) in
  let rtt = m (fun (rtt, _, _) -> rtt) in
  let sp f = m (fun (_, _, r) -> f r) in
  let parts =
    [
      ("queue wait (stats verb)", queue_wait_ms);
      ("service.admission (incl. WAL charge fsyncs)", sp (fun r -> r.admission_ms));
      ("  job: good_radius", sp (fun r -> r.radius_ms));
      ("  job: good_center", sp (fun r -> r.center_ms));
      ("  job: rest of the longest job", sp (fun r -> r.longest_job_ms -. r.radius_ms -. r.center_ms));
      ("pool overhead (batch - admission - settlement - longest job)", sp pool_overhead_ms);
      ("service.settlement (incl. WAL cache fsyncs)", sp (fun r -> r.settlement_ms));
      ("daemon request outside the batch", sp (fun r -> r.request_ms -. r.batch_ms));
      ("wire codec (timed outside, at each reply's size)", m (fun (_, codec, _) -> codec));
    ]
  in
  let residual = rtt -. List.fold_left (fun a (_, v) -> a +. v) 0. parts in
  (rtt, parts, residual)
