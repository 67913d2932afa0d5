(* End-to-end benchmark of privclusterd, the resident daemon serving the
   paper's 1-cluster pipeline (GoodRadius then GoodCenter).

   The daemon runs in its own process with the [serve] defaults (2 worker
   domains, WAL fsync on, WAL on the filesystem of the working
   directory); this process drives it over the Unix socket through
   [Server.Client] with at most two connections.  Every run starts fresh
   daemons and WALs, and performs a fixed count of operations derived
   from [--seconds] alone, so two commits always do identical work even
   though per-request cost grows with ledger history.

   Workloads (see [workloads] in BENCHMARK.json for the one-line reasons):
   - solve-warm: dense index (n = 1500, d = 2), one closed-loop
     connection, 4-job runs, one request in four re-sent for the cache;
   - solve-tree: k-d tree backend (n = 5000 > dense threshold), one
     closed-loop connection, 2-job runs;
   - ingest-mixed: a closed-loop writer (append 75, retire the oldest 75,
     run 1 job) beside an open-loop reader of 2-job runs on its own
     dataset.

   [--trace 0] prints the end-to-end metrics, [--trace 1] the per-layer
   ones, which adds a second, traced daemon run and timings of single
   layers taken from outside the daemon.  Every run checks the answers;
   the last stdout line is the JSON result, and a failed check exits 1. *)

open Util
module C = Server.Client

let workload = ref ""
let seed = ref (-1)
let seconds = ref 0
let trace = ref (-1)
let cli = ref ""

(* Scratch root for each run's WALs, sockets and daemon logs, under the
   directory the benchmark runs in. *)
let work = ".daemonbench"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME solve-warm | solve-tree | ingest-mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S nominal measured seconds (sets the op counts)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--cli", Arg.Set_string cli, "PATH the privcluster_cli executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload W --seed N --seconds S --trace 0|1 --cli PATH"

(* {1 Correctness and op accounting} *)

let problems = ref []
let problems_mu = Mutex.create ()

let problem fmt =
  Printf.ksprintf
    (fun m -> Mutex.protect problems_mu (fun () -> problems := m :: !problems))
    fmt

let attempted = Atomic.make 0
let failed = Atomic.make 0

(* {1 Connections} *)

(* A connection that mirrors the client's wire ids (hello is 1), so a
   traced request can be matched to its exemplar by (tenant, rid). *)
type conn = { c : C.t; tenant : string; mutable next_rid : int }

let connect (d : Proc.daemon) tenant =
  match C.connect d.Proc.listen ~tenant ~token:tenant with
  | Ok c -> { c; tenant; next_rid = 2 }
  | Error f -> Proc.fail "connect as %s: %s" tenant (C.fail_message f)

let send conn f =
  let rid = conn.next_rid in
  conn.next_rid <- rid + 1;
  let r, ms = time_ms (fun () -> f conn.c) in
  (rid, r, ms)

let control conn what f =
  match send conn f with
  | _, Ok v, _ -> v
  | _, Error e, _ -> Proc.fail "%s: %s" what (C.fail_message e)

(* {1 Requests} *)

let job_eps = 2.0
let job_delta = 1e-7

let jobs_text k =
  String.concat ""
    (List.init k (fun i ->
         Printf.sprintf "one_cluster t_fraction=0.4 eps=%g delta=%g id=j%d\n" job_eps job_delta
           (i + 1)))

type answer = {
  statuses : string list;
  attempts : int list;
  outputs : string list;  (** Each job's [output] as rendered on the wire. *)
  spent_eps : float;
}

let answer_of payload =
  let results = items [ "results" ] payload in
  {
    statuses = List.map (fun r -> Option.value ~default:"?" (str [ "status" ] r)) results;
    attempts = List.map (fun r -> Option.value ~default:(-1) (int [ "attempts" ] r)) results;
    outputs =
      List.map
        (fun r ->
          match member [ "output" ] r with Some o -> Json.to_string ~indent:false o | None -> "")
        results;
    spent_eps = Option.value ~default:Float.nan (num [ "ledger"; "spent"; "eps" ] payload);
  }

type run = {
  tenant : string;
  rid : int;
  seed : int;
  rtt_ms : float;  (** Send to reply. *)
  latency_ms : float;  (** Due to reply: equals [rtt_ms] in a closed loop. *)
  reply_bytes : int;  (** Measured in traced rounds only (0 otherwise). *)
  answer : answer option;
}

(* Traced rounds re-encode each reply, outside the timed interval, to
   model its wire codec cost. *)
let measure_sizes = ref false

let all_ok a = a.statuses <> [] && List.for_all (( = ) "ok") a.statuses

(* One [run] request: counted as failed on a transport or protocol error
   or any job whose status is not ok. *)
let run_op ?due conn ~jobs ~seed =
  let sent = Proc.now_s () in
  let due = Option.value ~default:sent due in
  let rid, r, rtt_ms = send conn (fun c -> C.run c ~dataset:"d" ~seed ~jobs:(jobs_text jobs) ()) in
  let latency_ms = ((sent -. due) *. 1e3) +. rtt_ms in
  Atomic.incr attempted;
  let answer, payload =
    match r with
    | Ok p -> (Some (answer_of p), Some p)
    | Error e ->
        problem "run (tenant %s, seed %d): %s" conn.tenant seed (C.fail_message e);
        (None, None)
  in
  (match answer with
  | Some a when all_ok a && List.length a.statuses = jobs -> ()
  | Some a ->
      Atomic.incr failed;
      problem "run (tenant %s, seed %d): job statuses %s, want %d x ok" conn.tenant seed
        (String.concat "," a.statuses) jobs
  | None -> Atomic.incr failed);
  let reply_bytes =
    match payload with
    | Some p when !measure_sizes -> String.length (Server.Wire.reply_to_line ~rid (Ok p))
    | _ -> 0
  in
  ({ tenant = conn.tenant; rid; seed; rtt_ms; latency_ms; reply_bytes; answer }, payload)

(* A mutation; its failure is counted and recorded as a problem. *)
let mutation conn what f =
  Atomic.incr attempted;
  match send conn f with
  | _, Ok _, ms -> ms
  | _, Error e, ms ->
      Atomic.incr failed;
      problem "%s: %s" what (C.fail_message e);
      ms

let append_n = 75

(* One writer cycle: append [append_n] synthetic points, retire the
   oldest [append_n], then a 1-job run on the new epoch.  Its summed
   round trips are one [write_p50_ms] sample: the cost of ingesting and
   then querying again. *)
let writer_cycle conn ~mseed ~rseed =
  let a = mutation conn "append" (fun c -> C.append c ~dataset:"d" ~n:append_n ~seed:mseed ()) in
  let r = mutation conn "retire" (fun c -> C.retire c ~dataset:"d" ~from_:0 ~count:append_n) in
  let run, _ = run_op conn ~jobs:1 ~seed:rseed in
  (a +. r +. run.rtt_ms, run)

(* {1 Workloads} *)

type spec = {
  name : string;
  n : int;  (** Points per dataset (planted ball, d = 2, axis 256). *)
  jobs : int;  (** Jobs per query. *)
  tenants : string list;  (** One dataset ["d"] per tenant, one connection each. *)
  rounds : int;
      (** Measured rounds, each a fresh daemon doing the same ops; rounds
          that lost much CPU to hypervisor steal are dropped (see [calm]). *)
  setups : int;  (** Set-ups timed for [setup_s]; the last [rounds] go on to measure. *)
  queries_per_s : float;  (** Queries per nominal second, over all rounds. *)
  cycles_per_s : float;  (** Writer cycles per nominal second (ingest-mixed). *)
  probes : int;  (** Writer cycles after each round's query phase (solve workloads). *)
  replays : int;  (** Daemon answers re-run in-process by the correctness gate. *)
}

let spec_of = function
  | "solve-warm" ->
      { name = "solve-warm"; n = 1500; jobs = 4; tenants = [ "warm" ]; rounds = 6; setups = 6;
        queries_per_s = 75.; cycles_per_s = 0.; probes = 3; replays = 4 }
  | "solve-tree" ->
      { name = "solve-tree"; n = 5000; jobs = 2; tenants = [ "tree" ]; rounds = 3; setups = 3;
        queries_per_s = 1.5; cycles_per_s = 0.; probes = 2; replays = 2 }
  | "ingest-mixed" ->
      { name = "ingest-mixed"; n = 1500; jobs = 2; tenants = [ "writer"; "reader" ]; rounds = 4;
        setups = 5; queries_per_s = 5.; cycles_per_s = 6.; probes = 0; replays = 4 }
  | w -> Proc.fail "unknown workload %S (solve-warm | solve-tree | ingest-mixed)" w


(* Per-round op counts: a function of [--seconds] only. *)
let per_round spec per_s =
  max 1 (int_of_float (Float.round (per_s *. float_of_int !seconds /. float_of_int spec.rounds)))

let round_seconds spec = float_of_int !seconds /. float_of_int spec.rounds

(* The datasets are fixed fixtures (B11 registers seed 99); [--seed]
   varies the queries and the appended points. *)
let data_seed tenant_index = 99 + tenant_index
let fresh_base = ref 0

let fresh_seed () =
  incr fresh_base;
  (!seed * 1_000_000) + !fresh_base

(* Enough budget for every charge of a round, so nothing is refused. *)
let budget_for spec =
  let runs = per_round spec spec.queries_per_s + per_round spec spec.cycles_per_s + spec.probes + 8 in
  let jobs = float_of_int (runs * spec.jobs) in
  Prim.Dp.v ~eps:((job_eps *. jobs) +. 1.) ~delta:((job_delta *. jobs) +. 1e-6)

type live = {
  d : Proc.daemon;
  conns : conn list;  (** In [spec.tenants] order. *)
  charged : int array;  (** Per tenant: jobs charged so far. *)
  mutable runs_sent : int;
}

let dir_counter = ref 0

(* Spawn a daemon, register every tenant's dataset and answer one warm-up
   run per tenant: what a deployment pays before it serves.  Returns the
   daemon, the set-up's seconds and the CPU steal over it. *)
let setup spec ~root ~traced =
  let t0 = Proc.now_s () and mark = Proc.steal_ticks () in
  incr dir_counter;
  let d =
    Proc.spawn ~cli:!cli
      ~dir:(Filename.concat root (Printf.sprintf "d%d" !dir_counter))
      ~tenants:(List.map (fun t -> (t, t)) spec.tenants)
      ~traced
  in
  let conns = List.map (connect d) spec.tenants in
  List.iteri
    (fun i conn ->
      ignore
        (control conn "register" (fun c ->
             C.register c ~dataset:"d" ~n:spec.n ~dim:2 ~axis:256 ~frac:0.5 ~radius:0.05
               ~seed:(data_seed i) ~budget:(budget_for spec) ())))
    conns;
  let l = { d; conns; charged = Array.make (List.length conns) 0; runs_sent = 0 } in
  List.iteri
    (fun i conn ->
      ignore (run_op conn ~jobs:spec.jobs ~seed:((!seed * 1_000_000) + 900_000 + i));
      l.runs_sent <- l.runs_sent + 1;
      l.charged.(i) <- l.charged.(i) + spec.jobs)
    conns;
  (l, Proc.now_s () -. t0, Proc.steal_pct_since mark)

type phase = {
  queries : run list;  (** What [query_*] is computed over, in send order. *)
  writer_runs : run list;
  writes_ms : float list;  (** Writer cycles ({!writer_cycle}). *)
  lateness_ms : float list;  (** Open-loop generator: send time minus due time. *)
  wall_s : float;
  cpu_ms : float;  (** Daemon utime+stime over the phase. *)
  rss_mb : float;  (** Median of [rss_samples]. *)
  last_payload : Json.t option;  (** The last query reply: the largest ledger. *)
}

(* The daemon's VmRSS, sampled after every closed-loop query or writer
   cycle: tied to the work done, not to wall time, which steal stretches. *)
let rss_samples = ref []
let sample_rss l = rss_samples := Proc.status_mb l.d.Proc.pid "VmRSS:" :: !rss_samples

(* Closed loop on one connection.  With [resend_every = Some k], every
   k-th query re-sends the seed of an earlier fresh query (picked by a
   seeded RNG): it must come back from the result cache with the
   identical answer, [attempts = 0], and [spent] unchanged. *)
let closed_loop spec l ~resend_every =
  let conn = List.hd l.conns in
  let rng = Random.State.make [| !seed; 7 |] in
  let n_req = per_round spec spec.queries_per_s in
  let fresh = Array.make n_req (0, None) and n_fresh = ref 0 in
  let last = ref None and prev_spent = ref Float.nan in
  let runs =
    List.init n_req (fun i ->
        let resend =
          match resend_every with
          | Some k when (i + 1) mod k = 0 && !n_fresh > 0 ->
              Some fresh.(Random.State.int rng !n_fresh)
          | _ -> None
        in
        let seed = match resend with Some (s, _) -> s | None -> fresh_seed () in
        let r, payload = run_op conn ~jobs:spec.jobs ~seed in
        l.runs_sent <- l.runs_sent + 1;
        if payload <> None then last := payload;
        (match (resend, r.answer) with
        | None, Some a ->
            fresh.(!n_fresh) <- (seed, Some a);
            incr n_fresh;
            l.charged.(0) <- l.charged.(0) + spec.jobs;
            if List.exists (fun x -> x < 1) a.attempts then
              problem "fresh seed %d answered with attempts = 0" seed
        | Some (_, Some orig), Some a ->
            if a.outputs <> orig.outputs || not (all_ok a) then
              problem "cache re-send of seed %d: answer differs from the original" seed;
            if List.exists (( <> ) 0) a.attempts then
              problem "cache re-send of seed %d: attempts %s, want all 0" seed
                (String.concat "," (List.map string_of_int a.attempts));
            if a.spent_eps <> !prev_spent then
              problem "cache re-send of seed %d: spent moved %.17g -> %.17g" seed !prev_spent
                a.spent_eps
        | _ -> ());
        Option.iter (fun a -> prev_spent := a.spent_eps) r.answer;
        sample_rss l;
        r)
  in
  (runs, !last)

(* The open-loop reader (its own thread and connection, each query timed
   from when it was due) beside the closed-loop writer.  Query k is due
   at a seeded uniformly random instant of the k-th slot of a fixed
   schedule: a strictly periodic schedule phase-locks onto the writer's
   cycle (its p50 swung by a third between identical rounds), and Poisson
   arrivals queue the reader behind its own bursts. *)
let mixed_loops spec l =
  let writer = List.nth l.conns 0 and reader = List.nth l.conns 1 in
  let n_read = per_round spec spec.queries_per_s and cycles = per_round spec spec.cycles_per_s in
  let slot = round_seconds spec /. float_of_int n_read in
  let jitter = Random.State.make [| !seed; 13 |] in
  let reader_seeds = List.init n_read (fun _ -> fresh_seed ()) in
  let writer_seeds = List.init cycles (fun _ -> (fresh_seed (), fresh_seed ())) in
  let t0 = Proc.now_s () +. 0.01 in
  let dues =
    List.init n_read (fun k -> t0 +. ((float_of_int k +. Random.State.float jitter 1.) *. slot))
  in
  let reads = ref [] and lateness = ref [] and last = ref None in
  let read_loop () =
    List.iter2
      (fun due seed ->
        let now = Proc.now_s () in
        if now < due then Unix.sleepf (due -. now);
        lateness := ((Proc.now_s () -. due) *. 1e3) :: !lateness;
        let r, payload = run_op ~due reader ~jobs:spec.jobs ~seed in
        if payload <> None then last := payload;
        reads := r :: !reads)
      dues reader_seeds
  in
  let writes = ref [] and wruns = ref [] in
  let write_loop () =
    List.iter
      (fun (mseed, rseed) ->
        let ms, run = writer_cycle writer ~mseed ~rseed in
        writes := ms :: !writes;
        wruns := run :: !wruns;
        sample_rss l)
      writer_seeds
  in
  let th = Thread.create read_loop () in
  write_loop ();
  Thread.join th;
  l.runs_sent <- l.runs_sent + n_read + cycles;
  l.charged.(0) <- l.charged.(0) + cycles;
  l.charged.(1) <- l.charged.(1) + (n_read * spec.jobs);
  (List.rev !reads, List.rev !wruns, List.rev !writes, List.rev !lateness, !last)

let measure spec l =
  fresh_base := 0;
  let pid = l.d.Proc.pid in
  let cpu0 = Proc.cpu_ms pid in
  rss_samples := [];
  let t0 = Proc.now_s () in
  let queries, writer_runs, writes_ms, lateness_ms, last_payload =
    match spec.name with
    | "ingest-mixed" -> mixed_loops spec l
    | _ ->
        let resend_every = if spec.name = "solve-warm" then Some 4 else None in
        let runs, last = closed_loop spec l ~resend_every in
        (runs, [], [], [], last)
  in
  let wall_s = Proc.now_s () -. t0 in
  let cpu_ms = Proc.cpu_ms pid -. cpu0 in
  { queries; writer_runs; writes_ms; lateness_ms; wall_s; cpu_ms; rss_mb = median !rss_samples; last_payload }

(* {1 Daemon-side counters} *)

(* The [run] verb's queue-wait histogram from the [stats] verb:
   (count, sum_ns, buckets as (upper bound ns, count)). *)
let run_waits conn =
  let st = control conn "stats" (fun c -> C.stats c) in
  match List.find_opt (fun w -> str [ "verb" ] w = Some "run") (items [ "queue_wait" ] st) with
  | None -> (0, 0, [])
  | Some w ->
      ( Option.value ~default:0 (int [ "count" ] w),
        Option.value ~default:0 (int [ "sum_ns" ] w),
        List.filter_map
          (fun b ->
            match Json.to_list b with
            | Some [ le; c ] -> (
                match (Json.to_int le, Json.to_int c) with
                | Some le, Some c -> Some (le, c)
                | _ -> None)
            | _ -> None)
          (items [ "buckets_ns" ] w) )

let waits_delta (c0, s0, b0) (c1, s1, b1) =
  let before le = Option.value ~default:0 (List.assoc_opt le b0) in
  (c1 - c0, s1 - s0, List.map (fun (le, c) -> (le, c - before le)) b1)

(* Quantile of a bucketed histogram in ms, interpolating inside the
   bucket (the overflow bucket is clamped to the one below it). *)
let bucket_quantile buckets q =
  let total = List.fold_left (fun a (_, c) -> a + c) 0 buckets in
  if total = 0 then 0.
  else
    let target = q *. float_of_int total in
    let rec go lo cum = function
      | [] -> lo
      | (le, c) :: rest ->
          let hi = if le = max_int then lo else float_of_int le in
          let cum' = cum + c in
          if float_of_int cum' >= target && c > 0 then
            lo +. ((hi -. lo) *. (target -. float_of_int cum) /. float_of_int c)
          else go hi cum' rest
    in
    go 0. 0 (List.sort compare buckets) /. 1e6

(* Result-cache hits and misses of dataset "d", from the [metrics] text. *)
let cache_counts conn =
  let text = control conn "metrics" (fun c -> C.metrics c) in
  let prefix = "privcluster_result_cache_total{" in
  let value event =
    let tag = Printf.sprintf "event=\"%s\"" event in
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.index_opt line '}' with
           | Some i when String.starts_with ~prefix line ->
               let p = String.length prefix in
               if List.mem tag (String.split_on_char ',' (String.sub line p (i - p))) then
                 let rest = String.sub line (i + 1) (String.length line - i - 1) in
                 float_of_string_opt (String.trim rest)
               else None
           | _ -> None)
    |> Option.value ~default:0.
  in
  (value "hit", value "miss")

(* {1 Rounds} *)

type round = {
  setup_s : float;
  setup_steal_pct : float;
  ph : phase;
  executed_jobs : int;  (** Jobs that ran (attempts > 0); cache hits did not. *)
  completed_jobs : int;  (** Jobs answered ok, cache hits included. *)
  hwm_mb : float;
  steal_pct : float;  (** Machine-wide CPU steal over the phase and the write probes. *)
  wal_records : int;
  runs_sent : int;
  waits : int * int * (int * int) list;  (** Queue-wait delta over the phase. *)
  cache : float * float;  (** Result-cache hits, misses. *)
  charges_at_end : int;  (** Ledger entries of the first tenant's dataset. *)
  exemplars : Stages.request list;  (** Traced rounds only. *)
  answers : (string * int * string list) list;  (** (tenant, seed, outputs) of every run. *)
}

(* Checks every dataset's final ledger against the charges the run
   issued; returns the first dataset's charge count. *)
let check_ledgers l =
  List.mapi
    (fun i conn ->
      let p = control conn "ledger" (fun c -> C.ledger c ~dataset:"d") in
      let charged = l.charged.(i) in
      let spent = num [ "ledger"; "spent"; "eps" ] p in
      let want = job_eps *. float_of_int charged in
      if spent <> Some want then
        problem "tenant %s: ledger spent eps %s, the run issued %d charges = %.17g" conn.tenant
          (match spent with Some s -> Printf.sprintf "%.17g" s | None -> "missing")
          charged want;
      let n_charges = List.length (items [ "ledger"; "charges" ] p) in
      if n_charges <> charged then
        problem "tenant %s: ledger holds %d charges, the run issued %d" conn.tenant n_charges
          charged;
      n_charges)
    l.conns
  |> List.hd

let run_round spec ~root ~traced =
  measure_sizes := traced;
  let l, setup_s, setup_steal_pct = setup spec ~root ~traced in
  let first = List.hd l.conns in
  let w0 = run_waits first in
  let mark = Proc.steal_ticks () in
  let ph = measure spec l in
  let waits = waits_delta w0 (run_waits first) in
  (* Write probes: the solve workloads' writer cycle on their own backend. *)
  let probes =
    List.init spec.probes (fun _ ->
        let mseed = fresh_seed () in
        writer_cycle first ~mseed ~rseed:(fresh_seed ()))
  in
  l.charged.(0) <- l.charged.(0) + spec.probes;
  l.runs_sent <- l.runs_sent + spec.probes;
  let steal_pct = Proc.steal_pct_since mark in
  let charges_at_end = check_ledgers l in
  let cache = cache_counts first in
  let hwm_mb = Proc.status_mb l.d.Proc.pid "VmHWM:" in
  List.iter (fun c -> C.close c.c) l.conns;
  Proc.stop l.d;
  let wal_records =
    match Server.Wal.load l.d.Proc.wal with
    | Ok (records, _) -> List.length records
    | Error e -> Proc.fail "WAL %s: %s" l.d.Proc.wal e
  in
  let runs = ph.queries @ ph.writer_runs in
  let count_jobs p =
    List.fold_left
      (fun acc r ->
        match r.answer with
        | Some a -> acc + List.length (List.filter p (List.combine a.statuses a.attempts))
        | None -> acc)
      0 runs
  in
  {
    setup_s;
    setup_steal_pct;
    ph = { ph with writes_ms = ph.writes_ms @ List.map fst probes };
    executed_jobs = count_jobs (fun (_, att) -> att > 0);
    completed_jobs = count_jobs (fun (st, _) -> st = "ok");
    hwm_mb;
    steal_pct;
    wal_records;
    runs_sent = l.runs_sent;
    waits;
    cache;
    charges_at_end;
    exemplars = (match l.d.Proc.slow_log with Some dir -> Stages.load dir | None -> []);
    answers =
      List.map
        (fun r -> (r.tenant, r.seed, match r.answer with Some a -> a.outputs | None -> []))
        (runs @ List.map snd probes);
  }

(* {1 Metrics} *)

let latencies r = List.map (fun q -> q.latency_ms) r.ph.queries

(* The tail reported: the highest of p95 / p90 / p75 / p50 with at least
   ten of [n] samples beyond it.  p99 is left out on purpose: a single
   burst of hypervisor steal moves it. *)
let tail_q n = if n >= 200 then 0.95 else if n >= 100 then 0.90 else if n >= 40 then 0.75 else 0.5

(* The query tail, printed but not a gated metric: on a shared 2-vCPU
   host, slow spells of tens of seconds move it by more than any useful
   bound from seed to seed, even as the median of per-round tails.  Its
   percentile is picked by the pooled sample count. *)
let print_tail rounds =
  let pooled = List.concat_map latencies rounds in
  let q = tail_q (List.length pooled) in
  let per_round = List.map (fun r -> percentile (latencies r) q) rounds in
  Printf.printf "# query tail (not gated): p%g of %d pooled %.2f ms; per round %s ms\n" (100. *. q)
    (List.length pooled) (percentile pooled q)
    (String.concat " " (List.map (Printf.sprintf "%.1f") per_round))

(* p50 of each of up to 10 equal windows of a round's queries, in order. *)
let windows r =
  let q = Array.of_list (latencies r) in
  let n = Array.length q in
  let w = max 1 (min 10 (n / 4)) in
  List.init w (fun k ->
      let lo = k * n / w and hi = (k + 1) * n / w in
      median (Array.to_list (Array.sub q lo (hi - lo))))

let drift r =
  match windows r with
  | [] -> Float.nan
  | ws -> List.nth ws (List.length ws - 1) /. List.hd ws

(* Latency medians pool the samples of the kept rounds (the rounds do
   identical work); per-round quantities report the median kept round.
   Memory is not inflated by steal, so [daemon_rss_mb] takes the median
   over [all] rounds. *)
let end_to_end ~setups ~all rounds =
  let med f = median (List.map f rounds) in
  [
    ("setup_s", median setups, "s");
    ("query_p50_ms", median (List.concat_map latencies rounds), "ms");
    ("write_p50_ms", median (List.concat_map (fun r -> r.ph.writes_ms) rounds), "ms");
    ("jobs_per_s", med (fun r -> float_of_int r.completed_jobs /. r.ph.wall_s), "1/s");
    ("daemon_rss_mb", median (List.map (fun r -> r.ph.rss_mb) all), "MB");
    ("daemon_cpu_ms_per_job", med (fun r -> r.ph.cpu_ms /. float_of_int (max 1 r.executed_jobs)), "ms");
  ]

(* Every per-layer metric: its unit, and the end-to-end metric and
   workload it should move. *)
let layer_table =
  [
    ("wire.reply_kb", "KB", "query_p50_ms on solve-warm");
    ("wire.overhead_ms", "ms", "query_p50_ms on solve-warm");
    ("wire.codec_ms", "ms", "query_p50_ms on solve-warm");
    ("admission.queue_wait_p50_ms", "ms", "query_p50_ms and the printed tail on ingest-mixed (about 0 on solve-warm)");
    ("admission.queue_wait_p95_ms", "ms", "query_p50_ms and the printed tail on ingest-mixed (about 0 on solve-warm)");
    ("wal.records_per_query", "count", "query_p50_ms on solve-warm, write_p50_ms on ingest-mixed");
    ("wal.append_sync_ms", "ms", "query_p50_ms on solve-warm, write_p50_ms on ingest-mixed");
    ("service.admission_ms", "ms", "jobs_per_s and daemon_cpu_ms_per_job on solve-warm");
    ("service.settlement_ms", "ms", "jobs_per_s and daemon_cpu_ms_per_job on solve-warm");
    ( "pool.overhead_ms",
      "ms",
      "jobs_per_s and daemon_cpu_ms_per_job on solve-warm (about 0 share on solve-tree)" );
    ("accountant.charges_at_end", "count", "query_p50_ms on solve-warm");
    ("accountant.charge_us_at_end", "us", "query_p50_ms on solve-warm");
    ("drift.late_over_early", "ratio", "query_p50_ms on solve-warm");
    ("result_cache.hit_ratio", "ratio", "jobs_per_s on solve-warm (0 elsewhere)");
    ("core.good_radius_ms", "ms", "query_p50_ms on solve-tree and solve-warm");
    ("core.good_center_ms", "ms", "query_p50_ms on solve-warm");
    ("registry.append_ms", "ms", "write_p50_ms and query_p50_ms on ingest-mixed");
    ("registry.retire_ms", "ms", "write_p50_ms and query_p50_ms on ingest-mixed");
    ("registry.register_ms", "ms", "setup_s, mostly on solve-tree");
    ("registry.bounds_ms", "ms", "setup_s, mostly on solve-tree");
    ("index.bytes", "bytes", "daemon_rss_mb on solve-warm and ingest-mixed");
    ("generator.lateness_p95_ms", "ms", "query_p50_ms on ingest-mixed (0 in closed loops)");
    ("stages.residual_ms", "ms", "query_p50_ms on every workload: the part no stage explains");
    ("tracing.overhead_ms", "ms", "none: traced minus untraced query_p50_ms");
  ]

let print_kv k v = Printf.printf "  %-30s %s\n" k v

let print_round i r ~dropped =
  Printf.printf
    "# round %d%s: setup %.3f s, %d queries in %.2f s (p50 %.2f ms), steal %.1f%%, VmHWM %.1f MB, \
     %d WAL records\n"
    i
    (if dropped then " (dropped: steal)" else "")
    r.setup_s (List.length r.ph.queries) r.ph.wall_s (median (latencies r)) r.steal_pct r.hwm_mb
    r.wal_records;
  Printf.printf "#   window p50s (ms): %s; drift %.2f; final reply %.1f KB; %d charges\n"
    (String.concat " " (List.map (Printf.sprintf "%.1f") (windows r)))
    (drift r)
    (match r.ph.last_payload with
    | Some p -> float_of_int (String.length (Server.Wire.reply_to_line ~rid:2 (Ok p))) /. 1024.
    | None -> 0.)
    r.charges_at_end

(* Every traced query matched to its exemplar by (tenant, rid), with its
   modelled codec time. *)
let matched_stages r ~codec_ms_per_byte =
  List.filter_map
    (fun (q : run) ->
      List.find_opt (fun (e : Stages.request) -> e.tenant = q.tenant && e.rid = q.rid) r.exemplars
      |> Option.map (fun e -> (q.rtt_ms, codec_ms_per_byte *. float_of_int q.reply_bytes, e)))
    (r.ph.queries @ r.ph.writer_runs)

let per_layer ~root ~untraced ~traced ~(reg : Layers.registry) =
  let reply_bytes, enc, dec =
    match untraced.ph.last_payload with Some p -> Layers.codec p | None -> (0, 0., 0.)
  in
  let codec_ms_per_byte = if reply_bytes > 0 then (enc +. dec) /. float_of_int reply_bytes else 0. in
  let matched = matched_stages traced ~codec_ms_per_byte in
  let _, _, buckets = untraced.waits in
  let tcount, tsum, _ = traced.waits in
  let queue_wait_ms = if tcount > 0 then float_of_int tsum /. float_of_int tcount /. 1e6 else 0. in
  let rtt, parts, residual = Stages.table ~matched ~queue_wait_ms in
  Printf.printf "# stage table (traced round, mean over %d matched run requests, ms)\n"
    (List.length matched);
  List.iter
    (fun (k, v) -> Printf.printf "#   %-62s %9.3f  %5.1f%%\n" k v (100. *. v /. rtt))
    parts;
  Printf.printf "#   %-62s %9.3f  %5.1f%%\n" "residual (transport, thread hand-offs, client)" residual
    (100. *. residual /. rtt);
  Printf.printf "#   %-62s %9.3f  (parts + residual = %.3f)\n" "client round trip" rtt
    (List.fold_left (fun a (_, v) -> a +. v) residual parts);
  let es = List.map (fun (_, _, e) -> e) matched in
  let executed = List.filter (fun (e : Stages.request) -> e.longest_job_ms > 0.) es in
  let hits, misses = untraced.cache in
  let history = untraced.charges_at_end in
  let q_untraced = median (latencies untraced) and q_traced = median (latencies traced) in
  let values =
    [
      ("wire.reply_kb", float_of_int reply_bytes /. 1024.);
      ( "wire.overhead_ms",
        median (List.map (fun (rtt, _, (e : Stages.request)) -> rtt -. e.request_ms) matched) );
      ("wire.codec_ms", enc +. dec);
      ("admission.queue_wait_p50_ms", bucket_quantile buckets 0.5);
      ("admission.queue_wait_p95_ms", bucket_quantile buckets 0.95);
      ( "wal.records_per_query",
        float_of_int untraced.wal_records /. float_of_int (max 1 untraced.runs_sent) );
      ("wal.append_sync_ms", Layers.wal_append_ms ~dir:root);
      ("service.admission_ms", median (List.map (fun (e : Stages.request) -> e.admission_ms) es));
      ("service.settlement_ms", median (List.map (fun (e : Stages.request) -> e.settlement_ms) es));
      ("pool.overhead_ms", median (List.map Stages.pool_overhead_ms executed));
      ("accountant.charges_at_end", float_of_int history);
      ("accountant.charge_us_at_end", Layers.charge_us ~history);
      ("drift.late_over_early", drift untraced);
      ("result_cache.hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
      ("core.good_radius_ms", median (List.concat_map (fun (e : Stages.request) -> e.radius_each) es));
      ("core.good_center_ms", median (List.concat_map (fun (e : Stages.request) -> e.center_each) es));
      ("registry.append_ms", reg.append_ms);
      ("registry.retire_ms", reg.retire_ms);
      ("registry.register_ms", reg.register_ms);
      ("registry.bounds_ms", reg.bounds_ms);
      ("index.bytes", reg.index_bytes);
      ( "generator.lateness_p95_ms",
        if untraced.ph.lateness_ms = [] then 0. else percentile untraced.ph.lateness_ms 0.95 );
      ("stages.residual_ms", residual);
      ("tracing.overhead_ms", q_traced -. q_untraced);
    ]
  in
  List.map
    (fun (k, unit, _) ->
      let v = List.assoc k values in
      (k, (if Float.is_nan v then 0. else v), unit))
    layer_table

(* {1 Main} *)

(* On a shared virtual machine, rounds and set-ups during which the
   hypervisor steals CPU run up to twice as slow.  One counts if it lost
   under 2% of the machine's CPU to steal or is among the half (rounded
   up) with the least steal.  The choice depends on steal alone, never on
   the measured figures; on a calm machine everything counts. *)
let calm steal xs =
  let calmest =
    List.filteri
      (fun i _ -> i < (List.length xs + 1) / 2)
      (List.stable_sort (fun a b -> compare (steal a) (steal b)) xs)
  in
  List.filter (fun x -> steal x < 2. || List.memq x calmest) xs

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* The run's scratch directory, removed unless a check failed. *)
let run_root = ref None

let main () =
  let spec = spec_of !workload in
  (match Proc.foreign_daemons () with
  | [] -> ()
  | pids ->
      Proc.fail "refusing to start: a privclusterd is already running (pid %s)"
        (String.concat ", " (List.map string_of_int pids)));
  if not (Sys.file_exists work) then Unix.mkdir work 0o755;
  let root = Filename.concat work (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Unix.mkdir root 0o755;
  run_root := Some root;
  Printf.printf "# %s seed=%d seconds=%d trace=%d\n" spec.name !seed !seconds !trace;
  Printf.printf "# machine: %d hardware threads; %s; WAL on %s; load1 %.2f\n%!"
    (Domain.recommended_domain_count ())
    (Proc.cpu_model ()) (Proc.fs_type root) (Proc.load1 ());
  let round ~traced = run_round spec ~root ~traced in
  let rounds, extra_setups =
    if !trace = 0 then
      let extra =
        List.init (max 0 (spec.setups - spec.rounds)) (fun _ ->
            let l, s, steal = setup spec ~root ~traced:false in
            List.iter (fun c -> C.close c.c) l.conns;
            Proc.stop l.d;
            (s, steal))
      in
      (List.init spec.rounds (fun _ -> round ~traced:false), extra)
    else ([ round ~traced:false; round ~traced:true ], [])
  in
  let kept = if !trace = 0 then calm (fun r -> r.steal_pct) rounds else rounds in
  let is_dropped r = not (List.memq r kept) in
  List.iteri (fun i r -> print_round (i + 1) r ~dropped:(is_dropped r)) rounds;
  let first = List.hd rounds in
  List.iteri
    (fun i r ->
      if r.answers <> first.answers then
        problem "round %d answered differently from round 1 (same ops on a fresh daemon%s)" (i + 1)
          (if !trace = 1 then ", tracing on" else ""))
    rounds;
  (* In-process replay of a seeded sample of one tenant's fresh answers. *)
  let tenant_index = List.length spec.tenants - 1 in
  let tenant = List.nth spec.tenants tenant_index in
  let fresh =
    List.filter_map
      (fun (r : run) ->
        match r.answer with
        | Some a when r.tenant = tenant && List.for_all (fun x -> x > 0) a.attempts ->
            Some (r.seed, (a.statuses, a.outputs))
        | _ -> None)
      (first.ph.queries)
    |> Array.of_list
  in
  (* A seeded partial Fisher-Yates shuffle: [spec.replays] distinct answers. *)
  let rng = Random.State.make [| !seed; 11 |] in
  let k = min spec.replays (Array.length fresh) in
  for i = 0 to k - 1 do
    let j = i + Random.State.int rng (Array.length fresh - i) in
    let x = fresh.(i) in
    fresh.(i) <- fresh.(j);
    fresh.(j) <- x
  done;
  let samples = Array.to_list (Array.sub fresh 0 k) in
  let mismatches, reg =
    Layers.replay ~n:spec.n ~seed:(data_seed tenant_index) ~jobs_text:(jobs_text spec.jobs)
      ~samples ~time_layers:(!trace = 1)
  in
  List.iter (fun m -> problem "%s" m) mismatches;
  Printf.printf "# replayed %d sampled answers in-process: %d identical\n" (List.length samples)
    (List.length samples - List.length mismatches);
  let metrics =
    match (!trace, reg, rounds) with
    | 0, _, _ ->
        let setups = extra_setups @ List.map (fun r -> (r.setup_s, r.setup_steal_pct)) rounds in
        let kept_setups = calm snd setups in
        Printf.printf "# %d of %d rounds of %d queries kept; %d of %d set-ups kept (steal %s%%)\n"
          (List.length kept) (List.length rounds) (List.length first.ph.queries)
          (List.length kept_setups) (List.length setups)
          (String.concat " " (List.map (fun (_, st) -> Printf.sprintf "%.1f" st) setups));
        print_tail kept;
        end_to_end ~setups:(List.map fst kept_setups) ~all:rounds kept
    | _, Some reg, [ untraced; traced ] -> per_layer ~root ~untraced ~traced ~reg
    | _ -> assert false
  in
  List.iter
    (fun (k, v, u) ->
      match List.find_opt (fun (name, _, _) -> name = k) layer_table with
      | Some (_, _, moves) -> print_kv k (Printf.sprintf "%-14.4f %-6s -> %s" v u moves)
      | None -> print_kv k (Printf.sprintf "%.4f %s" v u))
    metrics;
  metrics

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s ->
      Sys.set_signal s
        (Sys.Signal_handle
           (fun _ ->
             Proc.kill_all ();
             Option.iter remove_tree !run_root;
             exit 130)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  at_exit Proc.kill_all;
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) || !cli = "" then begin
    prerr_endline "bench: --workload, --seed >= 0, --seconds >= 1, --trace 0|1 and --cli are required";
    exit 2
  end;
  match main () with
  | exception Proc.Failed m ->
      Printf.eprintf "bench: %s\n" m;
      exit 2
  | exception e ->
      Printf.eprintf "bench: %s\n" (Printexc.to_string e);
      exit 2
  | metrics ->
      let correct = !problems = [] in
      List.iter (fun p -> Printf.printf "# CHECK FAILED: %s\n" p) (List.rev !problems);
      Printf.printf "# correctness: %s\n" (if correct then "all checks passed" else "FAILED");
      Option.iter
        (fun root ->
          if correct then remove_tree root
          else Printf.printf "# daemon logs and WALs kept in %s\n" root)
        !run_root;
      print_endline
        (Json.to_string ~indent:false
           (Json.Obj
              [
                ("correct", Json.Bool correct);
                ("attempted", Json.Int (Atomic.get attempted));
                ("failed", Json.Int (Atomic.get failed));
                ( "metrics",
                  Json.Obj
                    (List.map
                       (fun (k, v, u) -> (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
                       metrics) );
              ]));
      exit (if correct then 0 else 1)
