(* The daemon as a child process: spawn, readiness, /proc readings, and
   reaping on every exit path.  Every spawned pid is tracked in [live]
   until it has been waited for, so the signal handlers and [at_exit] can
   kill and reap whatever is still running. *)

let live : int list ref = ref []

let read_file path = In_channel.with_open_bin path In_channel.input_all

let now_s () = Int64.to_float (Obs.Clock.now_ns ()) /. 1e9

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

let forget pid = live := List.filter (( <> ) pid) !live

(* Wait up to [timeout_s] for [pid] to exit; true once reaped. *)
let wait_exit ~timeout_s pid =
  let deadline = now_s () +. timeout_s in
  let rec go () =
    match waitpid_noeintr [ Unix.WNOHANG ] pid with
    | 0, _ when now_s () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  let reaped = go () in
  if reaped then forget pid;
  reaped

let signal pid s = try Unix.kill pid s with Unix.Unix_error (_, _, _) -> ()

let kill_and_reap pid =
  signal pid Sys.sigkill;
  (try ignore (waitpid_noeintr [] pid) with Unix.Unix_error (_, _, _) -> ());
  forget pid

let kill_all () = List.iter kill_and_reap !live

(* A process whose argv runs the CLI's [serve] subcommand. *)
let is_daemon_cmdline args =
  let rec go = function
    | exe :: "serve" :: _
      when List.mem (Filename.basename exe) [ "privcluster_cli.exe"; "privcluster-cli" ] ->
        true
    | _ :: rest -> go rest
    | [] -> false
  in
  go args

(* Pids of running daemons not spawned by this process: a leftover from
   an earlier run (or any other daemon on the machine) would compete for
   the same cores, so the benchmark refuses to start beside one. *)
let foreign_daemons () =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun entry ->
         match int_of_string_opt entry with
         | Some pid when pid <> Unix.getpid () && not (List.mem pid !live) -> (
             match read_file (Printf.sprintf "/proc/%d/cmdline" pid) with
             | cmd when is_daemon_cmdline (String.split_on_char '\000' cmd) -> Some pid
             | _ -> None
             | exception Sys_error _ -> None)
         | _ -> None)

type daemon = {
  pid : int;
  listen : Server.Daemon.listen;
  wal : string;
  slow_log : string option;
  out : Unix.file_descr;  (** The daemon's stdout; kept open until it is reaped. *)
}

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

(* Read one line from [fd], giving up after [timeout_s]. *)
let read_line_within fd ~timeout_s =
  let buf = Buffer.create 128 and b = Bytes.create 1 in
  let deadline = now_s () +. timeout_s in
  let rec go () =
    let left = deadline -. now_s () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd b 0 1 with
          | 0 -> None
          | _ when Bytes.get b 0 = '\n' -> Some (Buffer.contents buf)
          | _ ->
              Buffer.add_bytes buf b;
              go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Start [cli serve] with the CLI defaults (2 worker domains, WAL fsync
   on) in [dir], and return once it prints its ready line. *)
let spawn ~cli ~dir ~tenants ~traced =
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "d.sock" and wal = Filename.concat dir "d.wal" in
  let slow_log = if traced then Some (Filename.concat dir "slow") else None in
  let args =
    [ cli; "serve"; "--socket"; sock; "--wal"; wal; "--jobs"; "2" ]
    @ List.concat_map (fun (name, token) -> [ "--tenant"; name ^ ":" ^ token ]) tenants
    @
    match slow_log with
    | Some d -> [ "--trace-sample"; "1"; "--slow-log"; d; "--slow-keep"; "1000000" ]
    | None -> []
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let pid = Unix.create_process cli (Array.of_list args) devnull w log in
  live := pid :: !live;
  List.iter Unix.close [ w; devnull; log ];
  match read_line_within r ~timeout_s:60. with
  | Some line when String.starts_with ~prefix:"privclusterd listening on" line ->
      { pid; listen = `Unix sock; wal; slow_log; out = r }
  | _ ->
      kill_and_reap pid;
      Unix.close r;
      fail "daemon did not become ready; see %s" (Filename.concat dir "daemon.log")

(* Graceful drain (SIGTERM), falling back to SIGKILL after 30 s. *)
let stop d =
  signal d.pid Sys.sigterm;
  if not (wait_exit ~timeout_s:30. d.pid) then kill_and_reap d.pid;
  Unix.close d.out

(* A memory line of /proc/PID/status ("VmRSS:", "VmHWM:", ...) in MB. *)
let status_mb pid field =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:field l then
           let rest = String.sub l (String.length field) (String.length l - String.length field) in
           Scanf.sscanf_opt rest " %d kB" (fun kb -> float_of_int kb /. 1024.)
         else None)
  |> Option.value ~default:0.

(* utime + stime of the whole process, exited threads included, in ms
   (the kernel reports USER_HZ = 100 ticks per second). *)
let cpu_ms pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  (* fields 14 and 15 of stat(5); [after] starts at field 3 *)
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) *. 10.

(* {1 Machine stamp} *)

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             match String.index_opt l ':' with
             | Some i when String.starts_with ~prefix:"model name" l ->
                 Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
             | _ -> None)
      |> Option.value ~default:"unknown"

(* Type of the filesystem holding [path]: the longest mount point in
   /proc/mounts that is a prefix of its real path. *)
let fs_type path =
  let real = try Unix.realpath path with Unix.Unix_error (_, _, _) -> path in
  let under mnt =
    mnt = "/" || real = mnt || String.starts_with ~prefix:(mnt ^ "/") real
  in
  match read_file "/proc/mounts" with
  | exception Sys_error _ -> "unknown"
  | s ->
      String.split_on_char '\n' s
      |> List.fold_left
           (fun (best_len, best) l ->
             match String.split_on_char ' ' l with
             | _ :: mnt :: ty :: _ when under mnt && String.length mnt >= best_len ->
                 (String.length mnt, ty)
             | _ -> (best_len, best))
           (-1, "unknown")
      |> snd

let load1 () =
  match read_file "/proc/loadavg" with
  | exception Sys_error _ -> Float.nan
  | s -> Scanf.sscanf s "%f" Fun.id

(* Machine-wide (steal, total) CPU ticks from /proc/stat: time the
   hypervisor gave this machine's virtual CPUs to someone else. *)
let steal_ticks () =
  match read_file "/proc/stat" |> String.split_on_char '\n' |> List.hd |> String.split_on_char ' ' with
  | "cpu" :: rest -> (
      match List.filter_map int_of_string_opt rest with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ as f -> (steal, List.fold_left ( + ) 0 f)
      | _ -> (0, 0))
  | _ | (exception Sys_error _) -> (0, 0)

(* Share of the machine's CPU ticks stolen since [steal_ticks] returned
   [mark], in percent. *)
let steal_pct_since (s0, t0) =
  let s1, t1 = steal_ticks () in
  if t1 > t0 then 100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.
