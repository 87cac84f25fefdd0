(* Child processes of the harness: the real `ftb serve` daemon and
   `ftb worker`, spawned from the built CLI with explicit domain counts. *)

module Client = Ftb_service.Client
module Wire = Ftb_service.Wire
module Json = Ftb_service.Json

type t = { pid : int; name : string }

let now = Unix.gettimeofday

(* The children get the harness environment minus FTB_DOMAINS: every domain
   count is an explicit flag. *)
let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"FTB_DOMAINS=" kv))
  |> Array.of_list

(* Every child spawned, so a failing run can stop them all. *)
let children = ref []

let spawn ~exe ~log name args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process_env exe (Array.of_list (exe :: args)) (child_env ()) Unix.stdin fd fd)
  in
  let p = { pid; name } in
  children := p :: !children;
  p

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

(* Wait up to [timeout] seconds for [p] to exit, then SIGKILL it. Returns
   whether it exited on its own. *)
let reap ?(timeout = 20.) p =
  let deadline = now () +. timeout in
  let rec loop () =
    match waitpid_retry [ Unix.WNOHANG ] p.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        loop ()
    | 0, _ ->
        (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_retry [] p.pid);
        false
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  loop ()

(* SIGKILL and reap every child still running. *)
let kill_all () =
  List.iter
    (fun p ->
      match waitpid_retry [ Unix.WNOHANG ] p.pid with
      | 0, _ ->
          (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_retry [] p.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ())
    !children

(* Peak resident set (VmHWM) in MB, read while the process is alive. *)
let peak_rss_mb p =
  let ic = open_in (Printf.sprintf "/proc/%d/status" p.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> loop ()
        | exception End_of_file -> failwith "no VmHWM line"
      in
      loop ())

(* A connection to the daemon: the typed client plus the raw descriptor
   for frames the client library has no call for. *)
type conn = { fd : Unix.file_descr; client : Client.t }

let connect_once socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some { fd; client = Client.of_fd fd }
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
      Unix.close fd;
      None

(* Poll until the daemon answers a request, or fail after [timeout]. *)
let connect ?(timeout = 30.) ~daemon socket =
  let deadline = now () +. timeout in
  let rec loop () =
    (match waitpid_retry [ Unix.WNOHANG ] daemon.pid with
    | 0, _ -> ()
    | _ -> failwith (daemon.name ^ " exited during start-up"));
    match connect_once socket with
    | Some c -> (
        match Client.list c.client with
        | Ok _ -> c
        | Error e -> failwith (Printf.sprintf "%s: list refused: %s" daemon.name e.Client.message))
    | None when now () < deadline ->
        Unix.sleepf 0.002;
        loop ()
    | None -> failwith (daemon.name ^ " did not answer")
  in
  loop ()

let close c = Client.close c.client

let request c frame =
  Wire.write c.fd frame;
  Wire.read c.fd

(* Number of live fleet workers, from the daemon's worker_stats verb. *)
let live_workers c =
  let rows, _ = Ftb_dist.Worker_proto.parse_workers (request c Ftb_dist.Worker_proto.workers_request) in
  List.length (List.filter (fun r -> r.Ftb_dist.Worker_proto.row_age < 1.0) rows)

(* Flush dirty pages before a timed loop, so it never waits on writeback
   of files written before it started (the set-up, an earlier run). *)
let sync () =
  let pid = Unix.create_process "sync" [| "sync" |] Unix.stdin Unix.stdout Unix.stderr in
  ignore (waitpid_retry [] pid)

(* Guest-wide CPU seconds from the first line of /proc/stat, as (busy,
   stolen): busy is user + nice + system + irq + softirq. The unit is
   USER_HZ, which Linux fixes at 100 on every architecture. *)
let cpu_seconds () =
  let line = In_channel.with_open_text "/proc/stat" input_line in
  let field =
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
        let a = Array.of_list (List.map float_of_string fields) in
        fun i -> if i < Array.length a then a.(i) /. 100. else 0.
    | _ -> failwith "/proc/stat: no cpu line"
  in
  (field 0 +. field 1 +. field 2 +. field 5 +. field 6, field 7)

(* The clock of a timed phase (set-up, priming, timed loop). Its times are
   steal-adjusted ([Pstats.steal_adjusted]): on a shared 2-vCPU host the
   hypervisor took 0 to 60 % of the CPU time, in spells of tens of
   seconds, and plain wall time measured those spells. *)
type clock = { wall0 : float; busy0 : float; steal0 : float }

let clock () =
  let busy0, steal0 = cpu_seconds () in
  { wall0 = now (); busy0; steal0 }

type lap = { wall : float; stolen : float; adjusted : float }

let lap c =
  let busy, steal = cpu_seconds () in
  let wall = now () -. c.wall0 and stolen = steal -. c.steal0 in
  { wall; stolen; adjusted = Pstats.steal_adjusted ~wall ~busy:(busy -. c.busy0) ~steal:stolen }

let rec du path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun acc f -> acc + du (Filename.concat path f)) 0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
