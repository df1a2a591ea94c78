(* Lifecycle of one `tcsq serve` process, handled from outside it: a
   private directory and socket per server under .perfbench-tmp/ in the
   working directory, readiness by polling with the benchmark's own
   connection, CPU time and peak RSS from /proc, and a kill plus
   directory removal on every exit path. *)

open Common

type t = {
  pid : int;
  dir : string;
  socket : string;
  mutable alive : bool;
}

let tmp_root = ".perfbench-tmp"
let live : t list ref = ref []
let counter = ref 0

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let reap s =
  if s.alive then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
    s.alive <- false
  end;
  remove_tree s.dir;
  live := List.filter (fun s' -> s' != s) !live

(* kills every server still running and removes their directories;
   safe to call more than once *)
let cleanup () =
  List.iter reap !live;
  (try Unix.rmdir tmp_root with Unix.Unix_error _ -> ())

let log_tail s =
  let p = Filename.concat s.dir "serve.log" in
  match In_channel.with_open_bin p In_channel.input_all with
  | text ->
      let n = String.length text in
      String.trim (if n > 400 then String.sub text (n - 400) 400 else text)
  | exception Sys_error _ -> "(no log)"

let exited s =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> false
  | _ ->
      s.alive <- false;
      true
  | exception Unix.Unix_error _ -> false

(* Spawns `tcsq serve` and polls until a ping on the benchmark's own
   connection is answered. Returns the server, that connection, and the
   seconds from spawn to the answered ping. *)
let start ~tcsq ~dataset ~scale =
  (try Unix.mkdir tmp_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr counter;
  let dir =
    Filename.concat tmp_root (Printf.sprintf "%d-%d" (Unix.getpid ()) !counter)
  in
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "sock" in
  let logfd =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o600
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let args =
    [| tcsq; "serve"; "--dataset"; Tgraph.Dataset.to_string dataset;
       "--scale"; Printf.sprintf "%g" scale; "--socket"; socket;
       "--workers"; "2" |]
  in
  let t0 = now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close logfd; Unix.close null)
      (fun () -> Unix.create_process tcsq args null logfd logfd)
  in
  let s = { pid; dir; socket; alive = true } in
  live := s :: !live;
  let deadline = t0 +. 120.0 in
  let rec poll () =
    if exited s then
      fail "server set-up" "tcsq serve exited before answering: %s" (log_tail s);
    if now () > deadline then
      fail "server set-up" "no ping answered within 120 s: %s" (log_tail s);
    match Tcsq_server.Client.connect socket with
    | c when Tcsq_server.Client.ping c -> c
    | c ->
        Tcsq_server.Client.close c;
        Unix.sleepf 0.002;
        poll ()
    | exception Unix.Unix_error _ ->
        Unix.sleepf 0.002;
        poll ()
  in
  let conn = poll () in
  (s, conn, now () -. t0)

(* user + system seconds from /proc/<pid>/stat (fields 14 and 15, in
   USER_HZ = 100 ticks on Linux) *)
let cpu_seconds s =
  let p = Printf.sprintf "/proc/%d/stat" s.pid in
  match In_channel.with_open_bin p In_channel.input_all with
  | exception Sys_error msg -> fail "server cpu" "%s" msg
  | text -> (
      let close = String.rindex text ')' in
      let rest = String.sub text (close + 2) (String.length text - close - 2) in
      match String.split_on_char ' ' rest with
      | fields when List.length fields > 12 ->
          (* fields after the command start at field 3 *)
          let f i = float_of_string (List.nth fields (i - 3)) in
          (f 14 +. f 15) /. 100.0
      | _ -> fail "server cpu" "cannot parse %s" p)

(* VmHWM from /proc/<pid>/status, in MB *)
let rss_peak_mb s =
  let p = Printf.sprintf "/proc/%d/status" s.pid in
  match In_channel.with_open_bin p In_channel.input_all with
  | exception Sys_error msg -> fail "server rss" "%s" msg
  | text -> (
      let line =
        List.find_opt
          (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
          (String.split_on_char '\n' text)
      in
      match line with
      | None -> fail "server rss" "no VmHWM in %s" p
      | Some l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))

(* Graceful stop: the shutdown request goes out on the last open
   connection after every other one is closed (a server with another
   client still connected does not exit), then a kill if the process
   has not ended within 10 s. *)
let stop s ~others conn =
  List.iter Tcsq_server.Client.close others;
  (match Tcsq_server.Client.shutdown conn with _ -> ());
  Tcsq_server.Client.close conn;
  let deadline = now () +. 10.0 in
  while s.alive && now () < deadline && not (exited s) do
    Unix.sleepf 0.005
  done;
  if s.alive then log "tcsq serve did not exit after shutdown; killing it";
  reap s
