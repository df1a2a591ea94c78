(* The end-to-end run: fresh `tcsq serve --workers 2` processes driven
   from this single process over at most two connections.

   A query phase sends whole rounds of the pool's queries in a seeded
   order on one connection, closed loop. An ingest phase sends seeded
   128-edge batches on connection A on a fixed schedule (open loop:
   latency counts from each batch's due time) while connection B holds
   the standing subscriptions and sends a closed-loop burst of queries
   from every [every]-th batch on; one select loop serves both, so B's
   delta frames are timed as they arrive. Nothing is checked while the
   clock runs: every response is kept and checked once the phase ends. *)

open Semantics
open Common
module C = Tcsq_server.Client
module P = Tcsq_server.Protocol
module J = Tcsq_server.Json

(* `tcsq serve`'s default --limit: matches echoed back per response *)
let limit = 100
let batch_size = 128

type sample = {
  op : int; (* index into the pool's queries *)
  latency_ms : float;
  bytes : int;
  resp : P.response; (* with its JSON tree dropped, to keep runs small *)
  stats : (string * int) list; (* the response's execution counters *)
}

let stat_keys = [ "scanned"; "intermediate"; "seeks"; "results" ]

let sample op latency_ms bytes (r : P.response) =
  let stats =
    match J.member "stats" r.P.json with
    | Some st ->
        List.map (fun k -> (k, Option.value (J.mem_int k st) ~default:0)) stat_keys
    | None -> []
  in
  { op; latency_ms; bytes; resp = { r with P.json = J.Null }; stats }

type counts = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list; (* failed output checks, newest first *)
}

let counts () = { attempted = 0; failed = 0; errors = [] }

(* a request [what] that was answered: not-ok responses and failed
   checks both count the operation as failed *)
let account c ~what ?error (r : P.response) =
  c.attempted <- c.attempted + 1;
  if r.P.status <> "ok" then begin
    c.failed <- c.failed + 1;
    if c.failed <= 3 then
      log "operation failed: %s: status %s%s" what r.P.status
        (match (r.P.reason, r.P.message) with
        | Some s, _ | None, Some s -> " (" ^ s ^ ")"
        | None, None -> "")
  end
  else
    match error with
    | None -> ()
    | Some e ->
        c.failed <- c.failed + 1;
        c.errors <- e :: c.errors

let parse step raw =
  match P.parse_response raw with
  | Ok r -> r
  | Error e -> fail step "%s" e

let send step conn line =
  try C.send_raw conn line
  with Unix.Unix_error (e, _, _) -> fail step "send: %s" (Unix.error_message e)

let recv step conn =
  match C.recv_raw conn with Ok l -> l | Error e -> fail step "%s" e

(* one closed-loop request: send, read the response, parse it *)
let exchange step conn line =
  let t0 = now () in
  send step conn line;
  let raw = recv step conn in
  let r = parse step raw in
  (r, (now () -. t0) *. 1000.0, String.length raw)

let plan_cache_counters step conn =
  match C.metrics conn with
  | Error e -> fail step "metrics: %s" e
  | Ok m -> (
      match J.member "plan_cache" m with
      | None -> fail step "metrics carry no plan_cache"
      | Some pc ->
          List.map
            (fun k ->
              (k, Option.value (J.mem_int k pc) ~default:0))
            [ "hits"; "misses"; "replans"; "invalidations"; "generation" ])

(* ---- the queries a phase sends ---- *)

type compiled = { text : string; q : Query.t; expected : int option; line : string }

let compile g text expected =
  match Qlang.parse_and_compile g text with
  | Ok q -> { text; q; expected; line = Inputs.query_line text }
  | Error msg -> fail "inputs" "cannot compile %S: %s" text msg

let check_sample g c (qs : compiled array) s =
  let cq = qs.(s.op) in
  account c ~what:cq.text s.resp
    ?error:(Check.response ?expected:cq.expected ~limit g ~text:cq.text cq.q s.resp)

let query_phase step conn (qs : compiled array) ops =
  Array.map
    (fun op ->
      let resp, latency_ms, bytes = exchange step conn qs.(op).line in
      sample op latency_ms bytes resp)
    ops

(* ---- the ingest phase ---- *)

type sub_state = {
  sub_text : string;
  width : int option;
  id : int;
  current : (int array, Match_result.t) Hashtbl.t;
  mutable total : int;
  mutable window : Temporal.Interval.t option;
}

type ingest = {
  ingest_ms : float array; (* due time -> ack *)
  delta_ms : float array; (* due time -> the batch's last delta frame *)
  opens_burst : bool array; (* whether B's queries met the batch *)
  delta_server_ms : float array; (* the frames' own elapsed_ms *)
  delta_matches : int; (* added + retracted over the phase *)
  b_samples : sample array; (* connection B's queries, in order *)
  b_busy_s : float; (* time B had a query in flight *)
  lateness_ms : float; (* worst send delay behind schedule *)
}

let subscribe step b c g (s : Inputs.sub) =
  let line =
    J.to_string (C.subscribe_json ?window_width:s.Inputs.width s.Inputs.sub_text)
  in
  let r, _, _ = exchange step b line in
  let q = (compile g s.Inputs.sub_text None).q in
  account c ~what:s.Inputs.sub_text r
    ?error:
      (Check.response ~expected:s.Inputs.snapshot ~limit:max_int g
         ~text:s.Inputs.sub_text q r);
  let id =
    match J.mem_int "sub" r.P.json with
    | Some id -> id
    | None -> fail step "subscribe to %S: %s" s.Inputs.sub_text
                (Option.value r.P.message ~default:r.P.status)
  in
  let current = Hashtbl.create 256 in
  List.iter
    (fun m -> Hashtbl.replace current m.Match_result.edges m)
    r.P.matches;
  { sub_text = s.Inputs.sub_text; width = s.Inputs.width; id; current;
    total = List.length r.P.matches; window = None }

let pending (conn : C.t) =
  not (Queue.is_empty conn.C.reader.Tcsq_server.Wire.lines)

let read_line step (conn : C.t) =
  match Tcsq_server.Wire.read_line conn.C.reader with
  | Some l -> l
  | None -> fail step "connection closed by server"

type schedule =
  | Every of float (* open loop: batch i is due i periods after the start *)
  | Closed (* each batch is sent once the previous one's ack and deltas are in *)

(* Sends [batches] on [a] by [schedule] while [b] collects the delta
   frames of [subs] and runs [ops] closed loop, [burst] of them from the
   send of every [every]-th batch on, so that B's queries meet the server
   while it merges that batch.
   Open-loop batches go out from a thread of their own, so a send that
   blocks (the server busy with an earlier batch) never stops this thread
   from reading the frames the server is pushing meanwhile. *)
let ingest_phase ~base_edges ~generation0 ~schedule ~burst ~every a b c
    (subs : sub_state array) (qs : compiled array) ops (batches : string array) =
  let step = "ingest phase" in
  let n = Array.length batches and nb = Array.length ops in
  if nb > burst * ((n + every - 1) / every) then fail step "more queries than bursts hold";
  (* the batch that releases B's [j]th query *)
  let opener j = j / burst * every in
  let opens_burst = Array.init n (fun k -> k mod every = 0 && k / every * burst < nb) in
  let nsubs = Array.length subs in
  let t_start = now () +. 0.02 in
  let due_at = Array.make n nan in
  let due i = due_at.(i) in
  let sent = Atomic.make 0 and send_error = Atomic.make None in
  let lateness = ref 0.0 in
  let send_batch i =
    C.send_raw a batches.(i);
    Atomic.incr sent
  in
  let sender =
    match schedule with
    | Closed ->
        due_at.(0) <- now ();
        send step a batches.(0);
        Atomic.incr sent;
        None
    | Every period ->
        Array.iteri (fun i _ -> due_at.(i) <- t_start +. (float_of_int i *. period)) due_at;
        Some
          (Thread.create
             (fun () ->
               try
                 for i = 0 to n - 1 do
                   let wait = due i -. now () in
                   if wait > 0.0 then Thread.delay wait;
                   lateness := Float.max !lateness ((now () -. due i) *. 1000.0);
                   send_batch i
                 done
               with Unix.Unix_error (e, _, _) ->
                 Atomic.set send_error (Some (Unix.error_message e)))
             ())
  in
  (* closed loop: the next batch goes out when batch [k] is complete *)
  let complete k =
    if schedule = Closed && k + 1 < n && Atomic.get sent = k + 1 then begin
      due_at.(k + 1) <- now ();
      send step a batches.(k + 1);
      Atomic.incr sent
    end
  in
  let acked = ref 0 and done_deltas = ref 0 in
  let frames = Array.make n 0 in
  let ingest_ms = Array.make n nan and delta_ms = Array.make n nan in
  let delta_server = ref [] and delta_matches = ref 0 in
  let b_next = ref 0 and b_t0 = ref 0.0 and b_busy = ref 0.0 in
  let b_inflight = ref false in
  let b_samples = ref [] in
  let by_id = Hashtbl.create 8 in
  Array.iter (fun s -> Hashtbl.replace by_id s.id s) subs;
  (* B's next query waits for the batch that opens its burst *)
  let send_b () =
    if (not !b_inflight) && !b_next < nb && opener !b_next < Atomic.get sent
    then begin
      b_inflight := true;
      b_t0 := now ();
      send step b qs.(ops.(!b_next)).line
    end
  in
  let on_a line =
    let r = parse step line in
    let k = !acked in
    if k >= Atomic.get sent then fail step "ingest ack for a batch never sent";
    ingest_ms.(k) <- (now () -. due k) *. 1000.0;
    incr acked;
    if nsubs = 0 || frames.(k) = nsubs then complete k;
    let expect_edges = base_edges + ((k + 1) * batch_size) in
    let error =
      match (J.mem_int "n_edges" r.P.json, J.mem_int "generation" r.P.json) with
      | Some e, _ when e <> expect_edges ->
          Some (Printf.sprintf "ingest batch %d: n_edges %d, expected %d" k e expect_edges)
      | _, Some gen when gen <> generation0 + k + 1 ->
          Some (Printf.sprintf "ingest batch %d: generation %d, expected %d" k gen
                  (generation0 + k + 1))
      | _ -> None
    in
    account c ~what:(Printf.sprintf "ingest batch %d" k) ?error r
  in
  let on_b line =
    let r = parse step line in
    match P.delta_of_response r with
    | Some d ->
        let gen = Option.value d.P.delta_generation ~default:(-1) in
        let k = gen - generation0 - 1 in
        if k < 0 || k >= n then fail step "delta frame for generation %d" gen;
        let s =
          match Hashtbl.find_opt by_id d.P.delta_sub with
          | Some s -> s
          | None -> fail step "delta frame for unknown subscription %d" d.P.delta_sub
        in
        List.iter (fun m -> Hashtbl.remove s.current m.Match_result.edges) d.P.delta_retracted;
        List.iter (fun m -> Hashtbl.replace s.current m.Match_result.edges m) d.P.delta_added;
        s.total <- Option.value d.P.delta_total ~default:(-1);
        s.window <- d.P.delta_window;
        delta_matches :=
          !delta_matches + List.length d.P.delta_added + List.length d.P.delta_retracted;
        Option.iter
          (fun ms -> delta_server := ms :: !delta_server)
          (J.mem_float "elapsed_ms" r.P.json);
        frames.(k) <- frames.(k) + 1;
        if frames.(k) = nsubs then begin
          delta_ms.(k) <- (now () -. due k) *. 1000.0;
          incr done_deltas;
          if !acked > k then complete k
        end
    | None ->
        if not !b_inflight then fail step "unexpected response on connection B";
        b_inflight := false;
        let t = now () in
        b_busy := !b_busy +. (t -. !b_t0);
        b_samples :=
          sample ops.(!b_next) ((t -. !b_t0) *. 1000.0) (String.length line) r
          :: !b_samples;
        incr b_next;
        send_b ()
  in
  let finished () =
    !acked = n && (nsubs = 0 || !done_deltas = n) && !b_next = nb
  in
  let progress = ref (now ()) in
  while not (finished ()) do
    (match Atomic.get send_error with
    | Some e -> fail step "sending a batch: %s" e
    | None -> ());
    send_b ();
    while pending a do on_a (read_line step a); progress := now () done;
    while pending b do on_b (read_line step b); progress := now () done;
    if not (finished ()) then begin
      (* wake for the batch that releases B's next burst *)
      let timeout =
        if !b_inflight || !b_next >= nb then 0.05
        else Float.min 0.05 (Float.max 0.0005 (due (opener !b_next) -. now ()))
      in
      let ready, _, _ =
        try Unix.select [ a.C.fd; b.C.fd ] [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.mem a.C.fd ready then (on_a (read_line step a); progress := now ());
      if List.mem b.C.fd ready then (on_b (read_line step b); progress := now ());
      if now () -. !progress > 60.0 then
        fail step "no progress for 60 s (%d/%d batches acked)" !acked n
    end
  done;
  Option.iter Thread.join sender;
  {
    ingest_ms;
    delta_ms = (if nsubs = 0 then [||] else delta_ms);
    opens_burst;
    delta_server_ms = Array.of_list (List.rev !delta_server);
    delta_matches = !delta_matches;
    b_samples = Array.of_list (List.rev !b_samples);
    b_busy_s = !b_busy;
    lateness_ms = !lateness;
  }

(* After the last batch: each subscription's snapshot plus its deltas
   must equal its final total, a one-shot count over the wire, and the
   baseline count on a graph rebuilt from scratch; each of B's queries
   must never have lost results, and must agree with the rebuilt graph
   now. *)
let final_checks b c ~rebuilt (subs : sub_state array) (qs : compiled array)
    (b_samples : sample array) =
  let step = "final checks" in
  let g = Workload.Engine.graph rebuilt in
  let baseline text =
    match Qlang.parse_and_compile g text with
    | Ok q -> (q, Inputs.baseline_count rebuilt q)
    | Error msg -> fail step "cannot compile %S: %s" text msg
  in
  let one_shot text =
    let r, _, _ = exchange step b (Inputs.query_line ~count_only:true text) in
    (r, Option.value r.P.count ~default:(-1))
  in
  Array.iter
    (fun s ->
      let text =
        match s.window with
        | Some w when s.width <> None -> Inputs.with_window g s.sub_text w
        | _ -> s.sub_text
      in
      let q, expected = baseline text in
      let r, wire = one_shot text in
      let held = Hashtbl.length s.current in
      let matches = Hashtbl.fold (fun _ m acc -> m :: acc) s.current [] in
      let error =
        if held <> s.total || wire <> s.total || expected <> s.total then
          Some
            (Printf.sprintf
               "subscription %S: snapshot + deltas hold %d, last total %d, \
                one-shot count %d, rebuilt-graph count %d"
               text held s.total wire expected)
        else
          Option.map
            (fun e -> Printf.sprintf "subscription %S: %s" text e)
            (Check.first_error g q matches)
      in
      account c ~what:text ?error r)
    subs;
  let last = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      let cq = qs.(s.op) in
      let count = Option.value s.resp.P.count ~default:(-1) in
      let prev = Option.value (Hashtbl.find_opt last s.op) ~default:0 in
      Hashtbl.replace last s.op count;
      let error =
        if count < prev then
          Some (Printf.sprintf "query %S: count fell from %d to %d" cq.text prev count)
        else Check.response ~limit g ~text:cq.text cq.q s.resp
      in
      account c ~what:cq.text ?error s.resp)
    b_samples;
  Hashtbl.iter
    (fun op _ ->
      let cq = qs.(op) in
      let _, expected = baseline cq.text in
      let r, wire = one_shot cq.text in
      let error =
        if wire <> expected then
          Some (Printf.sprintf "query %S: one-shot count %d, rebuilt-graph count %d"
                  cq.text wire expected)
        else None
      in
      account c ~what:cq.text ?error r)
    last
