(* End-to-end benchmark of `tcsq serve`.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 --tcsq EXE
     perfbench --quick --tcsq EXE
     perfbench regen

   The first form runs one workload against fresh servers and prints,
   as its last line, one JSON object with the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1). --quick runs every
   workload at a small scale with every check, including the naive
   oracle; it is the benchmark's own test. regen rewrites the stored
   query pools under perfbench/inputs/. See perfbench/README.md. *)

open Common
module C = Tcsq_server.Client
module P = Tcsq_server.Protocol

let inputs_dir = Filename.concat "perfbench" "inputs"
let quick_scale = 0.05

(* ---- one end-to-end run ---- *)

type run = {
  w : Inputs.workload;
  c : Drive.counts;
  setup_s : float array;
  queries : Drive.sample array; (* the timed queries *)
  query_wall_s : float;
  ingest : Drive.ingest;
  cpu_s : float;
  rss_mb : float;
  plan_cache : (string * int) list; (* counter deltas over the timed phase *)
  pool : Inputs.pool;
  subs : Inputs.sub array; (* the standing queries the run held *)
  lines : string array; (* the ingest batches, as sent *)
}

(* stack-ingest sends a burst of B's queries with every other batch;
   the batches between meet no queries, and the ingest metrics are taken
   over those alone. A merge that B's queries meet costs a share more
   that varies from batch to batch (lock handoffs and stop-the-world
   minor collections across the server's three domains on two cores);
   each run logs it on stderr instead *)
let burst_every = 2

(* nominal seconds one round of each workload's operations takes here:
   the number of rounds depends on --seconds only, never on the clock,
   so every run of a given length does the same work *)
let round_ops (w : Inputs.workload) n_queries =
  match w.Inputs.kind with
  | Inputs.Sweep -> (Array.init n_queries Fun.id, 1.7)
  | Inputs.Hot -> (Array.init (10 * n_queries) (fun i -> i mod n_queries), 0.54)
  | Inputs.Ingest -> (Array.init n_queries Fun.id, 0.2 *. float_of_int burst_every)

let ops ~quick ~seed ~seconds w n_queries =
  let round, round_s = round_ops w n_queries in
  let rounds =
    if quick then 1 else max 1 (int_of_float (Float.round (seconds /. round_s)))
  in
  Array.concat
    (List.init rounds (fun r ->
         shuffle (rng seed (Printf.sprintf "%s-round-%d" w.Inputs.name r)) round))

(* batches per run: on stack-ingest five per second of --seconds, so
   from sixteen seconds on at least forty that no query burst meets,
   enough for a tail with ten samples beyond; the query-only workloads'
   probe sends half as many, closed loop. stack-ingest sends them one
   every [ingest_period] seconds *)
let n_batches ~quick ~seconds (w : Inputs.workload) =
  let per_s =
    match w.Inputs.kind with Inputs.Ingest -> 5.0 | Inputs.Sweep | Inputs.Hot -> 2.5
  in
  if quick then 4 else max 1 (int_of_float (Float.round (per_s *. seconds)))

(* On a shared 2-core VM a batch with its query burst keeps the server
   busy 300 to 550 ms, the more in the host's slow spells. At 400 and
   600 ms periods those spells pushed the load near or past 1, a backlog
   grew, and ingest latency spread 48% to 70% across seeds; at 800 ms
   the load stays at or below about two thirds. *)
let ingest_period = 0.8

(* the quick mode's pools are drawn live, and the naive oracle confirms
   every expected count *)
let quick_pool w g =
  let engine = Workload.Engine.prepare g in
  let pool = Inputs.generate ~quick:true w engine in
  let confirm text expected =
    match Semantics.Qlang.parse_and_compile g text with
    | Error msg -> fail "naive oracle" "cannot compile %S: %s" text msg
    | Ok q ->
        let n = Semantics.Naive.count g q in
        if n <> expected then
          fail "naive oracle" "query %S: naive count %d, baseline count %d" text
            n expected
  in
  Array.iter (fun q -> confirm q.Inputs.text q.Inputs.expected) pool.Inputs.queries;
  Array.iter (fun s -> confirm s.Inputs.sub_text s.Inputs.snapshot) pool.Inputs.subs;
  if Array.length pool.Inputs.queries = 0 then fail "inputs" "empty quick pool";
  pool

(* A run splits its queries and batches over this many servers, one
   after another, and pools their samples. A server process keeps a
   speed of its own: on stack-ingest one run's median ack time read
   318 ms and the next 456 ms, while the caida-sweep runs between them
   held still, and caida-sweep's query_p50_ms read 18 to 19 ms on some
   servers and 25 to 26 ms on others. With one server per run those
   levels set a run's medians (spreads of 29% to 36% over ten seeds);
   pooling four servers averages them out. *)
let servers_per_run = 4

(* what one server contributes to a run *)
type part = {
  p_queries : Drive.sample array;
  p_wall_s : float;
  p_ingest : Drive.ingest;
  p_cpu_s : float;
  p_rss_mb : float;
  p_plan_cache : (string * int) list;
}

let run_e2e ~tcsq ~quick ~seed ~seconds (w : Inputs.workload) =
  let scale = if quick then quick_scale else 1.0 in
  let g = Tgraph.Dataset.graph ~scale w.Inputs.dataset in
  let pool = if quick then quick_pool w g else Inputs.load inputs_dir w in
  let qs =
    Array.map
      (fun q -> Drive.compile g q.Inputs.text (Some q.Inputs.expected))
      pool.Inputs.queries
  in
  let c = Drive.counts () in
  let servers = if quick then 2 else servers_per_run in
  let n = n_batches ~quick ~seconds w / servers in
  let streams =
    Array.init servers (fun j ->
        Inputs.batches ~seed ~stream:j g ~n ~size:Drive.batch_size)
  in
  let ops = ops ~quick ~seed ~seconds w (Array.length qs) in
  let share = Array.length ops / servers in
  (* set-up, several times; the last [servers] servers run the workload *)
  let setups = if quick then servers else 7 in
  let setup_s = Array.make setups 0.0 in
  for i = 0 to setups - servers - 1 do
    let s, conn, t = Server.start ~tcsq ~dataset:w.Inputs.dataset ~scale in
    setup_s.(i) <- t;
    Server.stop s ~others:[] conn
  done;
  (* the standing queries: stack-ingest's own; on the query-only
     workloads, the ingest probe's one, the pool's most selective query *)
  let subs =
    match w.Inputs.kind with
    | Inputs.Ingest -> pool.Inputs.subs
    | Inputs.Sweep | Inputs.Hot ->
        let probe =
          Array.fold_left
            (fun best (q : Inputs.query) ->
              if q.Inputs.expected < best.Inputs.expected then q else best)
            pool.Inputs.queries.(0) pool.Inputs.queries
        in
        [| { Inputs.width = None; sub_text = probe.Inputs.text;
             snapshot = probe.Inputs.expected } |]
  in
  let part j =
    let srv, a, t = Server.start ~tcsq ~dataset:w.Inputs.dataset ~scale in
    setup_s.(setups - servers + j) <- t;
    let b =
      try C.connect srv.Server.socket
      with Unix.Unix_error (e, _, _) ->
        fail "connect" "second connection: %s" (Unix.error_message e)
    in
    (* untimed warm-up: every query once, checked against its count *)
    Array.iter
      (fun (cq : Drive.compiled) ->
        let r, _, _ = Drive.exchange "warm-up" a cq.Drive.line in
        Drive.account c ~what:cq.Drive.text r
          ?error:
            (Check.response ?expected:cq.Drive.expected ~limit:Drive.limit g
               ~text:cq.Drive.text cq.Drive.q r))
      qs;
    let counters () = Drive.plan_cache_counters "metrics" a in
    let delta c0 c1 = List.map2 (fun (k, v0) (_, v1) -> (k, v1 - v0)) c0 c1 in
    let batches = streams.(j) in
    let rebuilt () =
      Workload.Engine.prepare
        (Tgraph.Graph.append g (List.concat (Array.to_list batches)))
    in
    let ingest_phase schedule subs b_ops pc =
      Drive.ingest_phase ~base_edges:(Tgraph.Graph.n_edges g)
        ~generation0:(List.assoc "generation" pc) ~schedule
        ~burst:(Array.length qs) ~every:burst_every a b c subs qs b_ops
        (Array.map (Inputs.ingest_line g) batches)
    in
    let timed f =
      let pc0 = counters () and cpu0 = Server.cpu_seconds srv in
      let v = f () in
      (v, Server.cpu_seconds srv -. cpu0, delta pc0 (counters ()))
    in
    let ops = Array.sub ops (j * share) share in
    let queries, wall, ingest, cpu, pc =
      match w.Inputs.kind with
      | Inputs.Sweep | Inputs.Hot ->
          let (samples, wall), cpu, pc =
            timed (fun () ->
                let t0 = now () in
                let samples = Drive.query_phase "query phase" a qs ops in
                (samples, now () -. t0))
          in
          (* the ingest probe: stack-ingest's batches, closed loop, with
             no queries in flight *)
          let states = Array.map (Drive.subscribe "subscribe" b c g) subs in
          let ing = ingest_phase Drive.Closed states [||] (counters ()) in
          Drive.final_checks b c ~rebuilt:(rebuilt ()) states qs [||];
          (samples, wall, ing, cpu, pc)
      | Inputs.Ingest ->
          let states = Array.map (Drive.subscribe "subscribe" b c g) subs in
          let schedule = Drive.Every (if quick then 0.1 else ingest_period) in
          let ing, cpu, pc =
            timed (fun () -> ingest_phase schedule states ops (counters ()))
          in
          Drive.final_checks b c ~rebuilt:(rebuilt ()) states qs ing.Drive.b_samples;
          (ing.Drive.b_samples, ing.Drive.b_busy_s, ing, cpu, pc)
    in
    let rss_mb = Server.rss_peak_mb srv in
    Server.stop srv ~others:[ b ] a;
    { p_queries = queries; p_wall_s = wall; p_ingest = ingest; p_cpu_s = cpu;
      p_rss_mb = rss_mb; p_plan_cache = pc }
  in
  let parts = Array.to_list (Array.init servers part) in
  let cat f = Array.concat (List.map f parts) in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 parts in
  let ing f = cat (fun p -> f p.p_ingest) in
  let ingest =
    {
      Drive.ingest_ms = ing (fun i -> i.Drive.ingest_ms);
      delta_ms = ing (fun i -> i.Drive.delta_ms);
      opens_burst = ing (fun i -> i.Drive.opens_burst);
      delta_server_ms = ing (fun i -> i.Drive.delta_server_ms);
      delta_matches =
        List.fold_left (fun acc p -> acc + p.p_ingest.Drive.delta_matches) 0 parts;
      b_samples = ing (fun i -> i.Drive.b_samples);
      b_busy_s = sum (fun p -> p.p_ingest.Drive.b_busy_s);
      lateness_ms =
        List.fold_left (fun acc p -> Float.max acc p.p_ingest.Drive.lateness_ms) 0.0 parts;
    }
  in
  let queries = cat (fun p -> p.p_queries) in
  (match w.Inputs.kind with
  | Inputs.Sweep | Inputs.Hot -> Array.iter (Drive.check_sample g c qs) queries
  | Inputs.Ingest -> ());
  {
    w; c; setup_s; queries;
    query_wall_s = sum (fun p -> p.p_wall_s);
    ingest;
    cpu_s = sum (fun p -> p.p_cpu_s);
    rss_mb = List.fold_left (fun acc p -> Float.max acc p.p_rss_mb) 0.0 parts;
    plan_cache =
      List.map
        (fun (k, _) ->
          (k, List.fold_left (fun acc p -> acc + List.assoc k p.p_plan_cache) 0 parts))
        (List.hd parts).p_plan_cache;
    pool; subs;
    lines = Array.map (Inputs.ingest_line g) streams.(0);
  }

(* ---- metrics ---- *)

let need what a =
  if Array.length a = 0 then fail "metrics" "no %s samples" what;
  a

(* a per-batch array split into the batches no query burst met and
   those one did *)
let by_burst r a =
  let quiet, met =
    List.partition
      (fun (k, _) -> not r.ingest.Drive.opens_burst.(k))
      (List.mapi (fun k v -> (k, v)) (Array.to_list a))
  in
  let values l = Array.of_list (List.map snd l) in
  (values quiet, values met)

let e2e_metrics r =
  let lat = need "query" (Array.map (fun s -> s.Drive.latency_ms) r.queries) in
  let ing = need "ingest" (fst (by_burst r r.ingest.Drive.ingest_ms)) in
  let dl = need "delta" (fst (by_burst r r.ingest.Drive.delta_ms)) in
  [
    ("setup_s", median r.setup_s, "s");
    ("query_p50_ms", median lat, "ms");
    ("query_tail_ms", tail lat, "ms");
    ("query_qps", float_of_int (Array.length lat) /. r.query_wall_s, "1/s");
    ("ingest_p50_ms", median ing, "ms");
    ("ingest_tail_ms", tail ing, "ms");
    ("delta_p50_ms", median dl, "ms");
    ("server_cpu_s", r.cpu_s, "s");
    ("server_rss_peak_mb", r.rss_mb, "MB");
  ]

let elapsed s = Option.value s.Drive.resp.P.elapsed_ms ~default:nan

(* exact sums of the response stats over one pass of the distinct
   queries: each query's last timed execution *)
let pass_stats r =
  let last = Hashtbl.create 32 in
  Array.iter (fun s -> Hashtbl.replace last s.Drive.op s) r.queries;
  let sum key =
    Hashtbl.fold
      (fun _ s acc -> acc + Option.value (List.assoc_opt key s.Drive.stats) ~default:0)
      last 0
  in
  List.map
    (fun k -> ("core.tsrjoin." ^ k, float_of_int (sum k), "count"))
    Drive.stat_keys

let query_layers =
  [ "semantics.qlang.parse"; "semantics.fingerprint"; "analysis.lint";
    "analysis.tighten"; "core.plan.build"; "workload.plan_cache.lookup";
    "core.tsrjoin.run"; "server.protocol.serialize"; "server.client.parse" ]

(* the layers a request passes outside the server's execute time *)
let fixed_cost_layers =
  List.filter
    (fun n ->
      not (List.mem n [ "core.plan.build"; "workload.plan_cache.lookup"; "core.tsrjoin.run" ]))
    query_layers

let ingest_layers =
  [ "server.protocol.ingest_parse"; "core.incremental.add"; "core.tai.merge";
    "workload.engine.prepare_with_tai"; "server.subscription.on_ingest" ]

let setup_layers = [ "tgraph.dataset.graph"; "core.tai.build"; "workload.engine.prepare" ]

(* at most this many batches are replayed in-process *)
let replay_batches = 16

let layer_metrics ~quick r =
  let scale = if quick then quick_scale else 1.0 in
  let exec = Array.map elapsed r.queries in
  let overhead = Array.map (fun s -> s.Drive.latency_ms -. elapsed s) r.queries in
  let kb = Array.map (fun s -> float_of_int s.Drive.bytes /. 1024.0) r.queries in
  let pc k = float_of_int (List.assoc k r.plan_cache) in
  let from_run =
    [
      ("server.execute_ms", median exec, "ms");
      ("server.overhead_ms", median overhead, "ms");
      ("server.response_kb", median kb, "KiB");
    ]
    @ pass_stats r
    @ List.map
        (fun k -> ("workload.plan_cache." ^ k, pc k, "count"))
        [ "hits"; "misses"; "replans"; "invalidations" ]
    @ [
        ( "server.subscription.delta_ms",
          median (need "delta frame" r.ingest.Drive.delta_server_ms), "ms" );
        ( "server.subscription.delta_matches",
          float_of_int r.ingest.Drive.delta_matches, "count" );
      ]
  in
  (* the replay: set-up, then the query path over the pool, then the
     ingest path over the run's own batches *)
  Hashtbl.reset Replay.layers;
  let engine = Replay.setup ~reps:(if quick then 1 else 3) r.w.Inputs.dataset ~scale in
  let texts = Array.map (fun q -> q.Inputs.text) r.pool.Inputs.queries in
  let overhead_pct = Replay.query_path ~budget:(if quick then 0.2 else 3.0) engine texts in
  let k = min replay_batches (Array.length r.lines) in
  Replay.ingest_path engine r.subs (Array.sub r.lines 0 k);
  let both unit scale names =
    List.concat_map
      (fun n ->
        [ (n ^ "_" ^ unit, Replay.ms n *. scale, unit); (n ^ "_kw", Replay.kw n, "kw") ])
      names
  in
  let fixed = List.fold_left (fun acc n -> acc +. Replay.ms n) 0.0 fixed_cost_layers in
  from_run
  @ both "ms" 1.0 query_layers
  @ both "ms" 1.0 ingest_layers
  @ both "s" 0.001 setup_layers
  @ [
      ( "core.tai.size_mb",
        float_of_int (Tcsq_core.Tai.size_words (Workload.Engine.tai engine) * 8)
        /. 1048576.0, "MB" );
      ("traced.unattributed_ms", median overhead -. fixed, "ms");
      ("traced.timer_overhead_pct", overhead_pct, "%");
    ]

(* ---- output ---- *)

let result_json ~correct ~attempted ~failed metrics =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else fail "metrics" "a metric is not a finite number"
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
          metrics))

let report_errors r =
  List.iter (fun e -> log "check failed: %s" e) (List.rev r.c.Drive.errors)

let summary r =
  log "%s: %d operations, %d failed, %d timed queries in %.2f s, %d batches (worst send lag %.1f ms)"
    r.w.Inputs.name r.c.Drive.attempted r.c.Drive.failed (Array.length r.queries)
    r.query_wall_s (Array.length r.ingest.Drive.ingest_ms) r.ingest.Drive.lateness_ms;
  log "set-up s: %s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") r.setup_s)));
  let lat = Array.map (fun s -> s.Drive.latency_ms) r.queries in
  log "query latency ms at p10/p25/p50/p75/p90/p95/p99: %s (query_tail_ms is p%d of %d)"
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%.2f" (percentile lat p))
          [ 10; 25; 50; 75; 90; 95; 99 ]))
    (tail_pct (Array.length lat)) (Array.length lat);
  let quiet_ms, met_ms = by_burst r r.ingest.Drive.ingest_ms in
  log "ingest ack ms, median: %.1f over the %d batches no query burst met%s"
    (median quiet_ms) (Array.length quiet_ms)
    (if met_ms = [||] then ""
     else Printf.sprintf "; %.1f over the %d it met" (median met_ms) (Array.length met_ms))

(* ---- commands ---- *)

(* a run is correct when no output check failed *)
let passed c = c.Drive.errors = []

let run_one ~tcsq ~seed ~seconds ~trace w =
  let r = run_e2e ~tcsq ~quick:false ~seed ~seconds w in
  summary r;
  report_errors r;
  let metrics = if trace then layer_metrics ~quick:false r else e2e_metrics r in
  let correct = passed r.c in
  print_endline
    (result_json ~correct ~attempted:r.c.Drive.attempted ~failed:r.c.Drive.failed metrics);
  if correct then 0 else 1

(* the run's own accounting must catch an altered expected count, mark
   the run incorrect and name the query *)
let self_test_check r =
  let s = r.queries.(0) in
  let text = r.pool.Inputs.queries.(s.Drive.op).Inputs.text in
  let g = Tgraph.Dataset.graph ~scale:quick_scale r.w.Inputs.dataset in
  let wrong = Option.value s.Drive.resp.P.count ~default:0 + 1 in
  let c = Drive.counts () in
  Drive.check_sample g c [| Drive.compile g text (Some wrong) |] { s with Drive.op = 0 };
  if passed c || c.Drive.failed <> 1 || not (List.exists (fun m -> contains m text) c.Drive.errors)
  then fail "self-test" "an altered expected count went unnoticed"

let run_quick ~tcsq =
  let ok = ref true in
  List.iter
    (fun w ->
      let r = run_e2e ~tcsq ~quick:true ~seed:1 ~seconds:1.0 w in
      summary r;
      report_errors r;
      if (not (passed r.c)) || r.c.Drive.failed > 0 then ok := false;
      self_test_check r;
      let metrics = e2e_metrics r @ layer_metrics ~quick:true r in
      List.iter (fun (n, v, u) -> log "  %-40s %14.4f %s" n v u) metrics)
    Inputs.workloads;
  if !ok then (log "quick mode: every workload passed"; 0)
  else (log "quick mode: FAILED"; 1)

let regen () =
  List.iter
    (fun w ->
      let g = Tgraph.Dataset.graph w.Inputs.dataset in
      let engine = Workload.Engine.prepare g in
      let p = Inputs.path inputs_dir w in
      Out_channel.with_open_bin p (fun oc ->
          output_string oc (Inputs.to_tsv w (Inputs.generate ~quick:false w engine)));
      log "wrote %s" p)
    Inputs.workloads;
  0

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let tcsq = ref "_build/default/bin/tcsq.exe" and quick = ref false in
  let regen_mode = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S nominal run length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--tcsq", Arg.Set_string tcsq, "EXE the tcsq binary to serve with");
      ("--quick", Arg.Set quick, " every workload at small scale, all checks");
    ]
  in
  let anon = function
    | "regen" -> regen_mode := true
    | a -> raise (Arg.Bad ("unexpected argument " ^ a))
  in
  Arg.parse spec anon "perfbench: end-to-end benchmark of tcsq serve";
  if !regen_mode then regen ()
  else if !quick then run_quick ~tcsq:!tcsq
  else
    match Inputs.find !workload with
    | None ->
        log "unknown workload %S (have: %s)" !workload
          (String.concat ", " (List.map (fun w -> w.Inputs.name) Inputs.workloads));
        2
    | Some w ->
        if not (Sys.file_exists !tcsq) then fail "start" "no tcsq binary at %s" !tcsq;
        run_one ~tcsq:!tcsq ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) w

exception Interrupted of int

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun n -> raise (Interrupted n))))
    [ Sys.sigint; Sys.sigterm ];
  at_exit Server.cleanup;
  let code =
    match main () with
    | code -> code
    | exception Step_failed msg ->
        log "FAILED at %s" msg;
        1
    | exception Interrupted _ ->
        log "interrupted";
        130
  in
  Server.cleanup ();
  exit code
