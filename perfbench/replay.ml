(* The traced replay: the workload's inputs once more, inside this
   process, with a wall-clock timer and the GC's minor-word counter
   around the public function of each layer the server calls. Nothing
   is traced inside the program. Each layer reports the median ms per
   call and the median minor-heap kilowords per call. *)

open Semantics
open Common

type layer = { mutable ms : float list; mutable kw : float list }

let layers : (string, layer) Hashtbl.t = Hashtbl.create 32
let tracing = ref true

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
      let l = { ms = []; kw = [] } in
      Hashtbl.add layers name l;
      l

(* [span name f] times [f] as one call of layer [name]; with [tracing]
   off it only calls [f] *)
let span name f =
  if not !tracing then f ()
  else begin
    let l = layer name in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    let w1 = Gc.minor_words () in
    l.ms <- ((t1 -. t0) *. 1000.0) :: l.ms;
    l.kw <- ((w1 -. w0) /. 1000.0) :: l.kw;
    r
  end

let med xs = median (Array.of_list xs)
let ms name = med (layer name).ms
let kw name = med (layer name).kw

let ok step = function Ok v -> v | Error msg -> fail step "%s" msg

(* ---- query path ---- *)

(* one request's path through the server, minus the socket: parse,
   fingerprint, lint, tighten, plan (fresh and from a warm cache), run
   with the cached plan, serialize the response, parse it as a client *)
let query_once engine cost cache text =
  let g = Workload.Engine.graph engine and tai = Workload.Engine.tai engine in
  let eq =
    ok "replay parse"
      (span "semantics.qlang.parse" (fun () -> Qlang.parse_and_compile_ext g text))
  in
  ignore (span "semantics.fingerprint" (fun () -> Fingerprint.of_equery eq));
  ignore
    (span "analysis.lint" (fun () ->
         Workload.Engine.analyze_ext engine Workload.Engine.Tsrjoin eq));
  let eq =
    span "analysis.tighten" (fun () -> Workload.Engine.tighten_ext engine eq)
  in
  let q = Equery.core eq in
  let fresh = span "core.plan.build" (fun () -> Tcsq_core.Plan.build ~cost tai q) in
  let plan =
    match
      span "workload.plan_cache.lookup" (fun () ->
          Workload.Plan_cache.lookup cache q)
    with
    | Workload.Plan_cache.Hit { plan; _ } -> plan
    | Workload.Plan_cache.Miss | Workload.Plan_cache.Replan _ ->
        Workload.Plan_cache.store cache q ~plan:fresh ~est_intermediate:0
          ~est_levels:[||];
        fresh
  in
  let stats = Run_stats.create () in
  let count = ref 0 and kept = ref [] in
  span "core.tsrjoin.run" (fun () ->
      Tcsq_core.Tsrjoin.run ~stats ~plan tai q ~emit:(fun m ->
          incr count;
          if !count <= Drive.limit then kept := m :: !kept));
  let line =
    span "server.protocol.serialize" (fun () ->
        Tcsq_server.Protocol.result_response ~graph:g ~truncated:None
          ~count:!count ~matches:(List.rev !kept) ~stats ~elapsed_ms:1.0 ())
  in
  ignore
    (ok "replay client parse"
       (span "server.client.parse" (fun () ->
            Tcsq_server.Protocol.parse_response line)))

(* Alternates untimed and timed passes over [texts] for about [budget]
   seconds (at least two of each); returns the timed passes' extra wall
   time over the untimed ones, in percent of the untimed median. *)
let query_path ~budget engine texts =
  let cost = Tcsq_core.Plan.cost_model (Workload.Engine.tai engine) in
  let cache = Workload.Plan_cache.create () in
  let pass () = Array.iter (query_once engine cost cache) texts in
  tracing := false;
  pass ();
  (* warm: every lookup from here on is a hit *)
  let untimed = ref [] and timed = ref [] in
  let t_end = now () +. budget in
  while List.length !timed < 2 || now () < t_end do
    tracing := false;
    let t0 = now () in
    pass ();
    untimed := (now () -. t0) :: !untimed;
    tracing := true;
    let t0 = now () in
    pass ();
    timed := (now () -. t0) :: !timed
  done;
  let u = med !untimed in
  (med !timed -. u) /. u *. 100.0

(* ---- ingest path ---- *)

let ingest_path engine (subs : Inputs.sub array) lines =
  let g = Workload.Engine.graph engine in
  let inc =
    Tcsq_core.Incremental.of_tai g (Workload.Engine.tai engine)
  in
  let registry = Tcsq_server.Subscription.create () in
  Array.iter
    (fun (s : Inputs.sub) ->
      let eq = ok "replay subscribe" (Qlang.parse_and_compile_ext g s.Inputs.sub_text) in
      ignore
        (Tcsq_server.Subscription.subscribe registry ~engine
           ?window_width:s.Inputs.width ~push:(fun _ -> ()) eq))
    subs;
  Array.iteri
    (fun i line ->
      let edges =
        match
          span "server.protocol.ingest_parse" (fun () ->
              Tcsq_server.Protocol.parse_request line)
        with
        | Ok (Tcsq_server.Protocol.Ingest ir) -> ir.Tcsq_server.Protocol.edges
        | _ -> fail "replay ingest" "batch %d does not parse as an ingest" i
      in
      let labels = Tgraph.Graph.labels g in
      span "core.incremental.add" (fun () ->
          List.iter
            (fun (e : Tcsq_server.Protocol.ingest_edge) ->
              let lbl = Tgraph.Label.intern labels e.Tcsq_server.Protocol.label in
              ignore
                (Tcsq_core.Incremental.add_edge inc ~src:e.Tcsq_server.Protocol.src
                   ~dst:e.Tcsq_server.Protocol.dst ~lbl ~ts:e.Tcsq_server.Protocol.ts
                   ~te:e.Tcsq_server.Protocol.te))
            edges);
      let tai = span "core.tai.merge" (fun () -> Tcsq_core.Incremental.tai inc) in
      let engine' =
        span "workload.engine.prepare_with_tai" (fun () ->
            Workload.Engine.prepare_with_tai (Tcsq_core.Incremental.graph inc) tai)
      in
      span "server.subscription.on_ingest" (fun () ->
          Tcsq_server.Subscription.on_ingest registry ~engine:engine'
            ~generation:(i + 1)))
    lines

(* ---- set-up ---- *)

let setup ~reps dataset ~scale =
  let cfg = Tgraph.Dataset.config ~scale dataset in
  let once () =
    let g = span "tgraph.dataset.graph" (fun () -> Tgraph.Generator.generate cfg) in
    ignore (span "core.tai.build" (fun () -> Tcsq_core.Tai.build ~with_eci:true g));
    span "workload.engine.prepare" (fun () -> Workload.Engine.prepare g)
  in
  for _ = 2 to reps do ignore (once ()) done;
  once ()
