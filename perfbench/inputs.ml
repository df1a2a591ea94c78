(* The three workloads and the inputs they send.

   Query pools are drawn with [Workload.Query_gen]-style rejection
   sampling against the workload's dataset and stored in
   perfbench/inputs/<workload>.tsv with their expected result counts;
   drawing the caida chains takes seconds per query, so full-scale runs
   read the stored pools and `run.py regen` rewrites them byte for byte.
   Expected counts always come from the relops STI-CP baseline
   ([Engine.Time]), which shares no join code with TSRJoin. Ingest
   batches and the order of every operation are drawn from the run's
   seed. *)

open Semantics
open Common

type kind = Sweep | Hot | Ingest

type workload = { name : string; dataset : Tgraph.Dataset.name; kind : kind }

let workloads =
  [
    { name = "caida-sweep"; dataset = Tgraph.Dataset.Caida; kind = Sweep };
    { name = "yellow-hot"; dataset = Tgraph.Dataset.Yellow; kind = Hot };
    { name = "stack-ingest"; dataset = Tgraph.Dataset.Stack; kind = Ingest };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

type query = { shape : string; text : string; expected : int }

(* a standing query: [width = None] keeps the query's own window,
   [Some w] slides a w-wide window along the stream head *)
type sub = { width : int option; sub_text : string; snapshot : int }

type pool = { queries : query array; subs : sub array }

let baseline_count engine q = Workload.Engine.count engine Workload.Engine.Time q

(* ---- pool generation ---- *)

(* Rejection sampling as in [Workload.Query_gen]: distinct labels drawn
   uniformly, a window from [window], kept iff TSRJoin finds between [lo]
   and [hi] results within 1M intermediates, far below the server's
   default budget (5M), so no request is truncated. The stored expected
   count is the baseline's. *)
let draw engine rng shape ~window ~lo ~hi ~want ~attempts =
  let g = Workload.Engine.graph engine in
  let n_labels = Tgraph.Graph.n_labels g in
  let k = Pattern.n_edges shape in
  let rec go acc n tries =
    if n = want || tries = attempts then List.rev acc
    else begin
      let labels = Array.init n_labels Fun.id in
      let labels = Array.sub (shuffle rng labels) 0 k in
      let q = Pattern.instantiate shape ~labels ~window:(window rng) in
      let stats =
        Run_stats.create
          ~limits:{ Run_stats.max_results = hi; max_intermediate = 1_000_000 }
          ()
      in
      match Workload.Engine.count ~stats engine Workload.Engine.Tsrjoin q with
      | exception Run_stats.Limit_exceeded _ -> go acc n (tries + 1)
      | c when c < lo -> go acc n (tries + 1)
      | _ ->
          let expected = baseline_count engine q in
          let entry =
            { shape = Pattern.to_string shape; text = Qlang.render g q; expected }
          in
          go (entry :: acc) (n + 1) (tries + 1)
    end
  in
  go [] 0 0

let fraction_window g frac rng =
  Tgraph.Graph.window_of_fraction g ~frac ~at:(Random.State.float rng 1.0)

(* windows a tenth of the domain wide that reach past the stream head, so
   their counts grow as batches arrive *)
let tail_window g rng =
  let d = Tgraph.Graph.time_domain g in
  let width = Temporal.Interval.length d / 10 in
  let hi = Temporal.Interval.te d in
  let ws = hi - width + Random.State.int rng (3 * width / 4) in
  Temporal.Interval.make ws (ws + width - 1)

let generate ~quick w engine =
  let g = Workload.Engine.graph engine in
  let per_shape full small = if quick then small else full in
  let draw_all shapes ~window ~lo ~hi ~want =
    List.concat
      (List.mapi
         (fun i shape ->
           let rng = rng (1009 * (i + 1)) w.name in
           draw engine rng shape ~window ~lo ~hi ~want ~attempts:(400 * want))
         shapes)
  in
  match w.kind with
  | Sweep ->
      let queries =
        draw_all
          [ Pattern.Chain 3; Pattern.Cycle 3; Pattern.Cycle 4; Pattern.Star 3 ]
          ~window:(fraction_window g 0.1) ~lo:1 ~hi:100_000
          ~want:(per_shape 8 2)
      in
      { queries = Array.of_list queries; subs = [||] }
  | Hot ->
      (* selective shapes that still fill a 100-match response *)
      let queries =
        draw_all [ Pattern.Star 3; Pattern.Chain 4 ]
          ~window:(fraction_window g 0.05)
          ~lo:(if quick then 1 else 100)
          ~hi:3000 ~want:5
      in
      { queries = Array.of_list queries; subs = [||] }
  | Ingest ->
      let queries =
        Array.of_list
          (draw_all [ Pattern.Star 3; Pattern.Chain 3; Pattern.Cycle 3 ]
             ~window:(tail_window g) ~lo:1 ~hi:5000 ~want:3)
      in
      let fixed q = { width = None; sub_text = q.text; snapshot = q.expected } in
      (* the sliding subscription reuses a triangle's labels over a
         window half as wide, anchored at the head *)
      let tri = queries.(Array.length queries - 1) in
      let width = Temporal.Interval.length (Tgraph.Graph.time_domain g) / 20 in
      let head = Temporal.Interval.te (Tgraph.Graph.time_domain g) in
      let slide_q =
        match Qlang.parse_and_compile g tri.text with
        | Ok q -> Query.with_window q (Temporal.Interval.make (head - width + 1) head)
        | Error msg -> fail "inputs" "cannot re-read %S: %s" tri.text msg
      in
      let slide =
        { width = Some width; sub_text = Qlang.render g slide_q;
          snapshot = baseline_count engine slide_q }
      in
      { queries; subs = [| fixed queries.(0); fixed queries.(3); slide |] }

(* ---- stored pools ---- *)

let path dir w = Filename.concat dir (w.name ^ ".tsv")

let header w =
  Printf.sprintf
    "# %s: %s at scale 1.0; expected counts from the relops STI-CP baseline.\n\
     # Regenerate with: python3 perfbench/run.py regen\n"
    w.name (Tgraph.Dataset.to_string w.dataset)

let to_tsv w pool =
  let b = Buffer.create 4096 in
  Buffer.add_string b (header w);
  Array.iter
    (fun q ->
      Buffer.add_string b
        (Printf.sprintf "query\t%s\t%d\t%s\n" q.shape q.expected q.text))
    pool.queries;
  Array.iter
    (fun s ->
      let width = match s.width with None -> "fixed" | Some w -> string_of_int w in
      Buffer.add_string b
        (Printf.sprintf "sub\t%s\t%d\t%s\n" width s.snapshot s.sub_text))
    pool.subs;
  Buffer.contents b

let of_tsv w contents =
  let queries = ref [] and subs = ref [] in
  List.iteri
    (fun i line ->
      if line <> "" && line.[0] <> '#' then
        match String.split_on_char '\t' line with
        | [ "query"; shape; n; text ] ->
            queries := { shape; text; expected = int_of_string n } :: !queries
        | [ "sub"; width; n; sub_text ] ->
            let width =
              if width = "fixed" then None else Some (int_of_string width)
            in
            subs := { width; sub_text; snapshot = int_of_string n } :: !subs
        | _ -> fail "inputs" "%s line %d is malformed" w.name (i + 1))
    (String.split_on_char '\n' contents);
  { queries = Array.of_list (List.rev !queries); subs = Array.of_list (List.rev !subs) }

let read_file p = In_channel.with_open_bin p In_channel.input_all

let load dir w =
  let p = path dir w in
  match read_file p with
  | s -> of_tsv w s
  | exception Sys_error msg -> fail "inputs" "cannot read %s: %s" p msg

(* ---- ingest batches ---- *)

(* Seeded batches that continue the dataset's stream: each edge repeats
   the endpoints, label and duration of a random existing edge (so degree
   skew and label affinity hold) and ends in the batch's slice of time
   past the stream head. Slices are as long as the base graph needs for
   [size] edges, so density holds too. Each [stream] is drawn on its
   own. *)
let batches ~seed ~stream g ~n ~size =
  let rng = rng seed (if stream = 0 then "batches" else Printf.sprintf "batches-%d" stream) in
  let m = Tgraph.Graph.n_edges g in
  let d = Tgraph.Graph.time_domain g in
  let step = max 1 (size * Temporal.Interval.length d / m) in
  let head = Temporal.Interval.te d in
  Array.init n (fun b ->
      List.init size (fun _ ->
          let e = Tgraph.Graph.edge g (Random.State.int rng m) in
          let te = head + (b * step) + 1 + Random.State.int rng step in
          let dur = Tgraph.Edge.te e - Tgraph.Edge.ts e in
          (Tgraph.Edge.src e, Tgraph.Edge.dst e, Tgraph.Edge.lbl e, max 0 (te - dur), te)))

let ingest_line g batch =
  let module J = Tcsq_server.Json in
  let labels = Tgraph.Graph.labels g in
  J.to_string
    (J.Obj
       [
         ("op", J.String "ingest");
         ( "edges",
           J.List
             (List.map
                (fun (src, dst, lbl, ts, te) ->
                  J.Obj
                    [
                      ("src", J.Int src);
                      ("dst", J.Int dst);
                      ("label", J.String (Tgraph.Label.name labels lbl));
                      ("ts", J.Int ts);
                      ("te", J.Int te);
                    ])
                batch) );
       ])

let query_line ?(count_only = false) text =
  Tcsq_server.Json.to_string (Tcsq_server.Client.query_json ~count_only text)

(* [text] with its IN window replaced *)
let with_window g text iv =
  match Qlang.parse_and_compile g text with
  | Ok q -> Qlang.render g (Query.with_window q iv)
  | Error msg -> fail "inputs" "cannot re-read %S: %s" text msg
