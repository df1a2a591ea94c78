(* Output checks that do not replay the engine: each returned match is
   checked for its defining properties against the graph the benchmark
   generated itself, and each count against an expected count computed
   by an independent method. Every failure message names the query. *)

open Semantics

(* one edge per query edge, labels as queried, endpoints bound
   consistently, lifespan = the non-empty intersection of the edges'
   intervals, overlapping the window *)
let match_errors g q (m : Match_result.t) =
  let n = Query.n_edges q in
  let ids = m.Match_result.edges in
  if Array.length ids <> n then
    Some (Printf.sprintf "match has %d edges, query has %d" (Array.length ids) n)
  else if Array.exists (fun id -> id < 0 || id >= Tgraph.Graph.n_edges g) ids
  then Some "match names an edge id the graph does not have"
  else begin
    let bind = Array.make (Query.n_vars q) (-1) in
    let bind_ok v x =
      if bind.(v) = -1 then (bind.(v) <- x; true) else bind.(v) = x
    in
    let ts = ref min_int and te = ref max_int in
    let bad = ref None in
    Array.iteri
      (fun i id ->
        let e = Tgraph.Graph.edge g id in
        let qe = Query.edge q i in
        if qe.Query.lbl <> Query.any_label && qe.Query.lbl <> Tgraph.Edge.lbl e
        then bad := Some (Printf.sprintf "edge %d has the wrong label" id)
        else if
          not
            (bind_ok qe.Query.src_var (Tgraph.Edge.src e)
            && bind_ok qe.Query.dst_var (Tgraph.Edge.dst e))
        then bad := Some (Printf.sprintf "edge %d breaks an endpoint binding" id);
        ts := max !ts (Tgraph.Edge.ts e);
        te := min !te (Tgraph.Edge.te e))
      ids;
    let life = m.Match_result.life in
    match !bad with
    | Some _ as b -> b
    | None when !ts > !te -> Some "edges' intervals do not intersect"
    | None
      when Temporal.Interval.ts life <> !ts || Temporal.Interval.te life <> !te ->
        Some
          (Printf.sprintf "lifespan [%d, %d] is not the intersection [%d, %d]"
             (Temporal.Interval.ts life) (Temporal.Interval.te life) !ts !te)
    | None
      when not
             (Temporal.Interval.overlaps_window life ~ws:(Query.ws q)
                ~we:(Query.we q)) ->
        Some "lifespan does not overlap the window"
    | None -> None
  end

let first_error g q matches =
  let seen = Hashtbl.create 64 in
  List.find_map
    (fun m ->
      if Hashtbl.mem seen m.Match_result.edges then Some "duplicate match"
      else begin
        Hashtbl.add seen m.Match_result.edges ();
        match_errors g q m
      end)
    matches

(* a query response: [expected] is the independent count, when known;
   [limit] is how many matches the server echoes back *)
let response ?expected ~limit g ~text q (r : Tcsq_server.Protocol.response) =
  let count = Option.value r.Tcsq_server.Protocol.count ~default:(-1) in
  let shipped = List.length r.Tcsq_server.Protocol.matches in
  let err =
    match expected with
    | Some e when e <> count ->
        Some (Printf.sprintf "count %d, expected %d" count e)
    | _ ->
        if shipped <> min count limit then
          Some (Printf.sprintf "%d matches shipped for count %d" shipped count)
        else first_error g q r.Tcsq_server.Protocol.matches
  in
  Option.map (fun e -> Printf.sprintf "query %S: %s" text e) err
