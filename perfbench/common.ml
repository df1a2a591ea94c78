(* Shared helpers: failures that name their step, clocks, order
   statistics, and the seeded random streams every input is drawn
   from. *)

exception Step_failed of string

(* [fail "step" "fmt" ...] aborts the run; the message names the step. *)
let fail step fmt =
  Printf.ksprintf (fun msg -> raise (Step_failed (step ^ ": " ^ msg))) fmt

let now = Unix.gettimeofday
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* the nearest rank of percentile [p] among [n] samples *)
let rank p n = (p * n + 99) / 100

(* nearest-rank percentile, p in (0, 100] *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan else (sorted a).(max 0 (min (n - 1) (rank p n - 1)))

let median a = percentile a 50

(* the highest whole percentile of [n] samples with at least ten samples
   beyond it; the median when there are fewer than forty *)
let tail_pct n =
  let rec go p = if p <= 50 || n - rank p n >= 10 then max p 50 else go (p - 1) in
  go 99

let tail a = percentile a (tail_pct (Array.length a))

let rng seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0
