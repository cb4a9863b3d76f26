(* The bench's measuring and reporting plumbing, kept once for every
   section: the wall clock, the sampler behind every timing gate, the
   budget rule, the gate verdicts and the BENCH_*.json writer. *)

module Json = Sigrec.Json

let wall f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Wall time plus this domain's Gc deltas. The allocation figures mean
   something only when [f] runs entirely in this domain (jobs=1). *)
let measured f =
  let g0 = Gc.quick_stat () in
  let v, t = wall f in
  let g1 = Gc.quick_stat () in
  ( v,
    t,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.major_words -. g0.Gc.major_words )

(* ---- sampling ------------------------------------------------------- *)

(* One side of a timed comparison: each run's wall time, their median,
   and the noise of that median — its relative standard error,
   1.253 sigma / sqrt runs, with sigma estimated robustly as 1.4826 x
   the median absolute deviation. Unlike max - min, this noise does not
   grow with the number of runs: sampling more shrinks it, so more runs
   only ever narrow a gate's budget. *)
type timing = { runs : float list; median : float; noise : float }

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let timing runs =
  let m = median runs in
  let mad = median (List.map (fun x -> Float.abs (x -. m)) runs) in
  let n = float_of_int (List.length runs) in
  let noise = 1.253 *. 1.4826 *. mad /. (Float.max 1e-9 m *. sqrt n) in
  { runs; median = m; noise }

let min_runs = 5

(* Runs per side for the gates with a 10% ratio bound (trace, metrics,
   serve pool): their batches take milliseconds, and on a shared 2-vCPU
   machine the median of 5 such runs is too noisy to resolve 10%. *)
let ratio_runs = 15

(* Time every side [runs] times (never fewer than [min_runs]), round by
   round, so whatever else the machine is doing lands on all sides
   alike. Within a round the sides run in list order, so a side may
   rely on state the side before it left behind. *)
let sample ?(runs = min_runs) sides =
  let runs = Stdlib.max min_runs runs in
  let times = List.map (fun _ -> ref []) sides in
  for _ = 1 to runs do
    List.iter2 (fun f acc -> acc := snd (wall f) :: !acc) sides times
  done;
  List.map (fun acc -> timing (List.rev !acc)) times

(* A timing gate's budget: its 10% bound, widened when the noise of
   the baseline side's median is too large to resolve 10%. [widen] and
   [slack] are the gate's own formula: 3 x noise + 2% (the defaults)
   for the trace, metrics and serve-pool gates, 1 x noise for the
   classification overhead gate. *)
let budget ?(widen = 3.0) ?(slack = 0.02) noise =
  Float.max 0.10 ((widen *. noise) +. slack)

(* Nanoseconds and minor words per call of a probe, over [ops] calls
   (10M by default). [loop ops] makes the calls itself, so the probe
   sits inline in the caller's own loop, as at a hot call site, rather
   than behind a closure call the measurement would include. *)
let per_op ?(ops = 10_000_000) loop =
  let m0 = Gc.minor_words () in
  let (), t = wall (fun () -> loop ops) in
  ( t *. 1e9 /. float_of_int ops,
    (Gc.minor_words () -. m0) /. float_of_int ops )

(* ---- gates ---------------------------------------------------------- *)

type verdict = Pass | Fail | Skipped

(* [key] names the gate in its section's BENCH file. *)
type gate = { name : string; key : string; verdict : verdict }

let gate ?key name ok =
  {
    name;
    key = Option.value key ~default:(name ^ "_gate");
    verdict = (if ok then Pass else Fail);
  }

let print_gates gates =
  Printf.printf "gates: %s\n"
    (String.concat ", "
       (List.map
          (fun g ->
            g.name ^ " "
            ^
            match g.verdict with
            | Pass -> "ok"
            | Fail -> "FAIL"
            | Skipped -> "skipped")
          gates))

(* ---- reports and BENCH files ---------------------------------------- *)

let int i = Json.Num (float_of_int i)
let num f = Json.Num f

(* A sampled side as its median plus every run, in run order *)
let timing_fields key t =
  [ (key, num t.median); (key ^ "_runs", Json.Arr (List.map num t.runs)) ]

let print_fields fields =
  List.iter
    (fun (k, v) -> Printf.printf "  %s: %s\n" k (Json.to_string v))
    fields

let write_bench file fields =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_string (Json.Obj fields));
      output_char oc '\n');
  Printf.printf "wrote %s\n" file

(* Close a section: print its fields and its gate line, write its
   BENCH file (if any) with the verdicts appended — a gate that never
   ran as "skipped", not as passed — and return the gates for --smoke
   to judge. *)
let conclude ?file fields gates =
  print_fields fields;
  print_gates gates;
  Option.iter
    (fun file ->
      write_bench file
        (fields
        @ List.map
            (fun g ->
              ( g.key,
                match g.verdict with
                | Pass -> Json.Bool true
                | Fail -> Json.Bool false
                | Skipped -> Json.Str "skipped" ))
            gates))
    file;
  gates
