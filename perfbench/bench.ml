(* The benchmark named in BENCHMARK.json.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 runs the workload untraced for about S seconds and reports
   the end-to-end metrics; --trace 1 runs the traced pass and reports
   the per-layer metrics, writing every span to
   .bench_build/spans/NAME-seedN.jsonl. Both check the program's output
   (byte-identical to a reference pass at another jobs setting, answers
   scored against the generator's ground truth) and print, as the last
   line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
   A failed check also makes the exit code 1. *)

let workloads = [ "cold_batch"; "wide_dispatch" ]

(* Run [seconds] of the workload, untraced, calling [between] after
   every timed call. *)
let run_e2e name ~seed ~seconds ~between =
  match name with
  | "cold_batch" -> Cold.run ~seed ~seconds ~between
  | _ -> Wide.run ~seed ~seconds ~between

let run_traced name ~seed ~seconds =
  match name with
  | "cold_batch" -> Cold.traced ~seed ~seconds
  | _ -> Wide.traced ~seed ~seconds

(* Set-up mode: make the engine the workload's timed part makes, then
   report ready (see Common.setup_sample). *)
let setup name =
  Common.ready_after_setup (fun () ->
      match name with
      | "cold_batch" -> Cold.engine ~jobs:1
      | _ -> Sigrec.Engine.make (Common.config ~jobs:1 ()))

(* Every figure named for a single workload; each workload
   prints all of them, "skipped" where it does not run them. *)
let named_notes =
  [
    "contract_p50_ms";
    "contract_p90_ms";
    "scaling_slope";
  ]

(* Summed layer self time may leave at most this share of the untraced
   jobs=1 time unaccounted for, or exceed it by this much (tracing
   overhead, and what a shared machine's load does to two passes timed
   one after the other). *)
let coverage_bound = 0.3

let metric name value unit = (name, value, unit)

let print_result ~checks ~attempted ~failed metrics =
  let correct = List.for_all snd checks in
  List.iter
    (fun (what, ok) -> Printf.printf "check %-44s %s\n" what (if ok then "ok" else "FAILED"))
    checks;
  List.iter (fun (n, v, u) -> Printf.printf "metric %-32s %.6g %s\n" n v u) metrics;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    attempted failed
    (String.concat ","
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" n v u)
          metrics));
  if not correct then exit 1

(* setup_s is the median of at least this many set-up samples, one
   taken after every timed call, next to a timing of the speed kernel
   (Common.kernel). *)
let setup_samples = 41

let e2e name ~seed ~seconds =
  let samples = ref [] and kernel = ref [] in
  let between () =
    samples := Common.setup_sample ~workload:name :: !samples;
    kernel := Common.kernel_seconds () :: !kernel
  in
  let r = run_e2e name ~seed ~seconds ~between in
  while List.length !samples < setup_samples do
    between ()
  done;
  let setup_s = Common.median !samples in
  (* > 1 on a machine slower than the reference; divides every time *)
  let slowdown = Common.minimum !kernel /. Common.kernel_ref_s in
  Printf.printf "info  %-30s %d\n" "setup_samples" (List.length !samples);
  Printf.printf "info  %-30s %.6g (fastest kernel %.6g s over reference %.6g s)\n" "slowdown"
    slowdown (Common.minimum !kernel) Common.kernel_ref_s;
  Printf.printf "info  %-30s %.6g 1/s, p50 %.6g ms, tail %.6g ms, set-up %.6g s\n" "unscaled"
    r.Common.throughput_cps r.Common.latency_p50_ms r.Common.latency_tail_ms setup_s;
  List.iter
    (fun key ->
      match List.assoc_opt key r.Common.notes with
      | Some (v, unit) -> Printf.printf "named %-30s %.6g %s\n" key v unit
      | None -> Printf.printf "named %-30s skipped\n" key)
    named_notes;
  List.iter
    (fun (key, (v, unit)) ->
      if not (List.mem key named_notes) then Printf.printf "info  %-30s %.6g %s\n" key v unit)
    r.Common.notes;
  Printf.printf "info  %-30s %d, tail = %s\n" "latency_samples" r.Common.samples r.Common.tail;
  Printf.printf "info  %-30s %.6g fraction\n" "failed_fraction"
    (float_of_int r.Common.failed /. float_of_int (Stdlib.max 1 r.Common.attempted));
  print_result ~checks:r.Common.checks ~attempted:r.Common.attempted ~failed:r.Common.failed
    [
      metric "setup_s" (setup_s /. slowdown) "s";
      metric "throughput_cps" (r.Common.throughput_cps *. slowdown) "1/s";
      metric "latency_p50_ms" (r.Common.latency_p50_ms /. slowdown) "ms";
      metric "latency_tail_ms" (r.Common.latency_tail_ms /. slowdown) "ms";
      metric "minor_words_per_contract" r.Common.words_per_contract "words";
      metric "peak_heap_mb" r.Common.heap_mb "MB";
      metric "accuracy"
        (float_of_int r.Common.right /. float_of_int (Stdlib.max 1 r.Common.answers))
        "fraction";
      metric "ok_fraction"
        (1.0 -. (float_of_int r.Common.failed /. float_of_int (Stdlib.max 1 r.Common.attempted)))
        "fraction";
    ]

let traced name ~seed ~seconds =
  let t = run_traced name ~seed ~seconds in
  let s = t.Common.summary in
  let off_path = [ "layout"; "classify.run" ] in
  let layer l =
    let calls, sec, words = List.assoc l s.Layers.per_call in
    match t.Common.probe_summary with
    | Some p when calls = 0 && List.mem l off_path ->
      let c, sec, words = List.assoc l p.Layers.per_call in
      (c, sec, words, "off-path probe")
    | _ -> (calls, sec, words, if calls = 0 then "skipped" else "")
  in
  Printf.printf "%-20s %8s %12s %12s %10s  %s\n" "layer" "calls" "self us" "self words"
    "share" "";
  let rows =
    List.map
      (fun l ->
        let calls, sec, words, note = layer l in
        let share =
          if note = "" then float_of_int calls *. sec /. t.Common.sequential_s else 0.0
        in
        Printf.printf "%-20s %8d %12.3f %12.1f %9.1f%%  %s\n" l calls (sec *. 1e6) words
          (share *. 100.0) note;
        (l, sec, words))
      (List.map fst s.Layers.per_call)
  in
  print_endline
    "rules = infer - symex.run (symex.run repeats the run inside Infer.infer, right after it)";
  let coverage = s.Layers.layer_s /. t.Common.sequential_s in
  let keccak_calls, keccak_s, _, _ = layer "keccak.digest" in
  let dir = Filename.concat ".bench_build" "spans" in
  (try Unix.mkdir ".bench_build" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.jsonl" name seed) in
  Span.write t.Common.spans path;
  Printf.printf "wrote %d spans to %s\n" t.Common.spans.Span.n path;
  Printf.printf "trace.coverage %.4f must lie within 1 +/- %.2f\n" coverage coverage_bound;
  print_result
    ~checks:
      (t.Common.t_checks
      @ [ ("trace.coverage within bound", Float.abs (coverage -. 1.0) <= coverage_bound) ])
    ~attempted:t.Common.t_attempted ~failed:t.Common.t_failed
    (List.concat_map
       (fun (l, sec, words) -> [ metric (l ^ ".us") (sec *. 1e6) "us"; metric (l ^ ".words") words "words" ])
       rows
    @ [
        metric "keccak.ns_per_byte"
          (float_of_int keccak_calls *. keccak_s *. 1e9
          /. float_of_int (Stdlib.max 1 t.Common.hashed_bytes))
          "ns/B";
        metric "warm.answer_us" t.Common.warm_us "us";
        metric "engine.analyses_per_input" t.Common.analyses_per_input "ratio";
        metric "lru.hit_ratio" t.Common.hit_ratio "ratio";
        metric "lru.evictions" (float_of_int t.Common.evictions) "count";
        metric "pool.parallel_efficiency"
          (t.Common.sequential_s /. t.Common.parallel_s /. float_of_int t.Common.jobs)
          "ratio";
        metric "trace.coverage" coverage "ratio";
        metric "trace.overhead_fraction" ((s.Layers.wall_s /. t.Common.sequential_s) -. 1.0) "ratio";
      ])

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | [ _; flag; name ] when flag = Common.setup_probe_flag -> setup name
  | _ ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
    Arg.parse
      [
        ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
        ("--seed", Arg.Set_int seed, "N input generator seed");
        ("--seconds", Arg.Set_float seconds, "S how long the timed part runs");
        ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
    if not (List.mem !workload workloads) then begin
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
    end;
    Printf.printf "workload %s seed %d seconds %g trace %d hardware_domains %d\n%!" !workload
      !seed !seconds !trace (Domain.recommended_domain_count ());
    if !trace = 0 then e2e !workload ~seed:!seed ~seconds:!seconds
    else traced !workload ~seed:!seed ~seconds:!seconds
