(* cold_batch: batch calls on multi-function contracts, each answering
   all three products the way an indexer meets a block of new contracts:
   `sigrec batch`, `classify --batch` and `layout --batch`
   (Engine.recover_all, classify_all and layout_all) on one engine whose
   caches are bounded below the corpus. Lift (disassembly, CFG,
   whole-contract absint, dispatcher ids), TASE and the storage pass do
   most of the work; the LRU answers a few repeats and evicts the rest. *)

(* A cycle of [batches] batch calls. Each batch holds [own] contracts of
   its own, one generator block (Gen.cold), so every batch carries about
   the same amount of work, then four repeats: two of the previous
   batch's contracts, still cached, and two of the contracts of the
   batch half a cycle back, evicted by then (every batch touches 16
   codes, the caches hold two batches' worth). The timed run repeats the
   cycle on one engine, so every batch meets the same cache state from
   the second cycle on. *)
let batches = 8
let own = Gen.block
let capacity = 32

let members b =
  let back k = (b - k + batches) mod batches * own in
  List.init own (fun k -> (b * own) + k)
  @ [ back 1; back 1 + 1; back (batches / 2) + 2; back (batches / 2) + 3 ]

let lines = List.length (members 0)

let texts (g : Gen.cold) =
  Array.init batches (fun b ->
      String.concat "" (List.map (fun i -> Common.hex_line g.Gen.codes.(i) ^ "\n") (members b)))

let engine ~jobs = Sigrec.Engine.make (Common.config ~jobs ~capacity ())

type answer = {
  reports : Sigrec.Engine.report list;
  verdicts : Sigrec.Engine.classify_report list;
  layouts : Sigrec.Engine.layout_report list;
}

let render_answer ~report ~classify ~layout a =
  String.concat "\n"
    (List.map report a.reports @ List.map classify a.verdicts @ List.map layout a.layouts)

(* One batch call on [engine]: parse the file text, answer the three
   products, render. [lap k] runs as stage k ends: 0 parse and
   recover_all, 1 classify_all, 2 layout_all, 3 render. *)
let stages = 4

let pass ?(lap = ignore) engine text =
  let codes = (Sigrec.Input.parse_batch text).Sigrec.Input.codes in
  let reports = Sigrec.Engine.recover_all engine codes in
  lap 0;
  let verdicts = Sigrec.Engine.classify_all engine codes in
  lap 1;
  let layouts = Sigrec.Engine.layout_all engine codes in
  lap 2;
  let a = { reports; verdicts; layouts } in
  let out =
    render_answer ~report:Sigrec.Render.report ~classify:Sigrec.Render.classify_report
      ~layout:Sigrec.Render.layout_report a
  in
  lap 3;
  (a, out)

(* One cycle of batch calls on a fresh engine. *)
let cycle ~jobs texts =
  let e = engine ~jobs in
  (e, Array.map (pass e) texts)

(* Signatures per function, the declared storage layout, and no exact
   token verdict (none of these contracts is a token). *)
let score (g : Gen.cold) b a =
  let answers = ref 0 and right = ref 0 and failed = ref 0 in
  let count ok =
    incr answers;
    if ok then incr right
  in
  let idx = Array.of_list (members b) in
  List.iteri
    (fun k r ->
      let n, c = Common.score_signatures g.Gen.truth.(idx.(k)) r in
      answers := !answers + n;
      right := !right + c;
      if Common.report_failed r then incr failed)
    a.reports;
  List.iter
    (fun (v : Sigrec.Engine.classify_report) ->
      count (not (Common.exact_verdict v.Sigrec.Engine.verdict)))
    a.verdicts;
  List.iteri
    (fun k (l : Sigrec.Engine.layout_report) ->
      count (Common.layout_right g.Gen.storage.(idx.(k)) l.Sigrec.Engine.layout))
    a.layouts;
  (!answers, !right, !failed)

let run ~seed ~seconds ~between =
  let g = Gen.cold ~seed ~blocks:batches in
  let texts = texts g in
  let e = engine ~jobs:1 in
  (* the first cycle meets a cold cache; later ones repeat the second *)
  let first = Array.make batches "" and later = Array.make batches "" in
  (* each stage of each batch call has its fastest repeat: the shorter
     the timed span, the more often load from elsewhere misses it *)
  let best = Array.make_matrix batches stages infinity in
  let stage = Array.make stages 0.0 and t = ref 0.0 in
  let lap k =
    let now = Common.now () in
    stage.(k) <- now -. !t;
    t := now
  in
  let words = ref 0.0 and busy = ref 0.0 and n = ref 0 in
  let steady = ref true in
  (* whole cycles, at least two, so that every batch has a fastest
     repeat in the steady state *)
  while !busy < seconds || !n mod batches <> 0 || !n < 2 * batches do
    let b = !n mod batches in
    let w0 = Common.minor_words_all () in
    t := Common.now ();
    let _, out = pass ~lap e texts.(b) in
    words := !words +. (Common.minor_words_all () -. w0);
    busy := !busy +. Array.fold_left ( +. ) 0.0 stage;
    let out = Common.strip_elapsed out in
    between ();
    if !n < batches then first.(b) <- out
    else begin
      Array.iteri (fun k dt -> best.(b).(k) <- Float.min best.(b).(k) dt) stage;
      if !n < 2 * batches then later.(b) <- out else if out <> later.(b) then steady := false
    end;
    incr n
  done;
  let heap_mb = Common.peak_heap_mb () in
  let lru_hits = Sigrec.Stats.cache_hits (Sigrec.Engine.stats e) in
  let lru_evictions = Common.evictions e in
  (* The reference: the same two cycles on an engine with every hardware
     domain, run after the timed part so that its worker domains cannot
     slow the timed calls' minor collections. *)
  let ref_engine = engine ~jobs:0 in
  let answers = ref 0 and right = ref 0 and failed = ref 0 in
  let identical = ref true in
  for c = 0 to 1 do
    Array.iteri
      (fun b text ->
        let a, out = pass ref_engine text in
        if Common.strip_elapsed out <> (if c = 0 then first else later).(b) then identical := false;
        if c = 1 then begin
          let x, y, f = score g b a in
          answers := !answers + x;
          right := !right + y;
          failed := !failed + f
        end)
      texts
  done;
  let best = Array.to_list (Array.map (Array.fold_left ( +. ) 0.0) best) in
  let ms = List.map (fun dt -> dt *. 1e3) best in
  {
    Common.throughput_cps = float_of_int (batches * lines) /. Common.sum best;
    latency_p50_ms = Common.median ms;
    latency_tail_ms = Common.percentile ms 0.9;
    tail = "p90 over batches (the slowest) of each batch call's fastest stages";
    samples = batches;
    words_per_contract = !words /. float_of_int (!n * lines);
    heap_mb;
    answers = !answers;
    right = !right;
    attempted = lines * !n;
    failed = !failed * (!n / batches);
    checks =
      [
        ("output identical to jobs=N reference", !identical);
        ("every cycle after the first renders the same", !steady);
        ("bounded LRU both hits and evicts", lru_hits > 0 && lru_evictions > 0);
      ];
    notes =
      [
        ("batch_lines", (float_of_int lines, "contracts per call"));
        ("cache_capacity", (float_of_int capacity, "entries per cache"));
      ];
  }

let traced ~seed ~seconds:_ =
  let g = Gen.cold ~seed ~blocks:batches in
  let texts = texts g in
  (* an untimed cycle first, so that every timed cycle meets a grown heap *)
  ignore (cycle ~jobs:1 texts);
  let seq, sequential_s, sp, traced_outs, hashed_bytes =
    Layers.alternate
      ~untraced:(fun () -> cycle ~jobs:1 texts)
      ~traced:(fun sp ids ->
        let reports = Sigrec.Lru.create ~capacity
        and layouts = Sigrec.Lru.create ~capacity
        and verdicts = Sigrec.Lru.create ~capacity in
        Array.mapi
          (fun b text ->
            Span.set_request sp b;
            Span.with_ sp ids.Layers.unit_ (fun () ->
                let codes =
                  List.filter_map
                    (fun line ->
                      match
                        Span.with_ sp ids.Layers.parse (fun () -> Sigrec.Input.parse_line line)
                      with
                      | `Code code -> Some code
                      | `Blank | `Bad _ -> None)
                    (List.filter (( <> ) "") (String.split_on_char '\n' text))
                in
                (* in pass's order: the caches are shared *)
                let r = Layers.recover_batch sp ids reports codes in
                let v = Layers.classify_batch sp ids ~reports ~layouts ~verdicts codes in
                let l = Layers.layout_batch sp ids layouts codes in
                let a = { reports = r; verdicts = v; layouts = l } in
                render_answer ~report:(Layers.render sp ids)
                  ~classify:(Layers.render_classify sp ids) ~layout:(Layers.render_layout sp ids)
                  a))
          texts)
  in
  let seq_engine, seq_outs = seq in
  (* all-hit batches: the cycle's last batch again, still cached *)
  let warm_calls = 4 in
  let t0 = Common.now () in
  for _ = 1 to warm_calls do
    ignore (pass seq_engine texts.(batches - 1))
  done;
  let warm_s = Common.now () -. t0 in
  (* the pool's domains are spawned once per process, before the clock *)
  ignore (cycle ~jobs:0 [| texts.(0) |]);
  let t0 = Common.now () in
  let par_engine, par_outs = cycle ~jobs:0 texts in
  let parallel_s = Common.now () -. t0 in
  let stats = Sigrec.Engine.stats par_engine in
  let hits = Sigrec.Stats.cache_hits stats and misses = Sigrec.Stats.cache_misses stats in
  let out (_, o) = Common.strip_elapsed o in
  {
    Common.spans = sp;
    summary = Layers.summarize sp;
    probe_summary = None;
    hashed_bytes;
    sequential_s;
    parallel_s;
    jobs = Sigrec.Engine.effective_jobs par_engine;
    warm_us = warm_s /. float_of_int (warm_calls * lines) *. 1e6;
    analyses_per_input =
      float_of_int (misses + Sigrec.Stats.layouts_recovered stats)
      /. float_of_int (batches * lines);
    hit_ratio = float_of_int hits /. float_of_int (Stdlib.max 1 (hits + misses));
    evictions = Common.evictions par_engine;
    t_attempted = batches * lines;
    t_failed =
      Array.fold_left
        (fun a (ans, _) -> a + List.length (List.filter Common.report_failed ans.reports))
        0 seq_outs;
    t_checks =
      [
        ("jobs=N output identical to jobs=1", Array.for_all2 (fun a b -> out a = out b) par_outs seq_outs);
        ( "traced output identical to untraced",
          Array.for_all2 (fun t s -> Common.strip_elapsed t = out s) traced_outs seq_outs );
        ("bounded LRU both hits and evicts", hits > 0 && Common.evictions par_engine > 0);
      ];
  }
