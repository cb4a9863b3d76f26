(* wide_dispatch: `sigrec recover FILE` on flat dispatchers from a dozen
   selectors up to the EIP-170 size limit, one contract at a time on a
   cold engine. Per-entry abstract interpretation dominates here and
   grows superlinearly with width; the other workloads barely reach it. *)

(* One recover call: decode the hex file text, a fresh engine, recover,
   render. Engine.recover runs in the calling domain whatever the jobs
   setting. *)
let recover_one ?engine hex =
  let code =
    match Sigrec.Input.parse_line hex with
    | `Code c -> c
    | `Blank | `Bad _ -> failwith "wide_dispatch: undecodable input"
  in
  let engine =
    match engine with
    | Some e -> e
    | None -> Sigrec.Engine.make (Common.config ~jobs:1 ())
  in
  let r = Sigrec.Engine.recover engine code in
  (engine, r, Sigrec.Render.report r)

let run ~seed ~seconds ~between =
  let g = Gen.wide ~seed in
  let hexes = Array.map Common.hex_line g.Gen.wcodes in
  let n = Array.length hexes in
  let first = Array.make n "" in
  let per_width = Array.make n [] and sweep_words = ref [] in
  let busy = ref 0.0 and steady = ref true in
  while !busy < seconds || List.length !sweep_words < 3 do
    let words = ref 0.0 in
    Array.iteri
      (fun k hex ->
        let w0 = Common.minor_words_all () in
        let t0 = Common.now () in
        let _, _, out = recover_one hex in
        let dt = Common.now () -. t0 in
        words := !words +. (Common.minor_words_all () -. w0);
        busy := !busy +. dt;
        per_width.(k) <- (dt *. 1e3) :: per_width.(k);
        between ();
        let out = Common.strip_elapsed out in
        if !sweep_words = [] then first.(k) <- out else if out <> first.(k) then steady := false)
      hexes;
    sweep_words := (!words /. float_of_int n) :: !sweep_words
  done;
  let heap_mb = Common.peak_heap_mb () in
  (* The reference: every width in one Engine.recover_all call on every
     hardware domain, run after the timed part so that its worker
     domains cannot slow the timed calls' minor collections. *)
  let reference =
    Sigrec.Engine.recover_all (Sigrec.Engine.make (Common.config ~jobs:0 ())) (Array.to_list g.Gen.wcodes)
  in
  let answers = ref 0 and right = ref 0 and ref_failed = ref 0 in
  List.iteri
    (fun k r ->
      let a, c = Common.score_signatures g.Gen.wtruth.(k) r in
      answers := !answers + a;
      right := !right + c;
      if Common.report_failed r then incr ref_failed)
    reference;
  let identical =
    List.for_all2
      (fun r out -> Common.strip_elapsed (Sigrec.Render.report r) = out)
      reference (Array.to_list first)
  in
  let sweeps = List.length !sweep_words in
  let latencies = List.concat (Array.to_list per_width) in
  let fastest = Array.map Common.minimum per_width in
  let slope =
    Common.log_log_slope
      (Array.to_list (Array.mapi (fun k m -> (float_of_int g.Gen.widths.(k), m)) fastest))
  in
  let fastest_l = Array.to_list fastest in
  {
    Common.throughput_cps = float_of_int n /. (Common.sum fastest_l /. 1e3);
    latency_p50_ms = Common.median fastest_l;
    latency_tail_ms = Common.percentile fastest_l 0.9;
    tail = "p90 over widths (the widest) of each width's fastest recover";
    samples = n;
    words_per_contract = Common.median !sweep_words;
    heap_mb;
    answers = !answers;
    right = !right;
    attempted = n * sweeps;
    failed = !ref_failed * sweeps;
    checks =
      [
        ("output identical to a recover_all reference at jobs=N", identical);
        ("every sweep renders the same", !steady);
      ];
    notes =
      [
        ("contract_p50_ms", (Common.median latencies, "ms"));
        ("contract_p90_ms", (Common.percentile latencies 0.9, "ms"));
        ("scaling_slope", (slope, "log-log"));
        ( "widths",
          (float_of_int g.Gen.widths.(n - 1), "selectors (widest)") );
        ( "widest_bytes",
          (float_of_int (String.length g.Gen.wcodes.(n - 1)), "B") );
      ];
  }

let traced ~seed ~seconds:_ =
  let g = Gen.wide ~seed in
  let hexes = Array.map Common.hex_line g.Gen.wcodes in
  let n = Array.length hexes in
  (* an untimed pass first, so that every timed pass meets a grown heap *)
  Array.iter (fun h -> ignore (recover_one h)) hexes;
  let seq, sequential_s, sp, (traced_outs, pairs), hashed_bytes =
    Layers.alternate
      ~untraced:(fun () -> Array.map recover_one hexes)
      ~traced:(fun sp ids ->
        let pairs = ref [] in
        let outs =
          Array.mapi
            (fun k hex ->
              Span.set_request sp k;
              Span.with_ sp ids.Layers.unit_ (fun () ->
                  match Span.with_ sp ids.Layers.parse (fun () -> Sigrec.Input.parse_line hex) with
                  | `Code code ->
                    let r = List.hd (Layers.recover_batch sp ids (Sigrec.Lru.create ~capacity:0) [ code ]) in
                    pairs := (code, r) :: !pairs;
                    Layers.render sp ids r
                  | `Blank | `Bad _ -> ""))
            hexes
        in
        (outs, List.rev !pairs))
  in
  let t0 = Common.now () in
  Array.iteri (fun k (engine, _, _) -> ignore (recover_one ~engine hexes.(k))) seq;
  let warm_s = Common.now () -. t0 in
  (* The pool's figure: every width in one recover_all call on every
     hardware domain, against the jobs=1 pass above. *)
  let par_engine = Sigrec.Engine.make (Common.config ~jobs:0 ()) in
  (* the pool's domains are spawned once per process, before the clock *)
  ignore (Sigrec.Engine.recover_all (Sigrec.Engine.make (Common.config ~jobs:0 ())) (List.init 2 (fun k -> g.Gen.wcodes.(k))));
  let t0 = Common.now () in
  let par = Sigrec.Engine.recover_all par_engine (Array.to_list g.Gen.wcodes) in
  let parallel_s = Common.now () -. t0 in
  let stats = Sigrec.Engine.stats par_engine in
  let out (_, _, o) = Common.strip_elapsed o in
  {
    Common.spans = sp;
    summary = Layers.summarize sp;
    probe_summary = Some (Layers.off_path pairs);
    hashed_bytes;
    sequential_s;
    parallel_s;
    jobs = Sigrec.Engine.effective_jobs par_engine;
    warm_us = warm_s /. float_of_int n *. 1e6;
    analyses_per_input = float_of_int (Sigrec.Stats.cache_misses stats) /. float_of_int n;
    hit_ratio = Common.hit_ratio (Array.map (fun (e, _, _) -> e) seq);
    evictions = Common.evictions par_engine;
    t_attempted = n;
    t_failed =
      Array.fold_left (fun a (_, r, _) -> if Common.report_failed r then a + 1 else a) 0 seq;
    t_checks =
      [
        ( "recover_all at jobs=N identical to recover",
          List.for_all2
            (fun r s -> Common.strip_elapsed (Sigrec.Render.report r) = out s)
            par (Array.to_list seq) );
        ( "traced output identical to untraced",
          Array.for_all2 (fun t s -> Common.strip_elapsed t = out s) traced_outs seq );
      ];
  }
