(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) and the three application studies (§6).

   Each experiment prints the same rows/series the paper reports;
   EXPERIMENTS.md records paper-vs-measured. One Bechamel
   micro-benchmark per table/figure times the experiment's unit of
   work. Dataset sizes are scaled so the full run finishes in minutes
   (see DESIGN.md: proportions, not absolute counts, are the target). *)

open Harness

let seed = 20230704

let section title =
  Printf.printf "\n=== %s %s\n%!" title
    (String.make (Stdlib.max 1 (66 - String.length title)) '=')

(* ---------------------------------------------------------------- *)
(* Shared evaluation plumbing                                        *)
(* ---------------------------------------------------------------- *)

(* whether recovered parameter types are exactly the declared ones *)
let params_match (truth : Abi.Funsig.t) tys =
  List.equal Abi.Abity.equal tys truth.Abi.Funsig.params

(* the parameters recovered for [selector], if that function was found *)
let find_params selector recovered =
  List.find_map
    (fun r ->
      if r.Sigrec.Recover.selector = selector then
        Some r.Sigrec.Recover.params
      else None)
    recovered

let recovered_params ?config truth code =
  find_params (Abi.Funsig.selector truth) (Sigrec.Recover.recover ?config code)

(* whether SigRec recovers [truth] from [code] exactly *)
let recovers ?config truth code =
  Option.fold ~none:false ~some:(params_match truth)
    (recovered_params ?config truth code)

(* a tool's outcome on one function, in the breakdown tables' column
   order *)
type outcome = Correct | Not_recovered | Aborted | Wrong_types | Wrong_count

let outcome (truth : Abi.Funsig.t) = function
  | Tools.Baseline.Aborted -> Aborted
  | Tools.Baseline.Not_recovered -> Not_recovered
  | Tools.Baseline.Recovered tys ->
    if List.length tys <> List.length truth.Abi.Funsig.params then
      Wrong_count
    else if params_match truth tys then Correct
    else Wrong_types

let pct part total =
  100.0 *. float_of_int part /. float_of_int (Stdlib.max 1 total)

(* every bench engine goes through the one Config record *)
let engine_with ?(jobs = 1) ?(static_prune = true) () =
  Sigrec.Engine.make
    Sigrec.Engine.Config.(
      default |> with_jobs jobs |> with_static_prune static_prune)

(* recover_all on a fresh engine, so no run answers from another's
   cache *)
let recover_fresh ?jobs ?static_prune codes =
  Sigrec.Engine.recover_all (engine_with ?jobs ?static_prune ()) codes

(* SigRec packaged with the same interface as the baselines. Routed
   through a batch engine so that the repeated per-tool queries of the
   same bytecode hit the content-addressed cache instead of re-running
   the analysis. *)
let sigrec_tool () =
  let engine = engine_with () in
  let run ~bytecode ~selector =
    match
      find_params selector
        (Sigrec.Engine.signatures (Sigrec.Engine.recover engine bytecode))
    with
    | Some params -> Tools.Baseline.Recovered params
    | None -> Tools.Baseline.Not_recovered
  in
  { Tools.Baseline.name = "SigRec"; run }

let eval_tools tools samples =
  List.map
    (fun (tool : Tools.Baseline.t) ->
      ( tool.Tools.Baseline.name,
        List.map
          (fun s ->
            let truth = Solc.Corpus.truth s in
            outcome truth
              (tool.Tools.Baseline.run ~bytecode:s.Solc.Corpus.code
                 ~selector:(Abi.Funsig.selector truth)))
          samples ))
    tools

let print_breakdown_table rows =
  Printf.printf "%-11s %9s %9s %9s %9s %9s\n" "tool" "correct" "norecov"
    "aborted" "wrongty" "wrongcnt";
  List.iter
    (fun (name, outcomes) ->
      let share o =
        pct (List.length (List.filter (( = ) o) outcomes)) (List.length outcomes)
      in
      Printf.printf "%-11s %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n" name
        (share Correct) (share Not_recovered) (share Aborted)
        (share Wrong_types) (share Wrong_count))
    rows

let standard_tools db =
  Tools.Baseline.[ osd db; ebd db; jeb db; eveem db; gigahorse db ]

(* every rendered report, as the CLI prints it; [~normalize] clears
   from_cache, which depends on which batch first analyzed a bytecode *)
let render ?(normalize = false) reports =
  String.concat "\n"
    (List.map
       (fun r ->
         Format.asprintf "%a" Sigrec.Engine.pp_report
           (if normalize then { r with Sigrec.Engine.from_cache = false }
            else r))
       reports)

let codes_of samples = List.map (fun s -> s.Solc.Corpus.code) samples

(* open-source, Vyper and ABIEncoderV2 samples under one seed *)
let mixed_corpus ~seed ~n ~extra =
  Solc.Corpus.dataset3 ~seed ~n
  @ Solc.Corpus.vyper_set ~seed ~n:extra
  @ Solc.Corpus.abiv2_set ~seed ~n:extra

let obfuscated ~level (s : Solc.Corpus.sample) =
  Solc.Obfuscate.compile_obfuscated ~level ~seed
    {
      Solc.Compile.fns = [ s.Solc.Corpus.fn ];
      version = s.Solc.Corpus.version;
      storage = [];
    }

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks: one per table/figure                   *)
(* ---------------------------------------------------------------- *)

let bechamel_tests : (string * (unit -> unit)) list ref = ref []
let register_bench name f = bechamel_tests := (name, f) :: !bechamel_tests

let register_recover name code =
  register_bench name (fun () -> ignore (Sigrec.Recover.recover code))

let run_bechamel () =
  section "Bechamel micro-benchmarks (ns per experiment unit)";
  let open Bechamel in
  let tests =
    List.rev_map
      (fun (name, f) -> Test.make ~name (Staged.stage f))
      !bechamel_tests
  in
  let grouped = Test.make_grouped ~name:"sigrec" tests in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.4) () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun elt ->
      let raw = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
      let result = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
      let estimate =
        match Analyze.OLS.estimates result with
        | Some (e :: _) -> e
        | _ -> nan
      in
      Printf.printf "%-40s %12.0f ns/run\n" (Test.Elt.name elt) estimate)
    (Test.elements grouped)

(* ---------------------------------------------------------------- *)
(* Table 1: closed-source contracts                                  *)
(* ---------------------------------------------------------------- *)

let table1 () =
  section "Table 1: closed-source contracts (agreement with SigRec)";
  let samples = Solc.Corpus.dataset1 ~seed ~n:1200 in
  (* closed-source: a smaller share of their signatures ever made it
     into public databases *)
  let db = Tools.Efsd.create () in
  Tools.Efsd.populate db ~coverage:0.38 ~seed
    (List.map Solc.Corpus.truth samples);
  let sigrec = sigrec_tool () in
  let tools = standard_tools db in
  Printf.printf "%-11s %16s %9s\n" "tool" "same-as-SigRec" "aborted";
  List.iter
    (fun (tool : Tools.Baseline.t) ->
      let same = ref 0 and aborted = ref 0 and total = ref 0 in
      List.iter
        (fun s ->
          let truth = Solc.Corpus.truth s in
          let selector = Abi.Funsig.selector truth in
          let bytecode = s.Solc.Corpus.code in
          incr total;
          match
            ( sigrec.Tools.Baseline.run ~bytecode ~selector,
              tool.Tools.Baseline.run ~bytecode ~selector )
          with
          | Tools.Baseline.Recovered a, Tools.Baseline.Recovered b
            when List.equal Abi.Abity.equal a b ->
            incr same
          | _, Tools.Baseline.Aborted -> incr aborted
          | _ -> ())
        samples;
      Printf.printf "%-11s %15.1f%% %8.1f%%\n" tool.Tools.Baseline.name
        (pct !same !total) (pct !aborted !total))
    tools;
  register_recover "table1:recover-closed-source" (List.hd samples).Solc.Corpus.code

(* ---------------------------------------------------------------- *)
(* Tables 2-5: per-tool outcome breakdowns                           *)
(* ---------------------------------------------------------------- *)

let breakdown_table title ~bench samples tools =
  section title;
  print_breakdown_table (eval_tools tools samples);
  register_recover bench (List.hd samples).Solc.Corpus.code

(* Tables 3-5: SigRec and the five baselines, with the signature
   database holding [coverage] of the corpus's signatures *)
let efsd_table title ~bench ~coverage samples =
  let db = Tools.Efsd.create () in
  Tools.Efsd.populate db ~coverage ~seed (List.map Solc.Corpus.truth samples);
  breakdown_table title ~bench samples (sigrec_tool () :: standard_tools db)

let table2 () =
  (* none of the synthesized signatures exist in any database *)
  let empty_db = Tools.Efsd.create () in
  let eveem_rules_only =
    {
      Tools.Baseline.name = "Eveem";
      run =
        (fun ~bytecode ~selector ->
          Tools.Baseline.eveem_heuristic ~bytecode ~selector);
    }
  in
  breakdown_table "Table 2: 1000 synthesized function signatures"
    ~bench:"table2:recover-synthesized"
    (Solc.Corpus.dataset2 ~seed ~n:1000)
    ([ sigrec_tool () ]
    @ Tools.Baseline.[ osd empty_db; ebd empty_db; jeb empty_db ]
    @ [ eveem_rules_only ])

(* the paper finds >49% of open-source signatures missing from EFSD *)
let table3 () =
  efsd_table "Table 3: open-source contracts"
    ~bench:"table3:recover-open-source" ~coverage:0.509
    (Solc.Corpus.dataset3 ~seed ~n:2000)

(* the paper: 10.1% of these signatures are recorded in EFSD *)
let table4 () =
  efsd_table "Table 4: struct and nested array parameters"
    ~bench:"table4:recover-abiv2" ~coverage:0.101
    (Solc.Corpus.abiv2_set ~seed ~n:1104)

let table5 () =
  efsd_table "Table 5: Vyper contracts" ~bench:"table5:recover-vyper"
    ~coverage:0.35
    (Solc.Corpus.vyper_set ~seed ~n:1076)

(* ---------------------------------------------------------------- *)
(* Fig. 15 / Fig. 16: accuracy per compiler version                  *)
(* ---------------------------------------------------------------- *)

let fig15_16 () =
  section "Fig. 15/16: accuracy per compiler version";
  let per_version = 80 in
  let groups = Solc.Corpus.versioned ~seed ~per_version in
  let min_sol = ref 100.0 and min_vy = ref 100.0 in
  List.iter
    (fun ((version : Solc.Version.t), samples) ->
      let ok = ref 0 in
      List.iter
        (fun s ->
          let truth = Solc.Corpus.truth s in
          match Sigrec.Recover.recover s.Solc.Corpus.code with
          | [ r ]
            when r.Sigrec.Recover.selector = Abi.Funsig.selector truth
                 && params_match truth r.Sigrec.Recover.params ->
            incr ok
          | _ -> ())
        samples;
      let acc = pct !ok per_version in
      let lang =
        match version.Solc.Version.lang with
        | Abi.Abity.Solidity ->
          if acc < !min_sol then min_sol := acc;
          "solidity"
        | Abi.Abity.Vyper ->
          if acc < !min_vy then min_vy := acc;
          "vyper"
      in
      Printf.printf "%-9s %-12s %6.1f%%  %s\n" lang version.Solc.Version.name
        acc
        (String.make (int_of_float (acc /. 2.5)) '#'))
    groups;
  Printf.printf
    "\nminimum accuracy: Solidity %.1f%% (paper: never below 96%%), Vyper \
     %.1f%%\n"
    !min_sol !min_vy;
  register_recover "fig15:recover-per-version"
    (List.hd (snd (List.hd groups))).Solc.Corpus.code

(* ---------------------------------------------------------------- *)
(* Fig. 17: time to recover a signature                              *)
(* ---------------------------------------------------------------- *)

let fig17 () =
  section "Fig. 17: recovery time distribution";
  let samples = Solc.Corpus.dataset3 ~seed:(seed + 1) ~n:600 in
  let times =
    List.map
      (fun s -> snd (wall (fun () -> Sigrec.Recover.recover s.Solc.Corpus.code)))
      samples
  in
  let sorted = List.sort compare times in
  let n = List.length sorted in
  let nth p = List.nth sorted (Stdlib.min (n - 1) (p * n / 100)) in
  let avg = List.fold_left ( +. ) 0.0 times /. float_of_int n in
  let buckets =
    [ (0.001, "<= 1 ms"); (0.01, "<= 10 ms"); (0.1, "<= 100 ms");
      (1.0, "<= 1 s"); (infinity, "> 1 s") ]
  in
  let prev = ref 0.0 in
  List.iter
    (fun (ub, label) ->
      let c =
        List.length (List.filter (fun t -> t <= ub && t > !prev) times)
      in
      Printf.printf "%-10s %6d functions  %s\n" label c
        (String.make (60 * c / n) '#');
      prev := ub)
    buckets;
  Printf.printf
    "\naverage %.4f s; median %.4f s; p99 %.4f s; %.1f%% within 1 s\n\
     (paper: average 0.074 s, 99.7%% within 1 s)\n"
    avg (nth 50) (nth 99)
    (pct (List.length (List.filter (fun t -> t <= 1.0) times)) n);
  register_recover "fig17:recover-one-signature" (List.hd samples).Solc.Corpus.code

(* ---------------------------------------------------------------- *)
(* Fig. 18: recovery time vs array dimension                         *)
(* ---------------------------------------------------------------- *)

(* an external function taking a [dim]-dimensional dynamic uint256
   array, lower dimensions of size 1 *)
let deep_array_code dim =
  let rec build d =
    if d = 0 then Abi.Abity.Uint 256 else Abi.Abity.Sarray (build (d - 1), 1)
  in
  Solc.Compile.compile_fn
    (Solc.Lang.fn_of_sig
       (Abi.Funsig.make ~visibility:Abi.Funsig.External "deep"
          [ Abi.Abity.Darray (build (dim - 1)) ]))

let fig18 () =
  section "Fig. 18: recovery time vs array dimension (1-20)";
  let time_for dim =
    let code = deep_array_code dim in
    let reps = 5 in
    let (), t =
      wall (fun () ->
          for _ = 1 to reps do
            ignore (Sigrec.Recover.recover code)
          done)
    in
    t /. float_of_int reps
  in
  let base = ref 1e-9 in
  List.iter
    (fun dim ->
      let t = time_for dim in
      if dim = 1 then base := Stdlib.max t 1e-9;
      Printf.printf "dim %2d: %8.4f s  %s\n" dim t
        (String.make (Stdlib.min 60 (int_of_float (t /. !base *. 3.0))) '#'))
    [ 1; 2; 3; 4; 5; 6; 8; 10; 12; 14; 16; 18; 20 ];
  Printf.printf
    "(paper: time grows linearly with the dimension; deployed arrays have \
     dimension <= 3)\n";
  register_bench "fig18:recover-dim8-array" (fun () ->
      ignore (Sigrec.Recover.recover (deep_array_code 8)))

(* ---------------------------------------------------------------- *)
(* Fig. 19: rule usage frequency                                     *)
(* ---------------------------------------------------------------- *)

let fig19 () =
  section "Fig. 19: rule usage frequency";
  let stats = Sigrec.Stats.create () in
  let samples = mixed_corpus ~seed ~n:1200 ~extra:300 in
  List.iter
    (fun s -> ignore (Sigrec.Recover.recover ~stats s.Solc.Corpus.code))
    samples;
  let counts = Sigrec.Stats.rule_counts stats in
  let maxc = List.fold_left (fun acc (_, c) -> Stdlib.max acc c) 1 counts in
  List.iter
    (fun (name, c) ->
      Printf.printf "%-4s %7d  %s\n" name c (String.make (55 * c / maxc) '#'))
    counts;
  let most, _ =
    List.fold_left
      (fun (bn, bc) (n, c) -> if c > bc then (n, c) else (bn, bc))
      ("-", -1) counts
  in
  Printf.printf "\nmost used: %s (paper: R4); all rules exercised: %b\n" most
    (List.for_all (fun (_, c) -> c > 0) counts);
  let sample = List.hd samples in
  register_bench "fig19:recover-with-stats" (fun () ->
      ignore (Sigrec.Recover.recover ~stats sample.Solc.Corpus.code))

(* ---------------------------------------------------------------- *)
(* §6.1: ParChecker                                                  *)
(* ---------------------------------------------------------------- *)

let app_parchecker () =
  section "Application 6.1: ParChecker (invalid arguments, short addresses)";
  let samples = Solc.Corpus.dataset3 ~seed:(seed + 2) ~n:120 in
  let sigs =
    List.filter_map
      (fun s ->
        let t = Solc.Corpus.truth s in
        if List.exists Abi.Abity.is_dynamic t.Abi.Funsig.params then None
        else Some t)
      samples
    @ [ Abi.Funsig.make "transfer" [ Abi.Abity.Address; Abi.Abity.Uint 256 ] ]
  in
  let n = 30_000 in
  let txs = Tools.Parchecker.gen_tx_stream ~seed ~n sigs in
  let invalid = ref 0 and attacks_found = ref 0 and attacks_planted = ref 0 in
  List.iter
    (fun (tx : Tools.Parchecker.tx) ->
      let params = tx.Tools.Parchecker.fsig.Abi.Funsig.params in
      (match
         Tools.Parchecker.check_call params tx.Tools.Parchecker.calldata
       with
      | Tools.Parchecker.Invalid _ -> incr invalid
      | Tools.Parchecker.Valid -> ());
      if tx.Tools.Parchecker.label = Tools.Parchecker.Short_address then
        incr attacks_planted;
      if
        Tools.Parchecker.is_short_address_attack params
          tx.Tools.Parchecker.calldata
      then incr attacks_found)
    txs;
  Printf.printf
    "transactions analysed: %d\n\
     invalid actual arguments: %d (%.2f%%; paper: 1%% of transactions)\n\
     short address attacks: %d found / %d planted (paper: 73 attacks found)\n"
    n !invalid (pct !invalid n) !attacks_found !attacks_planted;
  let tx = List.hd txs in
  register_bench "app6.1:parcheck-one-tx" (fun () ->
      ignore
        (Tools.Parchecker.check_call tx.Tools.Parchecker.fsig.Abi.Funsig.params
           tx.Tools.Parchecker.calldata))

(* ---------------------------------------------------------------- *)
(* §6.2: fuzzing                                                     *)
(* ---------------------------------------------------------------- *)

let app_fuzzer () =
  section "Application 6.2: ContractFuzzer with recovered signatures";
  let n = 600 in
  let samples = Solc.Corpus.fuzz_set ~seed ~n in
  let aware = ref 0 and raw = ref 0 and cov = ref 0 in
  List.iteri
    (fun i s ->
      let truth = Solc.Corpus.truth s in
      let selector = Abi.Funsig.selector truth in
      let code = s.Solc.Corpus.code in
      (* ContractFuzzer consumes SigRec's recovered signature *)
      let params =
        match Sigrec.Recover.recover code with
        | r :: _ -> r.Sigrec.Recover.params
        | [] -> truth.Abi.Funsig.params
      in
      let rng () = Random.State.make [| seed; i |] in
      let a =
        Tools.Fuzzer.run_campaign ~rng:(rng ()) ~code ~selector
          (Tools.Fuzzer.Signature_aware params)
      in
      let b =
        Tools.Fuzzer.run_campaign ~rng:(rng ()) ~code ~selector
          Tools.Fuzzer.Raw
      in
      if a.Tools.Fuzzer.bug_found then incr aware;
      if b.Tools.Fuzzer.bug_found then incr raw;
      let c =
        Tools.Fuzzer.run_coverage_campaign ~rng:(rng ()) ~code ~selector
          params
      in
      if c.Tools.Fuzzer.bug_found then incr cov)
    samples;
  Printf.printf
    "vulnerable contracts found:\n\
    \  ContractFuzzer      (with recovered signatures): %d/%d\n\
    \  ContractFuzzer-cov  (+ coverage feedback):       %d/%d\n\
    \  ContractFuzzer-     (raw byte sequences):        %d/%d\n\
     improvement: +%.1f%% (paper: +23%% bugs, +25%% vulnerable contracts)\n"
    !aware n !cov n !raw n
    (100.0
    *. float_of_int (!aware - !raw)
    /. float_of_int (Stdlib.max 1 !raw));
  let s = List.hd samples in
  register_bench "app6.2:fuzz-one-campaign" (fun () ->
      let truth = Solc.Corpus.truth s in
      let rng = Random.State.make [| 1 |] in
      ignore
        (Tools.Fuzzer.run_campaign ~budget:8 ~rng ~code:s.Solc.Corpus.code
           ~selector:(Abi.Funsig.selector truth) Tools.Fuzzer.Raw))

(* ---------------------------------------------------------------- *)
(* §6.3: Erays+                                                      *)
(* ---------------------------------------------------------------- *)

let app_erays () =
  section "Application 6.3: Erays+ readability improvement";
  let samples = Solc.Corpus.dataset3 ~seed:(seed + 3) ~n:400 in
  let types = ref 0 and names = ref 0 and nums = ref 0 and removed = ref 0 in
  let count = ref 0 in
  List.iter
    (fun s ->
      List.iter
        (fun (e : Tools.Eraysplus.enhanced) ->
          incr count;
          types := !types + e.Tools.Eraysplus.added_types;
          names := !names + e.Tools.Eraysplus.added_arg_names;
          nums := !nums + e.Tools.Eraysplus.added_num_names;
          removed := !removed + e.Tools.Eraysplus.removed_lines)
        (Tools.Eraysplus.enhance s.Solc.Corpus.code))
    samples;
  let avg x = float_of_int !x /. float_of_int (Stdlib.max 1 !count) in
  Printf.printf
    "functions enhanced: %d\n\
     average added types:           %5.1f (paper: 5.5)\n\
     average added parameter names: %5.1f (paper: 15)\n\
     average added num names:       %5.1f (paper: 3.4)\n\
     average removed access lines:  %5.1f (paper: 15)\n"
    !count (avg types) (avg names) (avg nums) (avg removed);
  let s = List.hd samples in
  register_bench "app6.3:lift-and-enhance" (fun () ->
      ignore (Tools.Eraysplus.enhance s.Solc.Corpus.code))

(* ---------------------------------------------------------------- *)
(* Ablation: contribution of each rule group                         *)
(* ---------------------------------------------------------------- *)

let ablation () =
  section "Ablation: rule-group contributions (extension)";
  let samples = mixed_corpus ~seed:(seed + 4) ~n:400 ~extra:150 in
  let correct config =
    List.length
      (List.filter
         (fun s -> recovers ~config (Solc.Corpus.truth s) s.Solc.Corpus.code)
         samples)
  in
  let total = List.length samples in
  let open Sigrec.Rules in
  List.iter
    (fun (name, config) ->
      let ok = correct config in
      Printf.printf "%-36s %5.1f%%  %s\n" name (pct ok total)
        (String.make (40 * ok / total) '#'))
    [
      ("full rule set", default_config);
      ("without fine masks (R11-R18/R26-R31)",
       { default_config with fine_masks = false });
      ("without bound-check dims (R2/R3/R9/R10)",
       { default_config with guard_dims = false });
      ("without struct/nested (R19/R21/R22)",
       { default_config with nested = false });
      ("without Vyper rules (R20/R23-R31)",
       { default_config with vyper = false });
    ];
  let s = List.hd samples in
  register_bench "ablation:recover-no-masks" (fun () ->
      ignore
        (Sigrec.Recover.recover
           ~config:{ default_config with fine_masks = false }
           s.Solc.Corpus.code))

(* ---------------------------------------------------------------- *)
(* Obfuscation study (paper Â§7)                                      *)
(* ---------------------------------------------------------------- *)

let obfuscation () =
  section "Obfuscation resistance (extension; paper sec. 7)";
  let base = Solc.Corpus.dataset3 ~seed:(seed + 5) ~n:300 in
  Printf.printf "%-8s %22s %22s\n" "level" "SigRec (TASE)" "Eveem (patterns)";
  List.iter
    (fun level ->
      let samples =
        List.map
          (fun s ->
            let code =
              if level = 0 then s.Solc.Corpus.code else obfuscated ~level s
            in
            (code, Solc.Corpus.truth s))
          base
      in
      let count ok =
        List.length (List.filter (fun (code, truth) -> ok truth code) samples)
      in
      let sig_ok = count (fun truth code -> recovers truth code) in
      let eveem_ok =
        count (fun truth code ->
            match
              Tools.Baseline.eveem_heuristic ~bytecode:code
                ~selector:(Abi.Funsig.selector truth)
            with
            | Tools.Baseline.Recovered tys -> params_match truth tys
            | _ -> false)
      in
      let n = List.length samples in
      Printf.printf "%-8d %20.1f%% %20.1f%%\n" level (pct sig_ok n)
        (pct eveem_ok n))
    [ 0; 1; 2; 3 ];
  Printf.printf
    "(levels: 1 junk insertion, 2 +constant splitting, 3 +semantic mask\n\
    \ rewriting; TASE survives syntactic obfuscation, pattern matching\n\
    \ does not -- the gradient motivating sec. 7's future-work rules)\n";
  let s = List.hd base in
  register_bench "obfuscation:recover-level2" (fun () ->
      ignore (Sigrec.Recover.recover (obfuscated ~level:2 s)))

(* ---------------------------------------------------------------- *)
(* Batch engine: multicore fan-out + content-addressed cache         *)
(* ---------------------------------------------------------------- *)

let engine_batch () =
  section "Batch engine: content-addressed cache";
  let codes = codes_of (Solc.Corpus.dataset3 ~seed:(seed + 7) ~n:160) in
  (* main net is dominated by byte-identical duplicates: each distinct
     bytecode must be analyzed exactly once. (Fan-out identity and
     speedup are measured by symex_core and serve_scaling.) *)
  let dup_codes = codes @ codes @ List.rev codes in
  let jobs = Domain.recommended_domain_count () in
  (* spawn the pool's workers untimed, as a resident daemon does once *)
  Sigrec.Pool.ensure (jobs - 1);
  let engine = engine_with ~jobs () in
  let reports, t_dup =
    wall (fun () -> Sigrec.Engine.recover_all engine dup_codes)
  in
  let stats = Sigrec.Engine.stats engine in
  Printf.printf
    "duplicate-heavy corpus: %d inputs -> %d analyses, %d cache hits \
     (%.2f s)\n"
    (List.length dup_codes)
    (Sigrec.Stats.cache_misses stats)
    (Sigrec.Stats.cache_hits stats)
    t_dup;
  (* outcomes over the first copy of the corpus *)
  let outcomes =
    List.concat_map
      (fun r -> r.Sigrec.Engine.outcomes)
      (List.filteri (fun i _ -> i < List.length codes) reports)
  in
  let count p = List.length (List.filter p outcomes) in
  Printf.printf
    "outcomes: %d recovered, %d budget-exhausted, %d failed\n"
    (count (function Sigrec.Engine.Recovered _ -> true | _ -> false))
    (count (function Sigrec.Engine.Budget_exhausted _ -> true | _ -> false))
    (count (function Sigrec.Engine.Failed _ -> true | _ -> false));
  let one = [ List.hd codes ] in
  register_bench "engine:recover-one-cached" (fun () ->
      ignore (Sigrec.Engine.recover_all engine one))

(* ---------------------------------------------------------------- *)
(* Static pass: jump resolution, fork pruning, differential lint     *)
(* ---------------------------------------------------------------- *)

let static_pass () =
  section "Static pass: jump resolution, fork pruning, differential lint";
  let samples = Solc.Corpus.dataset3 ~seed:(seed + 8) ~n:200 in
  (* plain corpus plus obfuscated variants: junk insertion separates the
     PUSH from its JUMP, so only the abstract interpreter can resolve
     those targets (the single-block peephole cannot) *)
  let obf =
    List.map (obfuscated ~level:2) (List.filteri (fun i _ -> i < 50) samples)
  in
  let codes = codes_of samples @ obf in
  (* abstract-interpretation throughput, measured alone *)
  let contracts, t_static =
    wall (fun () -> List.map Sigrec.Contract.make codes)
  in
  let resolved =
    List.fold_left (fun acc c -> acc + Sigrec.Contract.jumps_resolved c) 0
      contracts
  in
  let unresolved_after =
    List.fold_left
      (fun acc (c : Sigrec.Contract.t) ->
        acc + Evm.Cfg.unresolved_count c.Sigrec.Contract.cfg)
      0 contracts
  in
  let bytes =
    List.fold_left (fun acc c -> acc + String.length c) 0 codes
  in
  let throughput = float_of_int bytes /. Float.max 1e-9 t_static in
  (* symbolic paths with and without the static prune *)
  let run_engine ~static_prune =
    let engine = engine_with ~static_prune () in
    let _, t = wall (fun () -> Sigrec.Engine.recover_all engine codes) in
    (Sigrec.Engine.stats engine, t)
  in
  let stats_off, t_off = run_engine ~static_prune:false in
  let stats_on, t_on = run_engine ~static_prune:true in
  let paths_off = Sigrec.Stats.paths_explored stats_off in
  let paths_on = Sigrec.Stats.paths_explored stats_on in
  let pruned = Sigrec.Stats.forks_pruned stats_on in
  (* cache behaviour, cold and warm measured separately: folding the
     warm-up pass into one number used to report a meaningless 50% *)
  let engine = engine_with () in
  let _ = Sigrec.Engine.recover_all engine codes in
  let cstats = Sigrec.Engine.stats engine in
  let cold_hits = Sigrec.Stats.cache_hits cstats in
  let cold_misses = Sigrec.Stats.cache_misses cstats in
  let _ = Sigrec.Engine.recover_all engine codes in
  let warm_hits = Sigrec.Stats.cache_hits cstats - cold_hits in
  let warm_misses = Sigrec.Stats.cache_misses cstats - cold_misses in
  let cold_rate = pct cold_hits (cold_hits + cold_misses) in
  let warm_rate = pct warm_hits (warm_hits + warm_misses) in
  (* differential lint: clean configuration, then a mutated rule set *)
  let lint ?config () =
    let stats = Sigrec.Stats.create () in
    List.iter (fun code -> ignore (Sigrec.Lint.check ~stats ?config code)) codes;
    stats
  in
  let lint_stats = lint () in
  let agree = Sigrec.Stats.lint_agreements lint_stats in
  let disagree = Sigrec.Stats.lint_disagreements lint_stats in
  let mut_disagree =
    Sigrec.Stats.lint_disagreements
      (lint ~config:{ Sigrec.Rules.default_config with fine_masks = false } ())
  in
  let fields =
    [
      ("contracts", int (List.length codes));
      ("bytes", int bytes);
      ("static_seconds", num t_static);
      ("throughput_bytes_per_s", num throughput);
      ("jumps_resolved", int resolved);
      ("unresolved_after", int unresolved_after);
      ("paths_without_pruning", int paths_off);
      ("paths_with_pruning", int paths_on);
      ("forks_pruned", int pruned);
      ("seconds_without_pruning", num t_off);
      ("seconds_with_pruning", num t_on);
      ("cache_cold_hits", int cold_hits);
      ("cache_cold_misses", int cold_misses);
      ("cache_cold_hit_rate", num (cold_rate /. 100.0));
      ("cache_warm_hits", int warm_hits);
      ("cache_warm_misses", int warm_misses);
      ("cache_warm_hit_rate", num (warm_rate /. 100.0));
      ("lint_agree", int agree);
      ("lint_disagree", int disagree);
      ("mutated_config_disagreements", int mut_disagree);
    ]
  in
  print_fields fields;
  write_bench "BENCH_static.json" fields;
  let one = List.hd codes in
  register_bench "static:abstract-interpretation" (fun () ->
      ignore (Sigrec.Contract.make one));
  register_bench "static:lint-one-contract" (fun () ->
      ignore (Sigrec.Lint.check one))

(* ---------------------------------------------------------------- *)
(* Symbolic core: hash-consing wall-clock and allocation profile     *)
(* ---------------------------------------------------------------- *)

(* A structural mirror of the symbolic expression nodes as they stood
   before hash-consing: every construction allocates a fresh block and
   equality walks both trees. The micro-benchmark below pushes the same
   offset-arithmetic shapes through both representations; the ratio of
   the two measurements is the honest pre/post comparison recorded in
   BENCH_perf.json. *)
module Structural = struct
  type t =
    | Const of Evm.U256.t
    | CDLoad of int
    | Bin of int * t * t
    | Un of int * t

  let rec equal a b =
    match (a, b) with
    | Const x, Const y -> Evm.U256.equal x y
    | CDLoad i, CDLoad j -> i = j
    | Bin (o1, a1, b1), Bin (o2, a2, b2) ->
      o1 = o2 && equal a1 a2 && equal b1 b2
    | Un (o1, a1), Un (o2, a2) -> o1 = o2 && equal a1 a2
    | _ -> false
end

let symex_core ?(emit = true) ?(n = 120) () =
  section "Symbolic core: hash-consed expressions";
  let codes =
    codes_of (mixed_corpus ~seed:(seed + 9) ~n ~extra:(Stdlib.max 4 (n / 4)))
  in
  let render = render ~normalize:true in
  (* stage 1: sequential recovery with allocation accounting *)
  let engine1 = engine_with () in
  let seq, t_seq, minor1, major1 =
    measured (fun () -> Sigrec.Engine.recover_all engine1 codes)
  in
  let stats1 = Sigrec.Engine.stats engine1 in
  let paths = Sigrec.Stats.paths_explored stats1 in
  let ih = Sigrec.Stats.intern_hits stats1 in
  let im = Sigrec.Stats.intern_misses stats1 in
  let nc = List.length codes in
  (* stage 2: a warm re-run answers everything from the cache and the
     reports must render identically *)
  let warm = Sigrec.Engine.recover_all engine1 codes in
  let warm_same = render seq = render warm in
  (* stage 3: parallel fan-out must stay byte-identical *)
  let jobs = Stdlib.max 2 (Domain.recommended_domain_count ()) in
  let par, t_par = wall (fun () -> recover_fresh ~jobs codes) in
  let par_same = render seq = render par in
  (* stage 4: the static prune must not change output either *)
  let unpruned, t_unpruned =
    wall (fun () -> recover_fresh ~static_prune:false codes)
  in
  let prune_same = render seq = render unpruned in
  (* stage 5: representation micro-benchmark. Both builders produce the
     same tree shapes, so the pairwise-equality counts must agree; the
     structural side re-allocates and deep-compares where the interned
     side reuses nodes and compares pointers. *)
  let classes = 4 and micro_trees = 240 and reps = 25 in
  let build_structural i =
    let open Structural in
    let t = ref (CDLoad (4 + (32 * (i mod classes)))) in
    for k = 1 to 6 do
      t :=
        Bin
          ( 0,
            Bin (1, !t, Const (Evm.U256.of_int 32)),
            Const (Evm.U256.of_int (k * 32)) )
    done;
    Un (0, !t)
  in
  let build_interned i =
    let open Symex.Sexpr in
    let t = ref (cdload (4 + (32 * (i mod classes)))) in
    for k = 1 to 6 do
      t := bin Badd (bin Bmul !t (of_int 32)) (of_int (k * 32))
    done;
    un Uiszero !t
  in
  let pairwise build equal =
    let eqs = ref 0 in
    for _ = 1 to reps do
      let trees = Array.init micro_trees build in
      Array.iter
        (fun a -> Array.iter (fun b -> if equal a b then incr eqs) trees)
        trees
    done;
    !eqs
  in
  let s_eqs, t_struct, _, _ =
    measured (fun () -> pairwise build_structural Structural.equal)
  in
  let i_eqs, t_intern, _, _ =
    measured (fun () -> pairwise build_interned Symex.Sexpr.equal)
  in
  let eq_agree = s_eqs = i_eqs in
  let eq_speedup = t_struct /. Stdlib.max 1e-9 t_intern in
  (* the recorder's hot loop: deduplicate every access event by a key
     derived from its expression. Pre hash-consing that key was a
     rendered string; with interned nodes it is the node id. *)
  let rec structural_render t =
    let open Structural in
    match t with
    | Const v -> "0x" ^ Evm.U256.to_hex v
    | CDLoad i -> Printf.sprintf "cd[%d]" i
    | Bin (o, a, b) ->
      Printf.sprintf "(%d %s %s)" o (structural_render a)
        (structural_render b)
    | Un (o, a) -> Printf.sprintf "(%d %s)" o (structural_render a)
  in
  let dedup build key =
    let seen = Hashtbl.create 64 in
    for _ = 1 to reps do
      for i = 0 to micro_trees - 1 do
        Hashtbl.replace seen (key (build i)) ()
      done
    done;
    Hashtbl.length seen
  in
  let s_classes, t_sdedup, minor_s, _ =
    measured (fun () ->
        dedup build_structural (fun t -> `S (structural_render t)))
  in
  let i_classes, t_idedup, minor_i, _ =
    measured (fun () -> dedup build_interned (fun t -> `I (Symex.Sexpr.id t)))
  in
  let dedup_agree = s_classes = i_classes in
  let dedup_speedup = t_sdedup /. Stdlib.max 1e-9 t_idedup in
  let alloc_ratio = minor_s /. Stdlib.max 1.0 minor_i in
  let micro_agree = eq_agree && dedup_agree in
  let gates =
    [
      gate ~key:"parallel_identical" "parallel" par_same;
      gate ~key:"prune_identical" "prune" prune_same;
      gate ~key:"warm_cache_identical" "warm-cache" warm_same;
      gate ~key:"micro_classes_agree" "micro" micro_agree;
    ]
  in
  if emit then
    register_bench "symex:interned-pairwise-equality" (fun () ->
        ignore (pairwise build_interned Symex.Sexpr.equal));
  conclude
    ?file:(if emit then Some "BENCH_perf.json" else None)
    [
      ("corpus_contracts", int nc);
      ("paths", int paths);
      ("wall_seconds_jobs1", num t_seq);
      ("jobs", int jobs);
      ("wall_seconds_parallel", num t_par);
      ("wall_seconds_unpruned", num t_unpruned);
      ("minor_words", num minor1);
      ("minor_words_per_contract", num (minor1 /. float_of_int nc));
      ("major_words", num major1);
      ("intern_hits", int ih);
      ("intern_misses", int im);
      ("intern_hit_rate", num (pct ih (ih + im) /. 100.0));
      ("interner_nodes", int (Symex.Sexpr.interner_size ()));
      ("micro_equality_structural_seconds", num t_struct);
      ("micro_equality_interned_seconds", num t_intern);
      ("micro_equality_speedup", num eq_speedup);
      ("micro_dedup_structural_seconds", num t_sdedup);
      ("micro_dedup_interned_seconds", num t_idedup);
      ("micro_dedup_speedup", num dedup_speedup);
      ("micro_dedup_structural_minor_words", num minor_s);
      ("micro_dedup_interned_minor_words", num minor_i);
      ("micro_allocation_ratio", num alloc_ratio);
    ]
    gates

(* ---------------------------------------------------------------- *)
(* Aggregation across contracts (paper sec. 7 proposal)              *)
(* ---------------------------------------------------------------- *)

let aggregation () =
  section "Cross-contract aggregation (extension; paper sec. 7)";
  let groups = Solc.Corpus.multi_body ~seed:(seed + 6) ~n:250 ~bodies:5 in
  let single_ok = ref 0 and single_total = ref 0 and agg_ok = ref 0 in
  List.iter
    (fun (truth, codes) ->
      let recoveries = List.filter_map (recovered_params truth) codes in
      List.iter
        (fun tys ->
          incr single_total;
          if params_match truth tys then incr single_ok)
        recoveries;
      match Sigrec.Aggregate.join_all recoveries with
      | Some joined when params_match truth joined -> incr agg_ok
      | _ -> ())
    groups;
  Printf.printf
    "bodies per signature: 5 (varying parameter usage and compiler)\n\
     single-body recovery accuracy:   %5.1f%%\n\
     aggregated recovery accuracy:    %5.1f%%\n\
     (the paper's sec. 7 proposal: combine the clues different function\n\
    \ bodies expose to resolve case-5 ambiguities)\n"
    (pct !single_ok !single_total)
    (pct !agg_ok (List.length groups));
  let _, codes = List.hd groups in
  register_bench "aggregation:join-five-bodies" (fun () ->
      ignore (Sigrec.Aggregate.recover_many codes))

let proptest_volume () =
  section "Property harness at volume (lib/proptest)";
  let stats = Sigrec.Stats.create () in
  let count = 2000 in
  let rt, t_rt =
    wall (fun () ->
        Proptest.Prop.run ~seed ~count ~max_size:20 ~name:"round_trip"
          Proptest.Oracle.arb_case
          (Proptest.Oracle.round_trip ~stats))
  in
  let diff, t_diff =
    wall (fun () ->
        Proptest.Prop.run ~seed:(seed + 1) ~count:400 ~max_size:20
          ~name:"differential" Proptest.Oracle.arb_case
          (Proptest.Oracle.differential ~stats))
  in
  let verdict r arb =
    if Proptest.Prop.is_pass r then "pass"
    else "FAIL\n" ^ Proptest.Prop.report arb r
  in
  Printf.printf
    "round-trip: %d generated signatures in %.2f s (%.0f cases/s): %s\n\
     differential: 400 cases in %.2f s: %s\n\
     rule coverage over the sweep: %s\n"
    count t_rt
    (float_of_int count /. Stdlib.max 1e-9 t_rt)
    (verdict rt Proptest.Oracle.arb_case)
    t_diff
    (verdict diff Proptest.Oracle.arb_case)
    (match Proptest.Oracle.rule_gate stats with
    | Ok () -> "all 31 rules fired"
    | Error e -> "INCOMPLETE — " ^ e);
  register_bench "proptest:generate-compile-one-case" (fun () ->
      ignore
        (Proptest.Sig_gen.compile
           (Proptest.Gen.run ~size:16 ~seed:[| seed; 11 |] Proptest.Sig_gen.case)))

(* ---------------------------------------------------------------- *)
(* Observability overhead: tracing and metrics, off vs. on           *)
(* ---------------------------------------------------------------- *)

(* The trace and metrics sections' shared comparison: the same batch,
   each run on a fresh engine (the content-addressed cache would
   otherwise turn every run after the first into a lookup benchmark),
   with the layer switched off and on in alternate runs. Both paths are
   warmed untimed first — the first trace event allocates the
   per-domain ring, the first observe builds the shard and the
   span-histogram memo, which is setup cost, not per-event overhead —
   and [reset] then drops what the warm-up recorded. The run ends
   switched on. Two gates:

   - identity: the rendered recovery output is byte-identical with the
     layer on and off;
   - enabled: the layer slows the batch by less than 10% (or 3x the
     measured noise plus 2%, whichever is larger, so a noisy CI machine
     doesn't produce false alarms). *)
let on_off_gates ~enable ~disable ~reset codes =
  let run () = recover_fresh codes in
  enable ();
  ignore (run ());
  reset ();
  let out_off = ref [] and out_on = ref [] in
  let[@warning "-8"] [ off; on ] =
    sample ~runs:ratio_runs
      [
        (fun () ->
          disable ();
          out_off := run ());
        (fun () ->
          enable ();
          out_on := run ());
      ]
  in
  let overhead = (on.median /. Float.max 1e-9 off.median) -. 1.0 in
  let budget = budget off.noise in
  ( (("corpus_contracts", int (List.length codes))
     :: timing_fields "wall_seconds_disabled" off)
    @ timing_fields "wall_seconds_enabled" on
    @ [
        ("noise_fraction", num off.noise);
        ("overhead_fraction", num overhead);
        ("overhead_budget_fraction", num budget);
      ],
    [
      gate ~key:"output_identical" "identity"
        (render !out_off = render !out_on);
      gate "enabled" (overhead < budget);
    ] )

(* disabled: a switched-off probe at a hot call site costs one atomic
   load and a branch — under 50 ns and no allocation per call. [loop]
   runs the probe [ops] times, as {!Harness.per_op} takes it. *)
let disabled_probe loop =
  let ns, words = per_op loop in
  ( [ ("disabled_ns_per_op", num ns); ("disabled_minor_words_per_op", num words) ],
    gate "disabled" (ns < 50.0 && words < 0.01) )

module Tr = Sigrec_trace.Trace

(* Three gates, written to BENCH_trace.json and enforced in --smoke:
   identity and enabled from {!on_off_gates}, disabled from
   {!disabled_probe}. *)
let trace_overhead ?(n = 48) () =
  section "Trace overhead: spans and rule instants vs. tracing off";
  let fields, gates =
    on_off_gates
      ~enable:(fun () -> Tr.enable ())
      ~disable:Tr.disable ~reset:Tr.reset
      (codes_of (Solc.Corpus.dataset3 ~seed:(seed + 9) ~n))
  in
  (* enabling empties the rings, so these are the last run's events *)
  let events = List.length (Tr.collect ()) in
  let dropped = Tr.dropped () in
  Tr.disable ();
  Tr.reset ();
  let probe_fields, probe_gate =
    disabled_probe (fun ops ->
        for i = 0 to ops - 1 do
          if Tr.enabled () then Tr.counter Tr.Bench "noop" i
        done)
  in
  conclude ~file:"BENCH_trace.json"
    (fields
    @ [ ("events", int events); ("events_dropped", int dropped) ]
    @ probe_fields)
    (probe_gate :: gates)

module Mx = Sigrec_metrics.Metrics

(* Six gates, written to BENCH_obs.json and enforced in --smoke:

   - identity and enabled, from {!on_off_gates};
   - disabled: a metrics probe at a hot call site, the same micro
     measurement as the trace probe gate ({!disabled_probe});
   - observe: the full shard update (bucket scan + three stores)
     allocates nothing — the hot path must survive a chain-scale census
     without feeding the GC;
   - merge: observations spread over pool domains snapshot to exactly
     the bucket counts of a sequential reference — the merge is
     lossless, not just approximately right;
   - golden: a fixed registry renders to a byte-stable OpenMetrics
     document.

   The section also records per-phase duration p50/p99 over the corpus
   (through the public quantile estimator) so BENCH_obs.json doubles as
   the committed latency profile. *)
let metrics_overhead ?(n = 48) () =
  section "Metrics overhead: registry and span observer vs. metrics off";
  let fields, gates =
    on_off_gates ~enable:Mx.enable ~disable:Mx.disable
      ~reset:(fun () -> Mx.reset ())
      (codes_of (Solc.Corpus.dataset3 ~seed:(seed + 13) ~n))
  in
  (* per-phase latency profile from the timed enabled runs *)
  let phases =
    List.filter_map
      (fun (name, labels, _scale, snap) ->
        if name = "sigrec_phase_duration_seconds" && snap.Mx.count > 0 then
          Some
            (Json.Obj
               [
                 ("phase", Json.Str (String.concat "/" (List.map snd labels)));
                 ("spans", int snap.Mx.count);
                 ("p50_seconds", num (Mx.quantile snap 0.5));
                 ("p99_seconds", num (Mx.quantile snap 0.99));
               ])
        else None)
      (Mx.histograms ())
  in
  (* micro gates against a private registry so the probes don't pollute
     the default surface *)
  let reg = Mx.create_registry () in
  let mh = Mx.histogram ~registry:reg "bench_probe_ns" in
  Mx.disable ();
  let probe_fields, probe_gate =
    disabled_probe (fun ops ->
        for i = 0 to ops - 1 do
          if Mx.enabled () then Mx.observe mh i
        done)
  in
  (* an allocation gate, not a timing one: 1M calls resolve 0.01
     words per call and take a tenth of the time 10M would *)
  let observe_ns, observe_words =
    per_op ~ops:1_000_000 (fun ops ->
        for i = 0 to ops - 1 do
          Mx.observe mh i
        done)
  in
  (* shard-merge oracle: the same seeded observations through pool
     domains and through plain sequential code must agree bucket for
     bucket *)
  let oracle_n = 100_000 in
  let value st =
    (* LCG (java.util.Random multiplier) over the histogram's range *)
    st := (!st * 25214903917) + 11;
    !st land max_int mod 100_000_000
  in
  let values =
    let st = ref (seed + 17) in
    Array.init oracle_n (fun _ -> value st)
  in
  let bounds = Mx.default_latency_buckets in
  let expect_buckets = Array.make (Array.length bounds + 1) 0 in
  Array.iter
    (fun v ->
      let rec idx i =
        if i < Array.length bounds && v > bounds.(i) then idx (i + 1) else i
      in
      expect_buckets.(idx 0) <- expect_buckets.(idx 0) + 1)
    values;
  let oh = Mx.histogram ~registry:reg "bench_oracle" in
  let shards = 4 in
  Sigrec.Pool.ensure (shards - 1);
  (* pre-split the value stream so each task is deterministic whatever
     domain runs it *)
  let chunks =
    List.init shards (fun i ->
        Array.sub values (i * (oracle_n / shards)) (oracle_n / shards))
  in
  let batch =
    Sigrec.Pool.submit
      (List.map
         (fun chunk () -> Array.iter (fun v -> Mx.observe oh v) chunk)
         chunks)
  in
  Sigrec.Pool.await batch;
  let snap = Mx.snapshot oh in
  let merge_ok =
    snap.Mx.buckets = expect_buckets
    && snap.Mx.sum = Array.fold_left ( + ) 0 values
    && snap.Mx.count = shards * (oracle_n / shards)
  in
  (* exposition golden: byte-stable rendering of a fixed registry *)
  let greg = Mx.create_registry () in
  let gc = Mx.counter ~registry:greg ~help:"test counter" "golden_requests" in
  Mx.add gc 3;
  let gg =
    Mx.gauge ~registry:greg ~help:"test gauge"
      ~labels:[ ("k", "v\"w") ]
      "golden_temp"
  in
  Mx.set_gauge gg 1.5;
  let gh =
    Mx.histogram ~registry:greg ~buckets:[| 10; 100 |] ~scale:1.0
      "golden_sizes"
  in
  Mx.observe gh 5;
  Mx.observe gh 50;
  Mx.observe gh 500;
  let golden = Mx.expose ~registry:greg () in
  let expected_golden =
    "# HELP golden_requests test counter\n\
     # TYPE golden_requests counter\n\
     golden_requests_total 3\n\
     # HELP golden_temp test gauge\n\
     # TYPE golden_temp gauge\n\
     golden_temp{k=\"v\\\"w\"} 1.5\n\
     # TYPE golden_sizes histogram\n\
     golden_sizes_bucket{le=\"10\"} 1\n\
     golden_sizes_bucket{le=\"100\"} 2\n\
     golden_sizes_bucket{le=\"+Inf\"} 3\n\
     golden_sizes_sum 555\n\
     golden_sizes_count 3\n\
     # EOF\n"
  in
  Mx.disable ();
  Mx.reset ();
  conclude ~file:"BENCH_obs.json"
    (fields @ probe_fields
    @ [
        ("observe_ns_per_op", num observe_ns);
        ("observe_minor_words_per_op", num observe_words);
        ("phase_latency", Json.Arr phases);
      ])
    (gates
    @ [
      probe_gate;
      gate "observe" (observe_words < 0.01);
      gate ~key:"shard_merge_exact" "merge" merge_ok;
      gate ~key:"exposition_golden_stable" "golden" (golden = expected_golden);
    ])

(* ---------------------------------------------------------------- *)
(* Resident service: pooled multicore scaling and warm cache         *)
(* ---------------------------------------------------------------- *)

(* A resident serve session answering the same [op] request over
   [codes] twice: the engine's stats, each answer's wall time, and
   whether the session stayed up *)
let serve_twice ?(jobs = 1) op codes =
  let t =
    Sigrec.Serve.create
      Sigrec.Engine.Config.(
        default |> with_jobs jobs |> with_cache_capacity 4096)
  in
  let request =
    Json.to_string
      (Json.Obj
         [
           ("id", int 1);
           ("op", Json.Str op);
           ( "codes",
             Json.Arr (List.map (fun c -> Json.Str (Evm.Hex.encode c)) codes) );
         ])
  in
  let r1, t1 = wall (fun () -> Sigrec.Serve.handle_line t request) in
  let r2, t2 = wall (fun () -> Sigrec.Serve.handle_line t request) in
  ( Sigrec.Engine.stats (Sigrec.Serve.engine t),
    t1,
    t2,
    not (r1.Sigrec.Serve.shutdown || r2.Sigrec.Serve.shutdown) )

(* Five gates, written to BENCH_serve.json and enforced in --smoke:

   - drift: parallel output stays byte-identical to sequential;
   - pool: jobs=2 over the corpus is at least as fast as sequential
     (the budget is 3x the measured sequential noise plus 2%, floored
     at 10%, the same noise-aware shape as the trace gate). The engine
     clamps worker domains to the hardware count, so on a one-core
     machine this measures graceful degradation (jobs=2 IS the
     sequential engine — before the clamp, oversubscribed domains
     timesharing one core were ~1.7x slower than jobs=1 because every
     minor GC must rendezvous a descheduled domain), and on a
     multicore machine it measures real fan-out;
   - hand-off: a pooled submit/await round-trip is cheaper than a raw
     Domain.spawn/join round-trip (the old recover_all fan-out) — the
     machine-independent measure of what the persistent pool saves a
     resident daemon per batch. Round-trips, not throughput: the daemon
     pays one hand-off per batch;
   - serve: a resident serve session answers a repeated batch request
     from the cross-request report cache (hits recorded in Stats);
   - large-corpus: [big] > 0 measures jobs=2 scaling on a
     [big]-contract corpus (the full bench uses 1000); when the
     hardware has >= 2 domains the win must be real, not just
     break-even, otherwise the clamp must hold the loss within the
     pool gate's budget. Skipped when [big] = 0. *)
let serve_scaling ?(n = 180) ?(big = 0) () =
  section "Resident service: pooled multicore scaling and warm cache";
  let corpus n off = codes_of (Solc.Corpus.dataset3 ~seed:(seed + 11 + off) ~n) in
  let codes = corpus n 0 in
  let hw = Stdlib.max 1 (Domain.recommended_domain_count ()) in
  (* deliberately request more jobs than the hardware has: the engine
     clamps, and the gate below checks the clamp holds the line *)
  let jobs_n = Stdlib.max 2 hw in
  (* warm the pool (domain spawn + interner snapshot adoption) untimed:
     a resident daemon pays this once at startup, so the measurement
     excludes it the same way the trace bench excludes ring setup *)
  ignore (recover_fresh ~jobs:jobs_n codes);
  let seq = ref [] and par2 = ref [] in
  let[@warning "-8"] [ t_seq; t_par2 ] =
    sample ~runs:ratio_runs
      [
        (fun () -> seq := recover_fresh codes);
        (fun () -> par2 := recover_fresh ~jobs:2 codes);
      ]
  in
  let parn, t_parn = wall (fun () -> recover_fresh ~jobs:jobs_n codes) in
  let render = render ~normalize:true in
  let identical = render !seq = render !par2 && render !seq = render parn in
  let budget = budget t_seq.noise in
  let speedup t = t_seq.median /. Float.max 1e-9 t in
  Sigrec.Pool.ensure 1;
  let iters = 40 in
  let round_trip f () =
    for _ = 1 to iters do
      f ()
    done
  in
  let[@warning "-8"] [ pool_rt; spawn_rt ] =
    sample
      [
        round_trip (fun () ->
            Sigrec.Pool.await (Sigrec.Pool.submit [ (fun () -> ()) ]));
        round_trip (fun () -> Domain.join (Domain.spawn (fun () -> ())));
      ]
  in
  (* 200 round-trips per side, as 5 runs of 40 *)
  let pool_us = pool_rt.median /. float_of_int iters *. 1e6 in
  let spawn_us = spawn_rt.median /. float_of_int iters *. 1e6 in
  let big_fields, big_gate =
    if big <= 0 then
      ([], { name = "large-corpus"; key = "big_gate"; verdict = Skipped })
    else begin
      let bcodes = corpus big 1 in
      let[@warning "-8"] [ tbs; tbp ] =
        sample
          [
            (fun () -> ignore (recover_fresh bcodes));
            (fun () -> ignore (recover_fresh ~jobs:2 bcodes));
          ]
      in
      ( timing_fields "big_wall_seconds_jobs1" tbs
        @ timing_fields "big_wall_seconds_jobs2" tbp,
        gate ~key:"big_gate" "large-corpus"
          (if hw >= 2 then tbp.median < tbs.median
           else tbp.median <= tbs.median *. (1.0 +. budget)) )
    end
  in
  let stats, t_req1, t_req2, up = serve_twice ~jobs:jobs_n "recover" codes in
  let hits = Sigrec.Stats.cache_hits stats in
  conclude ~file:"BENCH_serve.json"
    ([ ("corpus_contracts", int n); ("hardware_domains", int hw) ]
    @ timing_fields "wall_seconds_jobs1" t_seq
    @ timing_fields "wall_seconds_jobs2" t_par2
    @ [ ("jobs_n", int jobs_n) ]
    @ [
        ("wall_seconds_jobsn", num t_parn);
        ("speedup_jobs2", num (speedup t_par2.median));
        ("speedup_jobsn", num (speedup t_parn));
        ("noise_fraction", num t_seq.noise);
        ("budget_fraction", num budget);
        ("parallel_identical", Json.Bool identical);
        ("pool_workers", int (Sigrec.Pool.workers ()));
        ("pool_roundtrip_us", num pool_us);
        ("spawn_roundtrip_us", num spawn_us);
      ]
    @ (("big_corpus_contracts", int big) :: big_fields)
    @ [
        ("serve_first_request_seconds", num t_req1);
        ("serve_repeat_request_seconds", num t_req2);
        ("serve_cross_request_cache_hits", int hits);
      ])
    [
      gate "drift" identical;
      gate "pool" (t_par2.median <= t_seq.median *. (1.0 +. budget));
      gate "handoff" (pool_rt.median < spawn_rt.median);
      gate "serve" (hits >= n && up);
      big_gate;
    ]

(* ---------------------------------------------------------------- *)
(* Storage-layout pass: the second recovery product                  *)
(* ---------------------------------------------------------------- *)

(* Three gates, written to BENCH_layout.json and enforced in --smoke:

   - precision: the recovered layout matches the generator's declared
     storage exactly — slots, kinds, packed lane boundaries — on every
     contract of the seeded layout corpus, with zero unresolved
     storage ops;
   - drift: the batch fan-out output is byte-identical across jobs=1
     and jobs=2;
   - cache: a repeated batch is answered from the layout LRU without
     re-analysis.

   Throughput (layouts/sec) is reported for tracking but not gated:
   absolute timing is machine-dependent. *)
let layout_pass ?(n = 150) () =
  section "Storage-layout pass: precision and batch fan-out";
  let samples = Solc.Corpus.layout_set ~seed:(seed + 17) ~n in
  let codes = List.map (fun s -> s.Solc.Corpus.lcode) samples in
  let module Layout = Sigrec_layout.Layout in
  let expected_decl (v : Solc.Lang.svar) =
    match v.Solc.Lang.kind with
    | Solc.Lang.Svalue [ 256 ] -> Layout.Word
    | Solc.Lang.Svalue widths ->
      Layout.Packed
        (List.map
           (fun (bit_offset, bit_width) -> { Layout.bit_offset; bit_width })
           (Option.get (Solc.Storage.truth_members widths)))
    | Solc.Lang.Smapping -> Layout.Mapping
    | Solc.Lang.Sarray -> Layout.Dyn_array
  in
  let render reports =
    String.concat "\n"
      (List.map
         (fun (r : Sigrec.Engine.layout_report) ->
           Format.asprintf "0x%s %a" r.Sigrec.Engine.layout_code_hash
             Layout.pp r.Sigrec.Engine.layout)
         reports)
  in
  let seq, t_seq =
    wall (fun () -> Sigrec.Engine.layout_all (engine_with ()) codes)
  in
  let par, t_par =
    wall (fun () -> Sigrec.Engine.layout_all (engine_with ~jobs:2 ()) codes)
  in
  let exact = ref 0 and unresolved = ref 0 in
  let total_slots = ref 0 in
  List.iter2
    (fun (s : Solc.Corpus.layout_sample)
         (r : Sigrec.Engine.layout_report) ->
      let want =
        List.sort
          (fun (a, _) (b, _) -> Evm.U256.compare a b)
          (List.map
             (fun (v : Solc.Lang.svar) ->
               (Evm.U256.of_int v.Solc.Lang.slot, expected_decl v))
             s.Solc.Corpus.svars)
      in
      let got =
        List.map
          (fun (e : Layout.entry) -> (e.Layout.slot, e.Layout.decl))
          r.Sigrec.Engine.layout.Layout.entries
      in
      total_slots := !total_slots + List.length want;
      unresolved :=
        !unresolved + r.Sigrec.Engine.layout.Layout.unknown_ops;
      if
        List.equal
          (fun (a, d) (b, e) -> Evm.U256.equal a b && d = e)
          got want
        && r.Sigrec.Engine.layout.Layout.complete
      then incr exact)
    samples seq;
  let engine = engine_with ~jobs:2 () in
  let _ = Sigrec.Engine.layout_all engine codes in
  let warm = Sigrec.Engine.layout_all engine codes in
  let cached =
    List.for_all (fun r -> r.Sigrec.Engine.layout_from_cache) warm
    && render warm = render seq
  in
  let per_sec = float_of_int n /. Float.max 1e-9 t_seq in
  conclude ~file:"BENCH_layout.json"
    [
      ("corpus_contracts", int n);
      ("declared_slots", int !total_slots);
      ("exact_layouts", int !exact);
      ("unresolved_ops", int !unresolved);
      ("wall_seconds_jobs1", num t_seq);
      ("wall_seconds_jobs2", num t_par);
      ("layouts_per_second", num per_sec);
    ]
    [
      gate "precision" (!exact = List.length samples && !unresolved = 0);
      gate "drift" (render seq = render par);
      gate "cache" cached;
    ]

(* ---------------------------------------------------------------- *)
(* Token-standard classification: ground-truth accuracy harness      *)
(* ---------------------------------------------------------------- *)

(* Three gates, written to BENCH_classify.json and enforced in
   --smoke — ratios and booleans only, never absolute timing:

   - accuracy: over the labeled token corpus, precision on exact
     verdicts must be 1.0 — every contract classified as an exact
     standard really carries the full required member set, so the
     planted negatives (dropped members, selector collisions,
     non-tokens) never classify exact — and recall over the exact
     positives must reach 0.95;
   - overhead: scoring is a thin layer over recovery. classify_all on
     a warm engine repeats the hash-and-lookup pass recover_all runs
     on the same warm engine, so the difference of the two isolates
     what classification itself adds; that must stay under 10% of the
     cold recovery wall-clock, widened to the measured cold-run noise
     when the machine is too jittery to resolve 10%;
   - serve: a resident session answers a repeated classify request
     from the cross-request verdict LRU (classify_cache_hits > 0). *)
let classify_pass ?(n = 150) () =
  section "Token-standard classification: ground-truth accuracy";
  let samples = Solc.Corpus.token_set ~seed:(seed + 19) ~n in
  let codes = List.map (fun s -> s.Solc.Corpus.tcode) samples in
  let module C = Sigrec_classify.Classify in
  (* each round: a cold recovery on a fresh engine, a warm recovery and
     a classification on that same engine *)
  let engine = ref (engine_with ()) and verdicts = ref [] in
  let[@warning "-8"] [ cold; warm; scored ] =
    sample
      [
        (fun () ->
          engine := engine_with ();
          ignore (Sigrec.Engine.recover_all !engine codes));
        (fun () -> ignore (Sigrec.Engine.recover_all !engine codes));
        (fun () -> verdicts := Sigrec.Engine.classify_all !engine codes);
      ]
  in
  let t_scoring = Float.max 0.0 (scored.median -. warm.median) in
  let overhead = t_scoring /. Float.max 1e-9 cold.median in
  let budget = budget ~widen:1.0 ~slack:0.0 cold.noise in
  let exact_positives = ref 0 in
  let exact_claims = ref 0 and exact_correct = ref 0 in
  let partial_hits = ref 0 in
  List.iter2
    (fun (s : Solc.Corpus.token_sample) (r : Sigrec.Engine.classify_report) ->
      let v = r.Sigrec.Engine.verdict in
      let is_exact =
        match v.C.best with Some b -> b.C.level = C.Exact | None -> false
      in
      let lbl = C.label v in
      if s.Solc.Corpus.texact then incr exact_positives;
      if is_exact then begin
        incr exact_claims;
        if s.Solc.Corpus.texact && lbl = s.Solc.Corpus.tlabel then
          incr exact_correct
      end
      else if
        s.Solc.Corpus.tlabel <> "none"
        && lbl = s.Solc.Corpus.tlabel ^ " (partial)"
      then incr partial_hits)
    samples !verdicts;
  let precision =
    if !exact_claims = 0 then 1.0
    else float_of_int !exact_correct /. float_of_int !exact_claims
  in
  let recall =
    if !exact_positives = 0 then 1.0
    else float_of_int !exact_correct /. float_of_int !exact_positives
  in
  let stats, _, _, up =
    serve_twice "classify" (List.filteri (fun i _ -> i < 12) codes)
  in
  let serve_hits = Sigrec.Stats.classify_cache_hits stats in
  let per_sec = float_of_int n /. Float.max 1e-9 (cold.median +. t_scoring) in
  conclude ~file:"BENCH_classify.json"
    ([
       ("corpus_contracts", int n);
       ("exact_positives", int !exact_positives);
       ("exact_claims", int !exact_claims);
       ("exact_correct", int !exact_correct);
       ("precision", num precision);
       ("recall", num recall);
       ("partials_caught", int !partial_hits);
     ]
    @ timing_fields "wall_seconds_recovery" cold
    @ timing_fields "wall_seconds_warm_recovery" warm
    @ timing_fields "wall_seconds_classify" scored
    @ [
        ("wall_seconds_scoring", num t_scoring);
        ("noise_fraction", num cold.noise);
        ("scoring_overhead_fraction", num overhead);
        ("budget_fraction", num budget);
        ("contracts_per_second", num per_sec);
        ("serve_verdict_cache_hits", int serve_hits);
      ])
    [
      gate "accuracy" (precision = 1.0 && recall >= 0.95);
      gate "overhead" (overhead < budget);
      gate "serve" (serve_hits > 0 && up);
    ]

(* ---------------------------------------------------------------- *)
(* Chain-scale streaming (10^5-contract corpora)                     *)
(* ---------------------------------------------------------------- *)

(* Four gates, written to BENCH_scale.json and enforced in --smoke —
   ratios and booleans only, never absolute timing:

   - identity: recover_stream emits the same reports as recover_all
     over the same codes (renders compared with from_cache normalized
     away — which batch first analyzes a bytecode depends on batch
     boundaries);
   - memory: streaming a generated corpus (default ~90% byte-identical
     duplicates, the mainnet profile) must cost less peak heap than the
     non-streaming path, which materializes every input line before
     recovering — the high-water growth of the whole cold streamed run
     must stay below what merely materializing the same corpus adds on
     top of it (the gap widens with n: the streamed side is bounded by
     distinct contracts, the materialized side grows with the stream);
   - dedup: the duplicated stream must run at a higher contracts/sec
     than a duplicate-free stream of the same pipeline (the cache is
     doing its job). One run each, not sampled: the duplicated stream
     analyzes about a tenth of its contracts, and over 40 smoke runs on
     2 vCPUs its rate was 2.9x to 7.4x the duplicate-free one (median
     3.9x), while 5 sampled runs per side would add ~1.5 s to --smoke;
   - allocation: the jobs=1 engine's minor words per contract over the
     symex_core corpus must stay at least 25% below the pre-diet
     baseline (54,613 words/contract, committed in BENCH_perf.json
     before the scratch-buffer work). *)

let alloc_baseline_words_per_contract = 54_613.0

let scale ?(n = 10_000) ?(alloc_n = 120) () =
  section "Chain-scale streaming recovery";
  let dup_rate = 0.9 in
  let domains = Domain.recommended_domain_count () in
  (* identity on a prefix-sized corpus *)
  let k = Stdlib.min n 400 in
  let ident_codes = ref [] in
  Solc.Corpus.stream ~seed:(seed + 13) ~n:k ~dup_rate (fun code ->
      ident_codes := code :: !ident_codes);
  let ident_codes = List.rev !ident_codes in
  let batch_reports = recover_fresh ident_codes in
  let stream_reports = ref [] in
  let fed =
    Sigrec.Engine.recover_stream (engine_with ()) ~batch:64
      (List.to_seq ident_codes) ~emit:(fun r ->
        stream_reports := r :: !stream_reports)
  in
  let identical =
    fed = k
    && render ~normalize:true batch_reports
       = render ~normalize:true (List.rev !stream_reports)
  in
  (* gates 2+3: stream the full corpus; generation happens inside the
     feed loop (as it would from a pipe), so both the duplicated and
     the duplicate-free run pay it identically *)
  let top_heap_bytes () =
    (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)
  in
  let run_streamed ~engine ~dup_rate ~n =
    let bytes_seen = ref 0 in
    let h0 = top_heap_bytes () in
    let contracts, t =
      wall (fun () ->
          let session = Sigrec.Engine.Stream.start engine ~emit:ignore in
          Solc.Corpus.stream ~seed:(seed + 13) ~n ~dup_rate (fun code ->
              bytes_seen := !bytes_seen + String.length code;
              Sigrec.Engine.Stream.feed session code);
          Sigrec.Engine.Stream.finish session)
    in
    let heap_growth_bytes = top_heap_bytes () - h0 in
    let stats = Sigrec.Engine.stats engine in
    ( contracts,
      float_of_int contracts /. Float.max 1e-9 t,
      !bytes_seen,
      heap_growth_bytes,
      Sigrec.Stats.cache_misses stats,
      Sigrec.Stats.stream_dedup_hits stats )
  in
  let stream_engine = engine_with ~jobs:domains () in
  let contracts, rate_dedup, corpus_bytes, heap_growth, distinct, dedup_hits
      =
    run_streamed ~engine:stream_engine ~dup_rate ~n
  in
  (* memory baseline: what the non-streaming path pays before analysis
     even starts — every line of the same corpus materialized as its
     own string (duplicates included, exactly as a file read does) plus
     a full-corpus report list. The engine is the warm one from the
     streamed run, so the delta isolates materialization: it must
     exceed what the entire cold streamed run added to the high-water
     mark. *)
  let h0 = top_heap_bytes () in
  let materialized = ref [] in
  Solc.Corpus.stream ~seed:(seed + 13) ~n ~dup_rate (fun code ->
      materialized := String.sub code 0 (String.length code) :: !materialized);
  let batch_reports =
    Sigrec.Engine.recover_all stream_engine (List.rev !materialized)
  in
  let batch_growth = top_heap_bytes () - h0 in
  let batch_count = List.length batch_reports in
  materialized := [];
  let n_cold = Stdlib.max 25 (n / 20) in
  let _, rate_cold, _, _, _, _ =
    run_streamed ~engine:(engine_with ~jobs:domains ()) ~dup_rate:0.0
      ~n:n_cold
  in
  (* gate 4: the allocation diet, measured the same way BENCH_perf.json
     measures it (jobs=1 recover_all, symex_core corpus shape) so the
     number is comparable to the committed pre-diet baseline *)
  let alloc_codes =
    codes_of
      (mixed_corpus ~seed:(seed + 9) ~n:alloc_n
         ~extra:(Stdlib.max 4 (alloc_n / 4)))
  in
  (* flush the young generation around the run: the allocated-words
     counter only advances at minor collections, so without the flush
     the delta is quantized to whole minor-heap units — far too coarse
     for a small corpus *)
  Gc.minor ();
  let _, _, minor, _ =
    measured (fun () ->
        let reports = recover_fresh alloc_codes in
        Gc.minor ();
        reports)
  in
  let words_per_contract = minor /. float_of_int (List.length alloc_codes) in
  let reduction =
    1.0 -. (words_per_contract /. alloc_baseline_words_per_contract)
  in
  conclude ~file:"BENCH_scale.json"
    [
      ("corpus_contracts", int contracts);
      ("distinct_analyses", int distinct);
      ("dup_rate", num dup_rate);
      ("stream_dedup_hits", int dedup_hits);
      ("hardware_domains", int domains);
      ("contracts_per_sec_deduped", num rate_dedup);
      ("contracts_per_sec_cold", num rate_cold);
      ("corpus_bytes", int corpus_bytes);
      ("stream_heap_growth_bytes", int heap_growth);
      ("materialized_heap_growth_bytes", int batch_growth);
      ("minor_words_per_contract", num words_per_contract);
      ("baseline_minor_words_per_contract", num alloc_baseline_words_per_contract);
      ("minor_words_reduction", num reduction);
    ]
    [
      gate "identity" identical;
      gate "memory" (batch_count = n && heap_growth < batch_growth);
      gate "dedup" (rate_dedup > rate_cold);
      gate ~key:"allocation_gate" "allocation"
        (words_per_contract <= 0.75 *. alloc_baseline_words_per_contract);
    ]

(* --smoke: every gate, on small corpora, fast enough for CI. Exit
   status 1 when any gate fails: recovery output drifting (parallel vs
   sequential, pruned vs unpruned, warm vs cold, interned vs structural
   equality classes, stream vs batch), a layout or classification
   accuracy regression, a cache that stops answering repeats, or a
   timing gate over its budget. Timing gates compare medians of
   interleaved runs (see {!Harness.sample}); absolute timing is
   deliberately NOT checked, only ratios. *)
let smoke () =
  let perf = symex_core ~emit:false ~n:16 () in
  let trace = trace_overhead ~n:32 () in
  let serve = serve_scaling ~n:180 () in
  let layout = layout_pass ~n:60 () in
  let classify = classify_pass ~n:60 () in
  let scale = scale ~n:8_000 ~alloc_n:120 () in
  (* last on purpose: the scale section's memory gate reads the
     process-wide top-heap high-water mark, and the serve section's
     timing gates are noise-sensitive — the metrics section's corpus
     runs and 100k-observation oracle must not shift their baselines *)
  let obs = metrics_overhead ~n:32 () in
  let failed =
    List.concat_map
      (fun (file, gates) ->
        List.filter_map
          (fun g ->
            if g.verdict = Fail then Some (Printf.sprintf "%s (%s)" g.name file)
            else None)
          gates)
      [
        ("recovery drift", perf);
        ("BENCH_trace.json", trace);
        ("BENCH_serve.json", serve);
        ("BENCH_layout.json", layout);
        ("BENCH_classify.json", classify);
        ("BENCH_scale.json", scale);
        ("BENCH_obs.json", obs);
      ]
  in
  if failed = [] then
    Printf.printf
      "\nsmoke: recovery output stable, trace and metrics overhead in \
       budget, resident-service, layout, classification and chain-scale \
       gates hold\n"
  else begin
    Printf.printf "\nsmoke: GATES FAILED: %s\n" (String.concat ", " failed);
    exit 1
  end

let () =
  if Array.exists (( = ) "--smoke") Sys.argv then smoke ()
  else begin
    let (), t =
      wall (fun () ->
          table1 ();
          table2 ();
          table3 ();
          table4 ();
          table5 ();
          fig15_16 ();
          fig17 ();
          fig18 ();
          fig19 ();
          app_parchecker ();
          app_fuzzer ();
          app_erays ();
          ablation ();
          obfuscation ();
          engine_batch ();
          static_pass ();
          let run section = ignore (section () : gate list) in
          run symex_core;
          run trace_overhead;
          run (serve_scaling ~big:1000);
          run layout_pass;
          run classify_pass;
          run (scale ~n:100_000);
          (* last: must not perturb the serve timing or scale heap gates *)
          run metrics_overhead;
          aggregation ();
          proptest_volume ();
          run_bechamel ())
    in
    Printf.printf "\ntotal bench time: %.1f s\n" t
  end
