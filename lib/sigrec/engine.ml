module Tr = Sigrec_trace.Trace
module Mx = Sigrec_metrics.Metrics

module Config = struct
  type t = {
    rules : Rules.config;
    budget : Symex.Exec.budget option;
    static_prune : bool;
    jobs : int;
    cache_capacity : int;
  }

  let default =
    {
      rules = Rules.default_config;
      budget = None;
      static_prune = true;
      jobs = 0;
      cache_capacity = 0;
    }

  let with_budget budget t = { t with budget = Some budget }
  let with_static_prune static_prune t = { t with static_prune }
  let with_jobs jobs t = { t with jobs = Stdlib.max 0 jobs }

  let with_cache_capacity cache_capacity t =
    { t with cache_capacity = Stdlib.max 0 cache_capacity }
end

type error = {
  selector : string;
  selector_hex : string;
  entry_pc : int;
  message : string;
}

type outcome =
  | Recovered of { result : Recover.recovered; elapsed_ns : int }
  | Budget_exhausted of {
      partial : Recover.recovered;
      paths_explored : int;
      elapsed_ns : int;
    }
  | Failed of error

type report = {
  code_hash : string;
  outcomes : outcome list;
  from_cache : bool;
}

type t = {
  config : Config.t;
  cache : (string, report) Lru.t; (* 32-byte code hash -> report *)
  layouts : (string, Sigrec_layout.Layout.t) Lru.t; (* code hash -> layout *)
  verdicts : (string, Sigrec_classify.Classify.verdict) Lru.t;
      (* code hash -> interface classification *)
  lock : Mutex.t;
  stats : Stats.t;
}

let make config =
  {
    config;
    cache = Lru.create ~capacity:config.Config.cache_capacity;
    layouts = Lru.create ~capacity:config.Config.cache_capacity;
    verdicts = Lru.create ~capacity:config.Config.cache_capacity;
    lock = Mutex.create ();
    stats = Stats.create ();
  }

let config t = t.config

let signatures report =
  List.filter_map
    (function
      | Recovered { result = r; _ } | Budget_exhausted { partial = r; _ } ->
        Some r
      | Failed _ -> None)
    report.outcomes

let outcome_elapsed_ns = function
  | Recovered { elapsed_ns; _ } | Budget_exhausted { elapsed_ns; _ } ->
    Some elapsed_ns
  | Failed _ -> None

(* [elapsed_ns] is deliberately absent here: the rendered report is the
   drift invariant the tests and lint compare byte-for-byte. *)
let pp_outcome fmt = function
  | Recovered { result = r; _ } -> Format.fprintf fmt "%a" Recover.pp r
  | Budget_exhausted { partial; paths_explored; _ } ->
    Format.fprintf fmt "%a [budget exhausted after %d paths]" Recover.pp
      partial paths_explored
  | Failed e ->
    Format.fprintf fmt "0x%s [failed: %s]" e.selector_hex e.message

let pp_report fmt report =
  Format.fprintf fmt "@[<v>code hash 0x%s%s@," report.code_hash
    (if report.from_cache then " (cached)" else "");
  (match report.outcomes with
  | [] -> Format.fprintf fmt "  no public/external functions@,"
  | outcomes ->
    List.iter
      (fun o -> Format.fprintf fmt "  %a@," pp_outcome o)
      outcomes);
  Format.fprintf fmt "@]"

(* Analyze one bytecode cold: build the shared context once, then run
   TASE per dispatcher entry. Every per-function failure mode is
   reified into the outcome instead of yielding a silently shorter
   list. *)
let analyze_uncounted ~cfg ~stats ~code_hash code =
  let lift0 = Tr.now_ns () in
  match Contract.make ~code_hash code with
  | exception e ->
    {
      code_hash = Evm.Hex.encode code_hash;
      outcomes =
        [
          Failed
            {
              selector = "";
              selector_hex = "";
              entry_pc = -1;
              message = Printexc.to_string e;
            };
        ];
      from_cache = false;
    }
  | contract ->
    let lift_ns = Tr.now_ns () - lift0 in
    let outcomes =
      List.map
        (fun { Ids.selector; entry_pc; entry_stack_depth = _ } ->
          (* wall clock per function, measured whether or not tracing is
             on: one gettimeofday pair against milliseconds of work *)
          let ns0 = Tr.now_ns () in
          let t0_us = if Tr.enabled () then Tr.now_us () else 0. in
          let outcome =
            match
              Infer.infer ~stats ~config:cfg.Config.rules
                ~static_prune:cfg.Config.static_prune
                ?budget:cfg.Config.budget ~contract ~entry:entry_pc ()
            with
            | result ->
              let r = Recover.of_infer ~selector ~entry_pc result in
              let elapsed_ns = Tr.now_ns () - ns0 in
              if Symex.Trace.truncated result.Infer.trace then
                Budget_exhausted
                  {
                    partial = r;
                    paths_explored =
                      result.Infer.trace.Symex.Trace.paths_explored;
                    elapsed_ns;
                  }
              else Recovered { result = r; elapsed_ns }
            | exception e ->
              Failed
                {
                  selector;
                  selector_hex = Evm.Hex.encode selector;
                  entry_pc;
                  message = Printexc.to_string e;
                }
          in
          if Tr.enabled () then
            Tr.complete Tr.Engine "function" ~t0_us
              [
                ("selector", Tr.Str ("0x" ^ Evm.Hex.encode selector));
                ("entry_pc", Tr.Int entry_pc);
                ( "outcome",
                  Tr.Str
                    (match outcome with
                    | Recovered _ -> "recovered"
                    | Budget_exhausted _ -> "budget_exhausted"
                    | Failed _ -> "failed") );
                ( "paths",
                  Tr.Int
                    (match outcome with
                    | Recovered { result = r; _ }
                    | Budget_exhausted { partial = r; _ } ->
                      r.Recover.paths_explored
                    | Failed _ -> 0) );
              ];
          outcome)
        contract.Contract.entries
    in
    Stats.add_functions stats
      (List.length
         (List.filter (function Recovered _ -> true | _ -> false) outcomes));
    let code_hash = Contract.code_hash_hex contract in
    if Mx.enabled () then begin
      (* top-K slowest ring: the adversarial tail by code hash, with
         enough phase breakdown to tell a slow lift from a slow TASE *)
      let analysis_ns =
        List.fold_left
          (fun acc o ->
            match outcome_elapsed_ns o with Some ns -> acc + ns | None -> acc)
          0 outcomes
      in
      Mx.Top.record ~key:code_hash ~elapsed_ns:(lift_ns + analysis_ns)
        ~detail:
          [
            ("lift_ns", lift_ns);
            ("analysis_ns", analysis_ns);
            ("functions", List.length outcomes);
          ]
    end;
    { code_hash; outcomes; from_cache = false }

let analyze ~cfg ~stats ~code_hash code =
  Stats.cache_miss stats;
  let t0_us = if Tr.enabled () then Tr.now_us () else 0. in
  (* interner traffic is domain-local and an analysis runs entirely in
     one domain, so the before/after delta is exactly this analysis's *)
  let ih0, im0 = Symex.Sexpr.interner_counters () in
  let report = analyze_uncounted ~cfg ~stats ~code_hash code in
  let ih1, im1 = Symex.Sexpr.interner_counters () in
  Stats.add_interner stats ~hits:(ih1 - ih0) ~misses:(im1 - im0);
  if Tr.enabled () then
    Tr.complete Tr.Engine "input" ~t0_us
      [
        ("code_hash", Tr.Str report.code_hash);
        ("functions", Tr.Int (List.length report.outcomes));
        ("bytes", Tr.Int (String.length code));
      ];
  report

(* [Config.jobs] is a cap, not a demand: OCaml's stop-the-world minor
   collector makes domains that merely timeshare a core actively
   harmful (every minor GC must rendezvous a descheduled domain), so
   the engine never runs more workers than the hardware can schedule
   simultaneously. On a one-core machine jobs=8 and jobs=1 are the
   same engine. *)
let hardware_jobs =
  lazy (Stdlib.max 1 (Domain.recommended_domain_count ()))

let effective_jobs t =
  let hw = Lazy.force hardware_jobs in
  if t.config.Config.jobs > 0 then Stdlib.min t.config.Config.jobs hw
  else hw

(* The one content-addressed fan-out behind every product: hash each
   input once, look each distinct hash up once in [lru] (input order),
   [compute] the misses over the pool (each given its digest, so no
   product hashes a code twice), insert them in first-occurrence
   order and answer [(hash, value, reused)] per input, in input order.
   [count] attributes in-batch duplicates, reuses and LRU evictions to
   the engine's cache counters — the report cache's alone, so the
   other products leave those counters as they were. *)
let fetch_all t lru ~compute ~count codes =
  let codes = Array.of_list codes in
  let n = Array.length codes in
  let hashes = Array.map Contract.hash_of_code codes in
  (* Values this batch needs, keyed by code hash. Kept separate from
     the LRU so a bounded cache can evict mid-batch without the final
     assembly losing a value. *)
  let by_hash = Hashtbl.create ((2 * n) + 1) in
  (* Work list: first occurrence of each code hash not already cached.
     Duplicates — the common case on main net — are computed exactly
     once and answered from the result. *)
  let fresh = Array.make n false in
  let work = ref [] in
  Mutex.protect t.lock (fun () ->
      let seen = Hashtbl.create 64 in
      let dups = ref 0 in
      for i = 0 to n - 1 do
        let h = hashes.(i) in
        if Hashtbl.mem seen h then incr dups
        else begin
          Hashtbl.replace seen h ();
          match Lru.find_opt lru h with
          | Some v -> Hashtbl.replace by_hash h v
          | None ->
            fresh.(i) <- true;
            work := (h, codes.(i)) :: !work
        end
      done;
      if count && !dups > 0 then begin
        Stats.add_deduped t.stats !dups;
        if Tr.enabled () then
          Tr.instant Tr.Engine "dedup" [ ("duplicates", Tr.Int !dups) ]
      end);
  let work = Array.of_list (List.rev !work) in
  let work_n = Array.length work in
  let results = Array.make work_n None in
  let jobs = Stdlib.min (effective_jobs t) (Stdlib.max 1 work_n) in
  (* Workers claim chunks of contiguous indices from a shared counter —
     dynamic balancing like per-item claiming, but with fewer atomic
     operations and less false sharing on the results array. Each
     worker accumulates into its own Stats.t; no computation shares
     state, so the per-item results are identical whatever the
     interleaving. *)
  let chunk = Stdlib.max 1 (Stdlib.min 16 (work_n / (jobs * 8))) in
  let next = Atomic.make 0 in
  let worker () =
    let stats = Stats.create () in
    let rec loop () =
      let i0 = Atomic.fetch_and_add next chunk in
      if i0 < work_n then begin
        let hi = Stdlib.min (i0 + chunk) work_n in
        for i = i0 to hi - 1 do
          let code_hash, code = work.(i) in
          results.(i) <- Some (compute ~stats ~code_hash code)
        done;
        loop ()
      end
    in
    loop ();
    stats
  in
  let worker_stats =
    if jobs <= 1 then [ worker () ]
    else begin
      (* Fan out over the persistent pool: helpers are pooled domains
         spawned once per process (warm interners), the calling domain
         takes the remaining share. *)
      Pool.ensure (jobs - 1);
      let helpers = Stdlib.min (jobs - 1) (Pool.workers ()) in
      let collected = Array.make (Stdlib.max 1 helpers) None in
      let batch =
        Pool.submit
          (List.init helpers (fun k () -> collected.(k) <- Some (worker ())))
      in
      let mine = worker () in
      Pool.await batch;
      mine :: List.filter_map Fun.id (Array.to_list collected)
    end
  in
  Mutex.protect t.lock (fun () ->
      (* stats merging is commutative, and the inserts are keyed by
         distinct hashes, so the merged state does not depend on which
         domain computed what *)
      List.iter (fun s -> Stats.merge_into ~into:t.stats s) worker_stats;
      let ev0 = Lru.evictions lru in
      Array.iteri
        (fun i (h, _) ->
          let v = Option.get results.(i) in
          Hashtbl.replace by_hash h v;
          if not (Lru.mem lru h) then Lru.add lru h v)
        work;
      if count then begin
        let ev = Lru.evictions lru - ev0 in
        if ev > 0 then Stats.add_evictions t.stats ev;
        for _ = 1 to n - work_n do
          Stats.cache_hit t.stats
        done
      end);
  (* Assemble in input order: byte-identical output whatever [jobs]
     was. *)
  Array.to_list
    (Array.mapi (fun i h -> (h, Hashtbl.find by_hash h, not fresh.(i))) hashes)

let recover_all t codes =
  let reports =
    List.map
      (fun (_, report, reused) ->
        if not reused then report
        else begin
          if Tr.enabled () then
            Tr.instant Tr.Engine "cache_hit"
              [ ("code_hash", Tr.Str report.code_hash) ];
          { report with from_cache = true }
        end)
      (fetch_all t t.cache ~compute:(analyze ~cfg:t.config) ~count:true codes)
  in
  (* per-batch runtime-health sample: one Gc.quick_stat against a batch
     of analyses, so a scraping service sees heap growth between polls *)
  if Mx.enabled () then Mx.sample_gc ();
  reports

let recover t code = List.hd (recover_all t [ code ])

(* ---- streaming recovery --------------------------------------------- *)

(* Push-style front end over [recover_all]: bytecodes accumulate into a
   bounded buffer, and each full buffer goes through the batch engine —
   worker fan-out, in-batch dedup and the report LRU all apply — with
   the reports handed to the caller in input order. Memory is bounded
   by the batch size, never the corpus: a million-line stream holds at
   most [batch] bytecodes plus whatever the LRU retains. Cross-batch
   duplicates are answered by the cache, so the stream exploits chain-
   scale duplication exactly like one huge batch would. *)
module Stream = struct
  type progress = {
    contracts : int;  (** bytecodes fed so far *)
    distinct : int;  (** contracts answered by a fresh analysis *)
    dedup_hits : int;  (** contracts answered from cache / in-batch dedup *)
    elapsed_ns : int;
    rate : float;  (** contracts per second since [start] *)
    heap_mb : float;  (** live major-heap size right now *)
    eta_ns : int option;  (** remaining time at current rate, when the
                              caller declared [expected] *)
  }

  type session = {
    s_engine : t;
    s_batch : int;
    s_emit : report -> unit;
    s_progress : (progress -> unit) option;
    s_every : int;
    s_expected : int option;
    mutable s_buf : string list; (* newest first *)
    mutable s_len : int;
    mutable s_total : int;
    mutable s_dedup : int;
    mutable s_last_report : int; (* s_total at the last heartbeat *)
    s_t0_ns : int;
  }

  let default_batch = 256

  let start ?(batch = default_batch) ?(progress_every = 1000) ?progress
      ?expected engine ~emit =
    {
      s_engine = engine;
      s_batch = Stdlib.max 1 batch;
      s_emit = emit;
      s_progress = progress;
      s_every = Stdlib.max 1 progress_every;
      s_expected = expected;
      s_buf = [];
      s_len = 0;
      s_total = 0;
      s_dedup = 0;
      s_last_report = 0;
      s_t0_ns = Tr.now_ns ();
    }

  (* Heartbeats fire at flush boundaries, not per contract: the batch is
     the unit of work, so the rate and heap numbers describe completed
     analyses, and the callback can never observe a half-flushed
     buffer. *)
  let report_progress s report =
    match s.s_progress with
    | Some f when report ->
      s.s_last_report <- s.s_total;
      let elapsed_ns = Stdlib.max 1 (Tr.now_ns () - s.s_t0_ns) in
      let rate = float_of_int s.s_total /. (float_of_int elapsed_ns *. 1e-9) in
      let heap_mb =
        float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8))
        /. 1048576.0
      in
      let eta_ns =
        match s.s_expected with
        | Some total when total > s.s_total && rate > 0.0 ->
          Some
            (int_of_float (float_of_int (total - s.s_total) /. rate *. 1e9))
        | _ -> None
      in
      f
        {
          contracts = s.s_total;
          distinct = s.s_total - s.s_dedup;
          dedup_hits = s.s_dedup;
          elapsed_ns;
          rate;
          heap_mb;
          eta_ns;
        }
    | _ -> ()

  let flush s =
    if s.s_len > 0 then begin
      let codes = List.rev s.s_buf in
      s.s_buf <- [];
      s.s_len <- 0;
      let reports = recover_all s.s_engine codes in
      let dedup =
        List.fold_left
          (fun acc r -> if r.from_cache then acc + 1 else acc)
          0 reports
      in
      s.s_dedup <- s.s_dedup + dedup;
      if dedup > 0 then
        Mutex.protect s.s_engine.lock (fun () ->
            Stats.add_stream_dedup s.s_engine.stats dedup);
      List.iter s.s_emit reports;
      report_progress s (s.s_total - s.s_last_report >= s.s_every)
    end

  let feed s code =
    s.s_buf <- code :: s.s_buf;
    s.s_len <- s.s_len + 1;
    s.s_total <- s.s_total + 1;
    if s.s_len >= s.s_batch then flush s

  let finish s =
    flush s;
    (* closing heartbeat, so a consumer always sees the final totals
       even when the stream length is not a multiple of the cadence *)
    if s.s_total > s.s_last_report then report_progress s true;
    s.s_total
end

let recover_stream ?batch t codes ~emit =
  let s = Stream.start ?batch t ~emit in
  Seq.iter (Stream.feed s) codes;
  Stream.finish s

let stats t = t.stats

let cache_size t = Mutex.protect t.lock (fun () -> Lru.length t.cache)

let cache_stats t =
  let row name lru =
    (name, Lru.length lru, Lru.capacity lru, Lru.evictions lru)
  in
  Mutex.protect t.lock (fun () ->
      [
        row "reports" t.cache;
        row "layouts" t.layouts;
        row "verdicts" t.verdicts;
      ])

(* ---- storage-layout recovery ---------------------------------------- *)

type layout_report = {
  layout_code_hash : string;
  layout : Sigrec_layout.Layout.t;
  layout_from_cache : bool;
}

let layout_of_code ~stats ~code_hash:_ code =
  let layout = Sigrec_layout.Layout.recover code in
  Stats.add_layout stats
    ~slots:(List.length layout.Sigrec_layout.Layout.entries)
    ~unknown:layout.Sigrec_layout.Layout.unknown_ops;
  layout

(* The layout pass shares nothing across contracts, so the shared
   fan-out's output is byte-identical whatever [jobs] resolves to. *)
let layout_all t codes =
  List.map
    (fun (h, layout, reused) ->
      {
        layout_code_hash = Evm.Hex.encode h;
        layout;
        layout_from_cache = reused;
      })
    (fetch_all t t.layouts ~compute:layout_of_code ~count:false codes)

let layout t code = List.hd (layout_all t [ code ])

(* ---- token-standard interface classification ------------------------- *)

module Classify = Sigrec_classify.Classify

type classify_report = {
  classify_code_hash : string;
  verdict : Classify.verdict;
  classify_from_cache : bool;
}

(* Everything a report knows that the classifier can use: full
   recoveries with their types, budget-exhausted partials flagged as
   such (they can lend partial credit, never an exact match), and the
   bare selector of a per-function failure (the dispatcher proved the
   id exists even though TASE crashed on the body). *)
let evidence_of_report report =
  List.filter_map
    (function
      | Recovered { result = r; _ } ->
        Some
          (Classify.evidence ~selector:r.Recover.selector r.Recover.params)
      | Budget_exhausted { partial = r; _ } ->
        Some
          (Classify.evidence ~partial:true ~selector:r.Recover.selector
             r.Recover.params)
      | Failed e when String.length e.selector = 4 ->
        Some (Classify.bare e.selector)
      | Failed _ -> None)
    report.outcomes

let verdict_outcome (v : Classify.verdict) =
  match v.Classify.best with
  | Some r when r.Classify.level = Classify.Exact -> `Exact
  | Some _ -> `Partial
  | None -> `Unknown

let classify_of_report t ~code report =
  let t0_us = if Tr.enabled () then Tr.now_us () else 0. in
  (* the layout thunk routes through the engine's layout LRU, so the
     classifier only pays for the storage pass when the verdict needs
     the typed-state evidence -- and at most once per bytecode *)
  let force_layout () = (layout t code).layout in
  let verdict =
    Classify.run ~layout:force_layout
      ~probe:(Classify.probe_dispatch ~code)
      (evidence_of_report report)
  in
  if Tr.enabled () then
    Tr.complete Tr.Engine "classify" ~t0_us
      [
        ("code_hash", Tr.Str report.code_hash);
        ("label", Tr.Str (Classify.label verdict));
        ("probes", Tr.Int verdict.Classify.probes_run);
      ];
  verdict

(* The verdict LRU is keyed by the report's hex code hash: recovery
   already paid the Keccak, so classification never rehashes the
   bytecode. *)
let classify_one t code report =
  let hash = report.code_hash in
  let cached =
    Mutex.protect t.lock (fun () ->
        let v = Lru.find_opt t.verdicts hash in
        if Option.is_some v then Stats.add_classify_cache_hits t.stats 1;
        v)
  in
  let verdict, from_cache =
    match cached with
    | Some verdict ->
      if Tr.enabled () then
        Tr.instant Tr.Engine "classify_cache_hit"
          [ ("code_hash", Tr.Str hash) ];
      (verdict, true)
    | None ->
      let verdict = classify_of_report t ~code report in
      Mutex.protect t.lock (fun () ->
          Stats.add_classification t.stats ~outcome:(verdict_outcome verdict)
            ~probes:verdict.Classify.probes_run;
          if not (Lru.mem t.verdicts hash) then
            Lru.add t.verdicts hash verdict);
      (verdict, false)
  in
  { classify_code_hash = hash; verdict; classify_from_cache = from_cache }

(* Rides on [recover_all] -- pooled fan-out, in-batch dedup and the
   report LRU all apply to the expensive part -- and then scores the
   verdicts in input order. Matching is selector-set arithmetic, orders
   of magnitude below an analysis, so scoring serially keeps the output
   deterministic at no measurable cost; duplicate bytecodes hit the
   verdict LRU after the first is scored. *)
let classify_all t codes =
  List.map2 (classify_one t) codes (recover_all t codes)

let classify t code = List.hd (classify_all t [ code ])
