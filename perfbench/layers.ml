(* The traced pass: the engine's work on one bytecode, rebuilt from the
   public function of each layer so that every call runs inside its own
   span. The rebuilt reports must render exactly like the engine's (the
   workloads check this), so the spans time the same work the untraced
   run does, in one domain.

   Layer names, as reported:
   - input.parse_line   hex line decoding (Sigrec.Input)
   - keccak.digest      code hashing (Contract.hash_of_code)
   - contract.make      assembling the per-contract context; its
                        children are exec.prepare (disassembly),
                        cfg.of_instructions, absint.whole (the entry-0
                        abstract interpretation and jump resolution),
                        cfg.control_deps and ids.extract
   - absint.entry       per-entry abstract interpretation
                        (Contract.absint_for)
   - symex.run          probe: Exec.run_prepared as Infer.infer calls it,
                        repeated right after Infer.infer on the same
                        entry (so it meets an interner Infer.infer has
                        already warmed)
   - infer              Infer.infer and Recover.of_infer; its self time
                        minus symex.run is reported as rules
   - layout             Layout.recover
   - classify.run       Classify.run with its dispatch probes
   - render             Render.report / layout_report / classify_report
   - unit               the benchmark's own loop around one batch call
                        or recover call, whose index is the span's
                        request id (not a layer; left out of coverage) *)

type ids = {
  unit_ : int;
  parse : int;
  keccak : int;
  make : int;
  prepare : int;
  cfg : int;
  absint_whole : int;
  deps : int;
  ids : int;
  absint_entry : int;
  symex : int;
  infer : int;
  layout : int;
  classify : int;
  render : int;
}

let ids sp =
  let i = Span.intern sp in
  let ids =
    {
      unit_ = i "unit";
      parse = i "input.parse_line";
      keccak = i "keccak.digest";
      make = i "contract.make";
      prepare = i "exec.prepare";
      cfg = i "cfg.of_instructions";
      absint_whole = i "absint.whole";
      deps = i "cfg.control_deps";
      ids = i "ids.extract";
      absint_entry = i "absint.entry";
      symex = i "symex.run";
      infer = i "infer";
      layout = i "layout";
      classify = i "classify.run";
      render = i "render";
    }
  in
  Span.mark_probe sp "symex.run";
  ids

(* Layers whose self time [coverage] sums; "unit" is benchmark glue and
   symex.run a probe. *)
let layer_names =
  [
    "input.parse_line";
    "keccak.digest";
    "contract.make";
    "exec.prepare";
    "cfg.of_instructions";
    "absint.whole";
    "cfg.control_deps";
    "ids.extract";
    "absint.entry";
    "infer";
    "layout";
    "classify.run";
    "render";
  ]

(* Bytes hashed by keccak.digest spans, for its ns-per-byte figure. *)
let hashed_bytes = ref 0

let hash sp ids code =
  hashed_bytes := !hashed_bytes + String.length code;
  Span.with_ sp ids.keccak (fun () -> Sigrec.Contract.hash_of_code code)

let contract_of sp ids code =
  Span.with_ sp ids.make (fun () ->
      let program = Span.with_ sp ids.prepare (fun () -> Symex.Exec.prepare code) in
      let raw_cfg =
        Span.with_ sp ids.cfg (fun () ->
            Evm.Cfg.of_instructions (Symex.Exec.instructions program))
      in
      let static, cfg =
        Span.with_ sp ids.absint_whole (fun () ->
            let static = Sigrec_static.Absint.analyze ~depth:0 ~entry:0 raw_cfg in
            (static, Sigrec_static.Absint.resolved_cfg static))
      in
      let code_hash = hash sp ids code in
      let deps = Span.with_ sp ids.deps (fun () -> Evm.Cfg.control_deps cfg) in
      let entries = Span.with_ sp ids.ids (fun () -> Sigrec.Ids.extract_prepared program) in
      {
        Sigrec.Contract.code;
        code_hash;
        program;
        cfg;
        deps;
        entries;
        static;
        unresolved_before = Evm.Cfg.unresolved_count raw_cfg;
        unresolved_after = Evm.Cfg.unresolved_count cfg;
        absint_cache = Hashtbl.create 8;
      })

let prune contract entry =
  let absint = Sigrec.Contract.absint_for contract ~entry in
  fun pc ->
    match Sigrec_static.Absint.prune_decision absint pc with
    | Some Sigrec_static.Absint.Take_jump -> Some Symex.Exec.Take_jump
    | Some Sigrec_static.Absint.Take_fallthrough -> Some Symex.Exec.Take_fallthrough
    | None -> None

let failed_report code e =
  {
    Sigrec.Engine.code_hash = Evm.Hex.encode (Sigrec.Contract.hash_of_code code);
    outcomes =
      [
        Sigrec.Engine.Failed
          { selector = ""; selector_hex = ""; entry_pc = -1; message = Printexc.to_string e };
      ];
    from_cache = false;
  }

(* Engine.recover's analysis of an uncached bytecode, with the engine's
   default configuration. *)
let analyze sp ids code =
  let config = Sigrec.Engine.Config.default in
  match contract_of sp ids code with
  | exception e -> failed_report code e
  | contract ->
    let stats = Sigrec.Stats.create () in
    let infer selector entry_pc =
      Span.with_ sp ids.absint_entry (fun () ->
          ignore (Sigrec.Contract.absint_for contract ~entry:entry_pc));
      let outcome =
        Span.with_ sp ids.infer (fun () ->
            let t0 = Unix.gettimeofday () in
            let result =
              Sigrec.Infer.infer ~stats ~config:config.Sigrec.Engine.Config.rules
                ~static_prune:config.Sigrec.Engine.Config.static_prune
                ?budget:config.Sigrec.Engine.Config.budget ~contract ~entry:entry_pc ()
            in
            let r = Sigrec.Recover.of_infer ~selector ~entry_pc result in
            let elapsed_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
            if Symex.Trace.truncated result.Sigrec.Infer.trace then
              Sigrec.Engine.Budget_exhausted
                {
                  partial = r;
                  paths_explored = result.Sigrec.Infer.trace.Symex.Trace.paths_explored;
                  elapsed_ns;
                }
            else Sigrec.Engine.Recovered { result = r; elapsed_ns })
      in
      Span.with_ sp ids.symex (fun () ->
          ignore
            (Symex.Exec.run_prepared ~prune:(prune contract entry_pc)
               contract.Sigrec.Contract.program ~entry:entry_pc
               ~init_stack:[ Symex.Sexpr.env "selector_residue" ] ()));
      outcome
    in
    let outcome { Sigrec.Ids.selector; entry_pc; entry_stack_depth = _ } =
      try infer selector entry_pc
      with e ->
        Sigrec.Engine.Failed
          {
            selector;
            selector_hex = Evm.Hex.encode selector;
            entry_pc;
            message = Printexc.to_string e;
          }
    in
    {
      Sigrec.Engine.code_hash = Sigrec.Contract.code_hash_hex contract;
      outcomes = List.map outcome contract.Sigrec.Contract.entries;
      from_cache = false;
    }

(* The engine's batch order against [cache]: look every distinct hash up
   first, [compute] the misses, then insert them — so that a bounded
   cache evicts where the engine's does. Each input comes back with its
   hash, its value and whether that came from the cache or an earlier
   duplicate. *)
let through_cache sp ids cache compute codes =
  let seen = Hashtbl.create 16 in
  let looked =
    List.map
      (fun code ->
        let h = hash sp ids code in
        if Hashtbl.mem seen h then (h, `Dup)
        else begin
          Hashtbl.replace seen h ();
          match Sigrec.Lru.find_opt cache h with
          | Some v -> (h, `Hit v)
          | None -> (h, `Miss code)
        end)
      codes
  in
  let by_hash = Hashtbl.create 16 in
  List.iter
    (function
      | h, `Hit v -> Hashtbl.replace by_hash h v
      | h, `Miss code -> Hashtbl.replace by_hash h (compute code)
      | _, `Dup -> ())
    looked;
  List.iter
    (function
      | h, `Miss _ when not (Sigrec.Lru.mem cache h) -> Sigrec.Lru.add cache h (Hashtbl.find by_hash h)
      | _ -> ())
    looked;
  List.map
    (fun (h, kind) ->
      (h, Hashtbl.find by_hash h, match kind with `Miss _ -> false | `Hit _ | `Dup -> true))
    looked

(* Engine.recover_all against [cache]. *)
let recover_batch sp ids cache codes =
  List.map
    (fun (_, r, cached) -> if cached then { r with Sigrec.Engine.from_cache = true } else r)
    (through_cache sp ids cache (analyze sp ids) codes)

let render sp ids r = Span.with_ sp ids.render (fun () -> Sigrec.Render.report r)
let render_layout sp ids r = Span.with_ sp ids.render (fun () -> Sigrec.Render.layout_report r)
let render_classify sp ids r = Span.with_ sp ids.render (fun () -> Sigrec.Render.classify_report r)

(* Engine.layout: hash, then the layout cache. *)
let layout_one sp ids cache code =
  let h = hash sp ids code in
  match Sigrec.Lru.find_opt cache h with
  | Some l -> l
  | None ->
    let l = Span.with_ sp ids.layout (fun () -> Sigrec_layout.Layout.recover code) in
    if not (Sigrec.Lru.mem cache h) then Sigrec.Lru.add cache h l;
    l

(* Engine.layout_all against [cache]. *)
let layout_batch sp ids cache codes =
  List.map
    (fun (h, layout, cached) ->
      {
        Sigrec.Engine.layout_code_hash = Evm.Hex.encode h;
        layout;
        layout_from_cache = cached;
      })
    (through_cache sp ids cache
       (fun code -> Span.with_ sp ids.layout (fun () -> Sigrec_layout.Layout.recover code))
       codes)

(* Engine.classify_all: recover_all again, then score every verdict
   [verdicts] does not hold, forcing the layout only when the scorer asks. *)
let classify_batch sp ids ~reports ~layouts ~verdicts codes =
  List.map2
    (fun code (r : Sigrec.Engine.report) ->
      let hash = r.Sigrec.Engine.code_hash in
      let verdict, from_cache =
        match Sigrec.Lru.find_opt verdicts hash with
        | Some v -> (v, true)
        | None ->
          let v =
            Span.with_ sp ids.classify (fun () ->
                Sigrec_classify.Classify.run
                  ~layout:(fun () -> layout_one sp ids layouts code)
                  ~probe:(Sigrec_classify.Classify.probe_dispatch ~code)
                  (Sigrec.Engine.evidence_of_report r))
          in
          if not (Sigrec.Lru.mem verdicts hash) then Sigrec.Lru.add verdicts hash v;
          (v, false)
      in
      { Sigrec.Engine.classify_code_hash = hash; verdict; classify_from_cache = from_cache })
    codes
    (recover_batch sp ids reports codes)

(* The untraced jobs=1 pass and the traced pass, [rounds] times each
   and alternating; the fastest of each kind is kept, so that load from
   elsewhere on the machine during some passes cannot skew coverage.
   Returns the untraced result and seconds, then the traced recorder, its
   result and the bytes it hashed. *)
let rounds = 5

let alternate ~untraced ~traced =
  let untraced_once () =
    let t0 = Unix.gettimeofday () in
    let v = untraced () in
    (v, Unix.gettimeofday () -. t0)
  in
  let traced_once () =
    let sp = Span.create () in
    hashed_bytes := 0;
    let v = traced sp (ids sp) in
    (sp, v, !hashed_bytes)
  in
  let faster (u, s) (u', s') = if s <= s' then (u, s) else (u', s') in
  let faster_traced ((sp, _, _) as t) ((sp', _, _) as t') =
    if Span.traced_wall sp <= Span.traced_wall sp' then t else t'
  in
  let rec go k u t =
    if k = rounds then (u, t)
    else
      let u = faster u (untraced_once ()) in
      go (k + 1) u (faster_traced t (traced_once ()))
  in
  let u0 = untraced_once () in
  let (u, u_s), (sp, v, bytes) = go 1 u0 (traced_once ()) in
  (u, u_s, sp, v, bytes)

(* ---- aggregation ---------------------------------------------------- *)

type summary = {
  per_call : (string * (int * float * float)) list;
      (** layer -> calls, self seconds per call, self words per call *)
  layer_s : float;  (** summed self time of the layers *)
  wall_s : float;  (** traced wall time without probes *)
}

let summarize sp =
  let tbl = Span.layers sp in
  let get name =
    match Hashtbl.find_opt tbl name with
    | Some l -> l
    | None -> { Span.calls = 0; self_s = 0.0; self_words = 0.0 }
  in
  let per_call name (l : Span.layer) =
    let c = float_of_int (Stdlib.max 1 l.Span.calls) in
    (name, (l.Span.calls, l.Span.self_s /. c, l.Span.self_words /. c))
  in
  let infer = get "infer" and symex = get "symex.run" in
  let rules =
    {
      Span.calls = infer.Span.calls;
      self_s = infer.Span.self_s -. symex.Span.self_s;
      self_words = infer.Span.self_words -. symex.Span.self_words;
    }
  in
  let names = layer_names @ [ "symex.run" ] in
  {
    per_call = List.map (fun n -> per_call n (get n)) names @ [ per_call "rules" rules ];
    layer_s = List.fold_left (fun a n -> a +. (get n).Span.self_s) 0.0 layer_names;
    wall_s = Span.traced_wall sp;
  }

(* layout and classify.run on contracts the workload recovered but does
   not run those products on, timed in a recorder of their own so that
   they stay out of the workload's coverage. *)
let off_path pairs =
  let sp = Span.create () in
  let ids = ids sp in
  List.iter
    (fun (code, report) ->
      Span.with_ sp ids.unit_ (fun () ->
          let layout =
            Span.with_ sp ids.layout (fun () -> Sigrec_layout.Layout.recover code)
          in
          ignore
            (Span.with_ sp ids.classify (fun () ->
                 Sigrec_classify.Classify.run
                   ~layout:(fun () -> layout)
                   ~probe:(Sigrec_classify.Classify.probe_dispatch ~code)
                   (Sigrec.Engine.evidence_of_report report)))))
    pairs;
  summarize sp
