(** Batch recovery engine: three products from runtime bytecode —
    function signatures ({!recover_all}), storage layouts
    ({!layout_all}) and token-standard verdicts ({!classify_all}).

    Signatures and layouts go through one content-addressed fan-out:
    each input is hashed once (Keccak-256), each distinct hash is
    looked up once in the product's own LRU (optionally bounded by
    {!Config.cache_capacity}), the misses are computed once each on a
    persistent domain pool ({!Pool}), and the answers come back in
    input order — byte-identical whatever {!Config.jobs} is. The
    single-bytecode calls ({!recover}, {!layout}, {!classify}) are the
    batch calls on a one-element list. Classification rides on
    {!recover_all} and scores the verdicts serially, in input order,
    behind a third LRU.

    Each dispatcher entry resolves to a structured {!outcome} rather
    than a silently-empty result list, so callers can tell "no public
    functions" from "symbolic execution gave up" from "the analysis
    crashed".

    An engine is safe to share between domains; all cache and stats
    mutation happens under an internal lock. It is configured with one
    explicit {!Config.t} record ({!make}). *)

(** Everything an engine's behavior depends on, in one explicit record.

    Build one with functional updates from {!Config.default}:
    {[
      Engine.make
        Config.(default |> with_jobs 4 |> with_cache_capacity 4096)
    ]}
    The configuration is part of what a cached report means, so use one
    engine per configuration. *)
module Config : sig
  type t = {
    rules : Rules.config;  (** recovery-rule switches (masks, guards…) *)
    budget : Symex.Exec.budget option;
        (** symbolic-execution budget; [None] means
            [Symex.Exec.default_budget] (512 paths, 20,000 steps, 3
            forks per pc), never an unbounded run *)
    static_prune : bool;
        (** abstract-interpretation pre-screen that skips forking at
            branches proven calldata-independent; see
            [Stats.forks_pruned] *)
    jobs : int;
        (** upper bound on worker domains for the batch calls; [0] (the
            default) means [Domain.recommended_domain_count ()]. This
            is a cap, not a demand: the engine never runs more domains
            than the hardware can schedule simultaneously, because
            OCaml's stop-the-world minor collector makes timesharing
            domains slower than one — on a one-core machine every
            [jobs] value is the sequential engine. *)
    cache_capacity : int;
        (** max cached reports before LRU eviction; [0] = unbounded
            (the one-shot CLI default — a resident service should set a
            bound) *)
  }

  val default : t
  (** [{ rules = Rules.default_config; budget = None;
        static_prune = true; jobs = 0; cache_capacity = 0 }] —
      identical behavior to the old [create ()]. *)

  val with_budget : Symex.Exec.budget -> t -> t
  val with_static_prune : bool -> t -> t

  val with_jobs : int -> t -> t
  (** Clamped to [>= 0]; [0] = auto. See {!type-t.jobs}: the value is
      an upper bound, further clamped to the hardware domain count at
      run time. *)

  val with_cache_capacity : int -> t -> t
  (** Clamped to [>= 0]; [0] = unbounded. *)
end

type error = {
  selector : string;       (** 4 raw bytes; [""] for contract-level failure *)
  selector_hex : string;
  entry_pc : int;          (** [-1] for contract-level failure *)
  message : string;
}

type outcome =
  | Recovered of { result : Recover.recovered; elapsed_ns : int }
      (** [elapsed_ns] is this function's wall-clock analysis time —
          measured unconditionally, so [batch --format json] reports
          per-contract latency without tracing enabled. Never rendered
          by {!pp_outcome}: the printed report stays byte-identical
          across runs. *)
  | Budget_exhausted of {
      partial : Recover.recovered;
      paths_explored : int;
      elapsed_ns : int;
    }
      (** symbolic execution hit its path/step budget: [partial] holds
          whatever the truncated trace supported and may be missing
          parameters or refinements *)
  | Failed of error

type report = {
  code_hash : string;      (** lowercase hex Keccak-256 of the bytecode *)
  outcomes : outcome list; (** one per dispatcher entry, dispatch order;
                               empty = no public/external functions *)
  from_cache : bool;
}

type t

val make : Config.t -> t
(** A fresh engine with an empty cache, configured by [config]. *)

val config : t -> Config.t
(** The configuration the engine was made with. *)

val recover : t -> string -> report
(** [recover t bytecode] is [recover_all t [bytecode]]: it answers from
    the cache or analyzes and fills it, leaving the counters a batch of
    one would. *)

val recover_all : t -> string list -> report list
(** [recover_all t codes] returns one report per input, in input order.
    Distinct uncached bytecodes are analyzed in parallel on up to
    [Config.jobs] domains (pooled, persistent across batches, and
    never more than the hardware supports); duplicates and cache hits
    are answered without re-analysis. The result is byte-identical to
    [jobs = 1]. *)

(** Streaming recovery: feed bytecodes one at a time, receive reports
    through a callback, and never hold more than one batch in memory.

    A session buffers up to [batch] bytecodes (default
    {!Stream.default_batch}) and pushes each full buffer through
    {!recover_all}, so worker fan-out, in-batch dedup and the report
    LRU all apply; reports are emitted in feed order. Cross-batch
    duplicates — ~90 % of a mainnet corpus — are answered from the
    cache without re-analysis and counted in [Stats.stream_dedup_hits].
    A session is not thread-safe; feed it from one thread (the engine
    underneath still parallelizes each batch). *)
module Stream : sig
  type session

  (** One census heartbeat: a monotonic snapshot of the session so far,
      delivered at batch boundaries. *)
  type progress = {
    contracts : int;  (** bytecodes fed so far *)
    distinct : int;  (** answered by a fresh analysis *)
    dedup_hits : int;  (** answered from cache / in-batch dedup *)
    elapsed_ns : int;
    rate : float;  (** contracts per second since [start] *)
    heap_mb : float;  (** live major-heap size at the heartbeat *)
    eta_ns : int option;
        (** remaining time at the current rate; [None] unless the
            caller declared [expected] and it is still ahead *)
  }

  val default_batch : int
  (** 256 — large enough to amortize pool fan-out and in-batch dedup,
      small enough that buffered bytecodes stay in cache-friendly
      memory. *)

  val start :
    ?batch:int ->
    ?progress_every:int ->
    ?progress:(progress -> unit) ->
    ?expected:int ->
    t ->
    emit:(report -> unit) ->
    session
  (** [emit] is called once per fed bytecode, in feed order, as each
      internal batch completes. When [progress] is given it fires at
      the first batch boundary after every [progress_every] contracts
      (default 1000) — never mid-batch, so the numbers always describe
      completed analyses — plus once at {!finish} if anything was fed
      since the last heartbeat. [expected] (a known corpus size)
      enables the [eta_ns] field. *)

  val feed : session -> string -> unit
  (** Buffer one bytecode; runs a batch (invoking [emit]) when the
      buffer reaches the batch size. *)

  val finish : session -> int
  (** Flush the remaining partial batch and return the total number of
      bytecodes fed over the session's lifetime. *)
end

val recover_stream :
  ?batch:int -> t -> string Seq.t -> emit:(report -> unit) -> int
(** [recover_stream t codes ~emit] drains [codes] through a
    {!Stream.session} and returns the contract count. Output (the
    [emit] sequence) is report-for-report identical to
    [recover_all t (List.of_seq codes)] up to [from_cache] flags —
    which batch first analyzes a given bytecode depends on the batch
    boundaries. *)

val signatures : report -> Recover.recovered list
(** The recovered signatures including budget-exhausted partials — the
    closest equivalent of the old [Recover.recover] result. *)

val stats : t -> Stats.t
(** Cumulative counters: rule usage, functions recovered, paths
    explored, cache hits/misses/evictions ([cache_misses] = analyses
    actually run). *)

val cache_size : t -> int

val effective_jobs : t -> int
(** The worker-domain count {!recover_all} actually uses: [Config.jobs]
    clamped to the hardware ([Domain.recommended_domain_count ()]), or
    the hardware count when [jobs = 0]. The ["workers"] field a serve
    [metrics] reply reports. *)

val cache_stats : t -> (string * int * int * int) list
(** Every LRU the engine owns as [(name, length, capacity, evictions)]
    — [("reports", …); ("layouts", …); ("verdicts", …)] — read under
    the engine lock. Capacity 0 means unbounded. Feeds the cache gauges
    on the metrics surface. *)

val outcome_elapsed_ns : outcome -> int option
(** Per-function wall-clock analysis time; [None] for [Failed]. *)


val pp_outcome : Format.formatter -> outcome -> unit
val pp_report : Format.formatter -> report -> unit

(** {1 Storage-layout recovery} *)

type layout_report = {
  layout_code_hash : string;
      (** lowercase hex Keccak-256 of the bytecode *)
  layout : Sigrec_layout.Layout.t;
  layout_from_cache : bool;
}

val layout : t -> string -> layout_report
(** [layout t bytecode] is [layout_all t [bytecode]]: the contract's
    storage layout, answered from the engine's layout cache when the
    same bytecode was already analyzed. Layouts live in their own LRU
    (same {!Config.cache_capacity} bound as signature reports): the two
    products cache independently, so interleaving them never evicts
    the other's entries early. Layout reuse is not counted in the
    [Stats] cache counters, which describe the report cache. *)

val layout_all : t -> string list -> layout_report list
(** One layout report per input, in input order; distinct uncached
    bytecodes fan out over the worker pool like {!recover_all}, with
    byte-identical output whatever the parallelism. *)

(** {1 Token-standard interface classification} *)

type classify_report = {
  classify_code_hash : string;
      (** lowercase hex Keccak-256 of the bytecode *)
  verdict : Sigrec_classify.Classify.verdict;
  classify_from_cache : bool;
}

val classify : t -> string -> classify_report
(** [classify t bytecode] is [classify_all t [bytecode]]: it recovers the contract's signatures (through
    the report cache) and scores them against the ERC interface specs
    ({!Sigrec_classify.Classify.run}), with behavioural corroboration
    on the contract's own bytecode and the engine's layout pass as
    lazy typed-state evidence. Verdicts live in their own LRU (same
    {!Config.cache_capacity} bound), so a resident service answers
    repeated classifications without re-scoring. *)

val classify_all : t -> string list -> classify_report list
(** One classification per input, in input order. Recovery fans out
    through {!recover_all} (pool, dedup, report LRU); scoring itself
    is cheap and runs in input order, so the output is deterministic
    whatever the parallelism. *)

val evidence_of_report : report -> Sigrec_classify.Classify.evidence list
(** The classification evidence a report carries: full recoveries,
    budget-exhausted partials (marked — they never support an exact
    match), and bare selectors of per-function failures. *)
