(** Fixpoint abstract interpretation over {!Evm.Cfg} with the
    constant/taint domain of {!Domain}.

    One [analyze] run does three jobs at once:

    - {b jump resolution}: a cross-block pushed target (or one split
      across arithmetic by an obfuscator) reaches its JUMP as a
      [Consts] value; the discovered edges are collected in [resolved]
      and can be folded back into the CFG with {!resolved_cfg},
      shrinking [Unresolved] successors;
    - {b access summaries}: a second, recording pass over the converged
      states fills a {!Summary.t} — constant read offsets, masks,
      sign-extensions, copy ranges and bound checks — without any
      symbolic execution;
    - {b fork pruning}: every JUMPI whose condition is provably
      calldata-independent, in a state with no call-data-derived value
      live, and with at most one calldata-relevant arm gets a
      {!decision} the executor can follow instead of forking.

    The interpreter never unrolls loops: joined counters widen through
    the bounded constant set to [Untainted], so convergence is by
    lattice height, with a per-block visit bound as a backstop (a run
    that trips it reports [converged = false], drops its prune table,
    and marks its summary incomplete). *)

module Imap : Map.S with type key = int

type astate = {
  stack : Domain.t list;       (** top first *)
  mem : Domain.t Imap.t;       (** words stored at constant offsets *)
  mem_rest : Domain.t;         (** everything else *)
  clipped : bool;              (** stack depths disagreed at a join *)
}

type decision =
  | Take_jump          (** only the taken arm matters *)
  | Take_fallthrough   (** only the fall-through arm matters *)

(** Storage traffic observed by the recording pass, in canonical
    (pc-major) order. [Smask (slot, k, w)] is packed-member evidence:
    a mask isolating bits [k, k+w) of the word at [slot], fired by both
    the shifted-read and the clear-before-write idioms. *)
type storage_ev = { pc : int; ev : storage_kind }

and storage_kind =
  | Sload of Domain.slot option     (** [None]: address not resolved *)
  | Sstore of Domain.slot option * Domain.t  (** address, stored value *)
  | Sderive of Domain.slot          (** SHA3 produced this derivation *)
  | Smask of Domain.slot * int * int

type result = {
  cfg : Evm.Cfg.t;                          (** the graph analyzed *)
  entry : int;
  entry_states : (int, astate) Hashtbl.t;   (** per reached block *)
  resolved : (int, int list) Hashtbl.t;
      (** block start -> jump targets found for its [Unresolved] edge *)
  relevant : (int, unit) Hashtbl.t;
      (** starts of the blocks that can still touch the call data: they
          read it, end in a jump nobody resolved, or reach such a block.
          Computed over the whole graph, independent of [entry]; a run
          given a [base] may share [base]'s table (see {!analyze}), so
          treat it as read-only. *)
  summary : Summary.t;
  storage : storage_ev list;                (** SSTORE/SLOAD/SHA3 traffic *)
  prune : (int, decision) Hashtbl.t;        (** JUMPI pc -> arm to keep *)
  converged : bool;
}

val analyze : ?base:result -> ?depth:int -> entry:int -> Evm.Cfg.t -> result
(** [analyze ~entry cfg] runs to fixpoint from [entry]. [depth] is the
    number of opaque (untainted) values on the stack at entry — 0 for
    the contract entry point, 1 for a dispatcher-routed function body,
    matching the selector residue the executor models as a free
    symbol.

    [base] is an earlier whole-contract run whose [relevant] set this
    run reuses, physically, when it resolves no jump of its own; a run
    that does resolve one computes its own set over the whole graph.
    Precondition: [cfg] is [resolved_cfg base] or [base.cfg]. With
    [base.cfg] the set is shared only if [base] resolved nothing,
    since then the two graphs are the same. Under this precondition
    the result equals that of the same call without [base]. *)

val reached : result -> int -> bool
(** Whether the block at this start was reached from [entry]. *)

val prune_decision : result -> int -> decision option
val resolved_targets : result -> int -> int list
val resolved_count : result -> int
(** Number of blocks whose [Unresolved] edge gained targets. *)

val resolved_cfg : result -> Evm.Cfg.t
(** The input CFG with every resolved [Unresolved] edge replaced by
    the discovered [Jump_to] edges. *)
