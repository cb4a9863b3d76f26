(** Basic-block recovery over disassembled bytecode.

    Leaders are: offset 0, every [JUMPDEST], and every instruction
    following a block terminator. Jump targets are resolved statically
    when the jump is immediately preceded by a PUSH in the same block
    (sufficient for compiler-emitted dispatch and loop code, which is all
    SigRec needs — the paper notes that input-dependent jump targets occur
    in only a handful of deployed contracts). *)

type block = {
  start : int;                      (** offset of the first instruction *)
  instrs : Disasm.instruction list; (** in program order *)
  terminator : Opcode.t option;     (** last instruction if a terminator *)
  succ : successor list;
}

and successor =
  | Fallthrough of int
  | Jump_to of int
  | Branch of { taken : int; fallthrough : int }
  | Exit                            (** STOP/RETURN/REVERT/... *)
  | Unresolved                      (** dynamic jump target *)

type t

val build : string -> t
(** [build bytecode] disassembles and partitions into blocks. *)

val of_instructions : Disasm.instruction list -> t
(** Partition a listing as {!Disasm.disassemble} returns it (offsets
    ascending, each instruction starting where the previous one ends)
    into blocks. *)

val block_at : t -> int -> block option
val entry : t -> block option
val blocks : t -> block list
(** In ascending start-offset order. *)

val iter_blocks : (block -> unit) -> t -> unit
(** Apply to every block in ascending start-offset order without
    materializing the {!blocks} list — the traversal primitive for
    fixpoint passes that sweep the graph repeatedly. *)

val successors : t -> block -> block list
val block_count : t -> int
val pp : Format.formatter -> t -> unit

val unresolved_count : t -> int
(** Number of [Unresolved] successor edges left in the graph. *)

val resolve : t -> (int -> int list) -> t
(** [resolve t targets_of] replaces each block's [Unresolved] edge with
    [Jump_to] edges to [targets_of block.start]; an empty answer keeps
    the edge [Unresolved]. Used to feed targets recovered by the static
    abstract interpreter back into the graph. *)

val block_of_pc : t -> int -> block option
(** The block containing the instruction at the given byte offset. *)

val branch_condition_pc : block -> int option
(** If the block ends in JUMPI, the offset of that JUMPI. *)

val control_deps : t -> (int, int list) Hashtbl.t
(** Direct control dependences computed from post-dominators (Ferrante
    et al.): maps a block start to the starts of the branch blocks it is
    control-dependent on. The paper's rules R2/R3 interpret the chain of
    LT bound checks that an item load is (transitively)
    control-dependent on. *)

val transitive_deps : (int, int list) Hashtbl.t -> int -> int list
(** Transitive closure of a {!control_deps} table for one block,
    innermost dependence first. *)
