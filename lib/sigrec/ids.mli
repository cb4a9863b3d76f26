(** Function-id extraction from the dispatcher (paper §4.1 /
    supplementary E).

    The dispatcher reads the first four call-data bytes, shifts or
    divides them into place, and compares the result against each
    function id with EQ followed by a conditional jump. This module
    runs the dispatcher symbolically from offset 0 and takes every
    branch whose condition, after an even number of ISZEROs, is EQ of
    a constant of at most 32 bits and an expression over the call-data
    word at offset 0: the constant is a function id, the jump target
    the body's entry offset. The run stops at those entries — it
    records each dispatch branch but never explores its taken arm, so
    the function bodies are left to TASE. A scan of the disassembly
    for the compiler's compare-and-jump idioms runs too; the richer of
    the two answers wins (the idioms break under obfuscation, the
    symbolic run does not). *)

type entry = {
  selector : string;     (** 4 bytes *)
  entry_pc : int;        (** JUMPDEST offset of the function body *)
  entry_stack_depth : int;
      (** stack items left by the dispatcher at entry (the selector
          residue) *)
}

val extract : string -> entry list
(** [extract bytecode] returns entries in dispatch order. *)

val extract_prepared : Symex.Exec.program -> entry list
(** Same, over an already-disassembled program (no second sweep). *)

val uses_shr_dispatch : string -> bool
(** Whether the selector is moved with SHR (newer solc) rather than
    DIV. *)
