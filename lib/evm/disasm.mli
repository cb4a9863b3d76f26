(** Linear-sweep disassembler (equivalent to the Geth disassembler the
    paper uses): decodes runtime bytecode into instructions located by
    byte offset. A PUSH whose immediate is truncated by the end of code is
    decoded with the missing bytes as zero, as EVM does. *)

type instruction = { offset : int; op : Opcode.t }

val disassemble : string -> instruction list

type index
(** The opcode that starts at each byte offset of a listing, for
    executors that fetch by pc: one array read per lookup. *)

val index : instruction list -> index
(** Index a listing as {!disassemble} returns it. *)

val op_at : index -> int -> Opcode.t option
(** The instruction starting at the offset; [None] inside a PUSH
    immediate and outside the code. *)

val is_jumpdest : index -> int -> bool
(** A valid jump destination: a [JUMPDEST] instruction, not a 0x5b
    byte inside a PUSH immediate. *)

val pp_listing : Format.formatter -> instruction list -> unit

val instruction_at : instruction list -> int -> Opcode.t option
(** Lookup by exact byte offset. *)
