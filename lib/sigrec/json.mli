(** Minimal JSON parsing and printing (no external dependency).

    Parses the line-oriented request protocol of [sigrec serve] and
    carries the escape/print helpers shared by every JSON-emitting
    surface ({!Render}, the CLI, serve responses). Number fidelity is
    [float]: fine for ids and counters, not a general-purpose library. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict single-value parse; trailing non-whitespace is an error.
    [\uXXXX] escapes (including surrogate pairs) decode to UTF-8. *)

val to_string : t -> string
(** Compact one-line rendering; object fields keep their order. A
    finite [Num] prints as text that parses back to the same float; a
    non-finite one prints as [null]. *)

(** {2 Print helpers for hand-rendered JSON} *)

val escape : string -> string
val quote : string -> string
(** [quote s] is [s] escaped and double-quoted. *)

val arr : string list -> string
(** Join already-rendered values into ["[...]"] . *)

val obj : (string * string) list -> string
(** Join (key, already-rendered value) pairs into ["{...}"]. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** Field lookup; [None] on non-objects and missing keys. *)

val to_string_opt : t -> string option
val to_list_opt : t -> t list option
val to_int_opt : t -> int option
(** [Some] only for an integral [Num]. *)
