open Evm
module Sexpr = Symex.Sexpr

type entry = { selector : string; entry_pc : int; entry_stack_depth : int }

(* A dispatch decision: after an even number of ISZEROs, the branch
   condition is EQ of a constant of at most 32 bits (the function id)
   and a non-constant expression that mentions the call-data load at
   offset 0 (the selector the contract computed). *)
let dispatch_selector loads cond =
  let core, iszeros = Sexpr.iszero_depth cond in
  match Sexpr.node core with
  | Sexpr.Bin (Sexpr.Beq, a, b) when iszeros mod 2 = 0 -> (
    let id_of e =
      match Sexpr.to_const e with
      | Some v when U256.bits v <= 32 ->
        Some (String.sub (U256.to_bytes_be v) 28 4)
      | _ -> None
    in
    let selector_load id =
      List.exists
        (fun (l : Symex.Trace.load) ->
          l.Symex.Trace.id = id
          && Sexpr.to_const_int l.Symex.Trace.loc = Some 0)
        loads
    in
    let is_selector_expr e =
      Sexpr.to_const e = None && List.exists selector_load (Sexpr.loads_of e)
    in
    match (id_of a, id_of b) with
    | Some id, None when is_selector_expr b -> Some id
    | None, Some id when is_selector_expr a -> Some id
    | _ -> None)
  | _ -> None

(* Primary extraction: symbolic execution of the dispatcher. The
   selector is whatever the contract computes from the first call-data
   word; every branch whose condition compares that expression against
   a 4-byte constant is a dispatch decision, and the equal branch leads
   to the function body. This is robust to junk instructions and
   constant re-encodings, because it looks at the executed comparison,
   not the instruction text (the same philosophy as TASE itself).

   The run stops at the function entries: a dispatch decision's taken
   arm is recorded but not explored, since the body behind it is TASE's
   to walk, once per entry. *)
let extract_symbolic program =
  let budget =
    { Symex.Exec.default_budget with Symex.Exec.max_paths = 256 }
  in
  let trace =
    Symex.Exec.run_prepared ~budget
      ~stop_at:(fun loads cond ->
        Option.is_some (dispatch_selector loads cond))
      program ~entry:0 ~init_stack:[] ()
  in
  let out = ref [] in
  Hashtbl.iter
    (fun pc conds ->
      match Hashtbl.find_opt trace.Symex.Trace.jumpi_targets pc with
      | None -> ()
      | Some target ->
        List.iter
          (fun cond ->
            match dispatch_selector trace.Symex.Trace.loads cond with
            | Some id -> out := (pc, id, target) :: !out
            | None -> ())
          conds)
    trace.Symex.Trace.jumpi_conds;
  (* dispatch order = ascending JUMPI pc *)
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) !out
  |> List.map (fun (_, selector, target) ->
         { selector; entry_pc = target; entry_stack_depth = 1 })

(* Fallback: the static compare-and-jump idioms
     DUP1; PUSH4 id; EQ; PUSH2 t; JUMPI
     PUSH4 id; DUP2; EQ; PUSH2 t; JUMPI
   — cheap and sufficient for unobfuscated compiler output. *)
let extract_static program =
  let instrs = Array.of_list (Symex.Exec.instructions program) in
  let n = Array.length instrs in
  let op i = if i < n then Some instrs.(i).Disasm.op else None in
  let out = ref [] in
  let push4 = function
    | Some (Opcode.PUSH (4, v)) -> Some (String.sub (U256.to_bytes_be v) 28 4)
    | _ -> None
  in
  let push_target = function
    | Some (Opcode.PUSH (_, v)) -> U256.to_int v
    | _ -> None
  in
  for i = 0 to n - 1 do
    match op i with
    | Some (Opcode.DUP 1) -> (
      match (push4 (op (i + 1)), op (i + 2)) with
      | Some sel, Some Opcode.EQ -> (
        match (push_target (op (i + 3)), op (i + 4)) with
        | Some target, Some Opcode.JUMPI -> out := (sel, target) :: !out
        | _ -> ())
      | _ -> ())
    | Some (Opcode.PUSH (4, _)) -> (
      match (push4 (op i), op (i + 1), op (i + 2)) with
      | Some sel, Some (Opcode.DUP 2), Some Opcode.EQ -> (
        match (push_target (op (i + 3)), op (i + 4)) with
        | Some target, Some Opcode.JUMPI -> out := (sel, target) :: !out
        | _ -> ())
      | _ -> ())
    | _ -> ()
  done;
  List.rev !out
  |> List.map (fun (selector, target) ->
         { selector; entry_pc = target; entry_stack_depth = 1 })

let dedup entries =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun e ->
      if Hashtbl.mem seen e.selector then false
      else begin
        Hashtbl.replace seen e.selector ();
        true
      end)
    entries

let extract_prepared program =
  let static = dedup (extract_static program) in
  let symbolic = dedup (extract_symbolic program) in
  (* prefer the richer result: obfuscation defeats the static idioms,
     while plain compiler output yields identical answers from both *)
  if List.length symbolic > List.length static then symbolic else static

let extract bytecode = extract_prepared (Symex.Exec.prepare bytecode)

let uses_shr_dispatch bytecode =
  let instrs = Disasm.disassemble bytecode in
  let rec scan = function
    | { Disasm.op = Opcode.CALLDATALOAD; _ }
      :: { Disasm.op = Opcode.PUSH (_, v); _ }
      :: { Disasm.op = Opcode.SHR; _ }
      :: _
      when U256.to_int v = Some 0xe0 ->
      true
    | _ :: rest -> scan rest
    | [] -> false
  in
  scan instrs
