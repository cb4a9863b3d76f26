(* Opcode encoding, assembler/disassembler roundtrips and CFG recovery
   (including the control-dependence analysis the rules lean on). *)

open Evm

let all_simple_opcodes =
  Opcode.
    [
      STOP; ADD; MUL; SUB; DIV; SDIV; MOD; SMOD; ADDMOD; MULMOD; EXP;
      SIGNEXTEND; LT; GT; SLT; SGT; EQ; ISZERO; AND; OR; XOR; NOT; BYTE;
      SHL; SHR; SAR; SHA3; ADDRESS; BALANCE; ORIGIN; CALLER; CALLVALUE;
      CALLDATALOAD; CALLDATASIZE; CALLDATACOPY; CODESIZE; CODECOPY;
      GASPRICE; EXTCODESIZE; EXTCODECOPY; RETURNDATASIZE; RETURNDATACOPY;
      EXTCODEHASH; BLOCKHASH; COINBASE; TIMESTAMP; NUMBER; PREVRANDAO;
      GASLIMIT; CHAINID; SELFBALANCE; BASEFEE; POP; MLOAD; MSTORE;
      MSTORE8; SLOAD; SSTORE; JUMP; JUMPI; PC; MSIZE; GAS; JUMPDEST;
      CREATE; CALL; CALLCODE; RETURN; DELEGATECALL; CREATE2; STATICCALL;
      REVERT; INVALID; SELFDESTRUCT;
    ]

let test_opcode_roundtrip () =
  let ops =
    all_simple_opcodes
    @ List.init 16 (fun i -> Opcode.DUP (i + 1))
    @ List.init 16 (fun i -> Opcode.SWAP (i + 1))
    @ List.init 5 (fun i -> Opcode.LOG i)
    @ List.init 32 (fun i -> Opcode.PUSH (i + 1, U256.of_int i))
  in
  let code = Asm.assemble_ops ops in
  let back = List.map (fun i -> i.Disasm.op) (Disasm.disassemble code) in
  Alcotest.(check int) "same length" (List.length ops) (List.length back);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same op" (Opcode.mnemonic a) (Opcode.mnemonic b))
    ops back

let test_push_immediates () =
  let v = U256.of_hex "0xdeadbeefcafe" in
  let code = Asm.assemble_ops [ Opcode.push_u256 v ] in
  Alcotest.(check int) "PUSH6 size" 7 (String.length code);
  match Disasm.disassemble code with
  | [ { Disasm.op = Opcode.PUSH (6, w); _ } ] ->
    Alcotest.(check bool) "value" true (U256.equal v w)
  | _ -> Alcotest.fail "expected one PUSH6"

let test_truncated_push () =
  (* a PUSH whose immediate runs past the end of code reads zeros *)
  let code = "\x62\xaa" (* PUSH3 with only one immediate byte *) in
  match Disasm.disassemble code with
  | [ { Disasm.op = Opcode.PUSH (3, v); _ } ] ->
    Alcotest.(check bool) "zero padded" true
      (U256.equal v (U256.of_hex "0xaa0000"))
  | _ -> Alcotest.fail "expected truncated PUSH3"

let test_labels () =
  let open Asm in
  let code =
    assemble
      [
        Op (Opcode.push 1);
        Push_label "target";
        Op Opcode.JUMPI;
        Op Opcode.STOP;
        Label "target";
        Op (Opcode.push 42);
        Op Opcode.STOP;
      ]
  in
  let res = Interp.execute ~code ~calldata:"" () in
  Alcotest.(check bool) "jumps and stops" true
    (res.Interp.outcome = Interp.Stopped)

let test_duplicate_label () =
  Alcotest.check_raises "duplicate label"
    (Invalid_argument "Asm.assemble: duplicate label x") (fun () ->
      ignore (Asm.assemble [ Asm.Label "x"; Asm.Label "x" ]))

let test_undefined_label () =
  Alcotest.check_raises "undefined label"
    (Invalid_argument "Asm.assemble: undefined label nope") (fun () ->
      ignore (Asm.assemble [ Asm.Push_label "nope" ]))

(* -- CFG ----------------------------------------------------------------- *)

(* if (x) { A } else { B }; C — the classic diamond *)
let diamond =
  Asm.
    [
      Op (Opcode.push 1);
      Push_label "then";
      Op Opcode.JUMPI;
      (* else *)
      Op (Opcode.push 0);
      Op Opcode.POP;
      Push_label "join";
      Op Opcode.JUMP;
      Label "then";
      Op (Opcode.push 1);
      Op Opcode.POP;
      Label "join";
      Op Opcode.STOP;
    ]

let test_cfg_blocks () =
  let cfg = Cfg.build (Asm.assemble diamond) in
  Alcotest.(check int) "four blocks" 4 (Cfg.block_count cfg);
  match Cfg.entry cfg with
  | Some b -> (
    match b.Cfg.succ with
    | [ Cfg.Branch _ ] -> ()
    | _ -> Alcotest.fail "entry should branch")
  | None -> Alcotest.fail "no entry"

let test_cfg_diamond_control_deps () =
  let code = Asm.assemble diamond in
  let cfg = Cfg.build code in
  let deps = Cfg.control_deps cfg in
  (* then and else are control dependent on the entry branch; the join
     is not *)
  let entry = (Option.get (Cfg.entry cfg)).Cfg.start in
  let blocks = Cfg.blocks cfg in
  let join = List.nth blocks (List.length blocks - 1) in
  Alcotest.(check bool) "join not dependent" true
    (match Hashtbl.find_opt deps join.Cfg.start with
    | None -> true
    | Some parents -> not (List.mem entry parents));
  let then_or_else = List.nth blocks 1 in
  Alcotest.(check bool) "arm depends on branch" true
    (match Hashtbl.find_opt deps then_or_else.Cfg.start with
    | Some parents -> List.mem entry parents
    | None -> false)

(* while-style loop: the body must be control dependent on the guard *)
let loop_prog =
  Asm.
    [
      Op (Opcode.push 0); Op (Opcode.push 0); Op Opcode.MSTORE;
      Label "head";
      Op (Opcode.push 3);
      Op (Opcode.push 0); Op Opcode.MLOAD;
      Op Opcode.LT;
      Op Opcode.ISZERO;
      Push_label "exit";
      Op Opcode.JUMPI;
      (* body *)
      Op (Opcode.push 0); Op Opcode.MLOAD;
      Op (Opcode.push 1); Op Opcode.ADD;
      Op (Opcode.push 0); Op Opcode.MSTORE;
      Push_label "head";
      Op Opcode.JUMP;
      Label "exit";
      Op Opcode.STOP;
    ]

let test_cfg_loop_control_deps () =
  let code = Asm.assemble loop_prog in
  let cfg = Cfg.build code in
  let deps = Cfg.control_deps cfg in
  (* find the guard block (ends in JUMPI) and the body block after it *)
  let guard =
    List.find
      (fun b -> b.Cfg.terminator = Some Opcode.JUMPI)
      (Cfg.blocks cfg)
  in
  let body =
    List.find
      (fun (b : Cfg.block) ->
        match guard.Cfg.succ with
        | [ Cfg.Branch { fallthrough; _ } ] -> b.Cfg.start = fallthrough
        | _ -> false)
      (Cfg.blocks cfg)
  in
  Alcotest.(check bool) "body depends on guard" true
    (match Hashtbl.find_opt deps body.Cfg.start with
    | Some parents -> List.mem guard.Cfg.start parents
    | None -> false);
  (* the loop runs in the interpreter and terminates *)
  let res = Interp.execute ~code ~calldata:"" () in
  Alcotest.(check bool) "terminates" true (res.Interp.outcome = Interp.Stopped)

let test_transitive_deps () =
  (* nested guards: inner guard depends on outer; transitive closure of
     a block under both lists both *)
  let prog =
    Asm.
      [
        Op Opcode.CALLVALUE;
        Push_label "l1";
        Op Opcode.JUMPI;
        Op Opcode.STOP;
        Label "l1";
        Op Opcode.CALLER;
        Push_label "l2";
        Op Opcode.JUMPI;
        Op Opcode.STOP;
        Label "l2";
        Op (Opcode.push 1);
        Op Opcode.POP;
        Op Opcode.STOP;
      ]
  in
  let code = Asm.assemble prog in
  let cfg = Cfg.build code in
  let deps = Cfg.control_deps cfg in
  let l2 =
    List.find
      (fun (b : Cfg.block) ->
        List.exists
          (fun i -> i.Disasm.op = Opcode.PUSH (1, U256.one))
          b.Cfg.instrs)
      (Cfg.blocks cfg)
  in
  let chain = Cfg.transitive_deps deps l2.Cfg.start in
  Alcotest.(check int) "two guards in chain" 2 (List.length chain)

(* nested loops: inner body depends on both guards, outer body only on
   the outer guard *)
let nested_loop_prog =
  Asm.
    [
      Op (Opcode.push 0); Op (Opcode.push 0); Op Opcode.MSTORE;
      Label "outer";
      Op (Opcode.push 2);
      Op (Opcode.push 0); Op Opcode.MLOAD;
      Op Opcode.LT;
      Op Opcode.ISZERO;
      Push_label "done";
      Op Opcode.JUMPI;
      (* outer body: reset the inner counter *)
      Op (Opcode.push 0); Op (Opcode.push 32); Op Opcode.MSTORE;
      Label "inner";
      Op (Opcode.push 2);
      Op (Opcode.push 32); Op Opcode.MLOAD;
      Op Opcode.LT;
      Op Opcode.ISZERO;
      Push_label "inner_done";
      Op Opcode.JUMPI;
      (* inner body *)
      Op (Opcode.push 32); Op Opcode.MLOAD;
      Op (Opcode.push 1); Op Opcode.ADD;
      Op (Opcode.push 32); Op Opcode.MSTORE;
      Push_label "inner";
      Op Opcode.JUMP;
      Label "inner_done";
      Op (Opcode.push 0); Op Opcode.MLOAD;
      Op (Opcode.push 1); Op Opcode.ADD;
      Op (Opcode.push 0); Op Opcode.MSTORE;
      Push_label "outer";
      Op Opcode.JUMP;
      Label "done";
      Op Opcode.STOP;
    ]

let test_nested_loop_control_deps () =
  let code = Asm.assemble nested_loop_prog in
  let cfg = Cfg.build code in
  let deps = Cfg.control_deps cfg in
  let guards =
    List.filter
      (fun (b : Cfg.block) -> b.Cfg.terminator = Some Opcode.JUMPI)
      (Cfg.blocks cfg)
  in
  Alcotest.(check int) "two guards" 2 (List.length guards);
  let outer_guard = List.nth guards 0 and inner_guard = List.nth guards 1 in
  let fallthrough_of (g : Cfg.block) =
    match g.Cfg.succ with
    | [ Cfg.Branch { fallthrough; _ } ] -> fallthrough
    | _ -> Alcotest.fail "guard should branch"
  in
  let inner_body = fallthrough_of inner_guard in
  let outer_body = fallthrough_of outer_guard in
  let chain = Cfg.transitive_deps deps inner_body in
  Alcotest.(check bool) "inner body under inner guard" true
    (List.mem inner_guard.Cfg.start chain);
  Alcotest.(check bool) "inner body under outer guard" true
    (List.mem outer_guard.Cfg.start chain);
  let outer_chain = Cfg.transitive_deps deps outer_body in
  Alcotest.(check bool) "outer body not under inner guard" true
    (not (List.mem inner_guard.Cfg.start outer_chain));
  (* sanity: both loops terminate under the reference interpreter *)
  let res = Interp.execute ~code ~calldata:"" () in
  Alcotest.(check bool) "terminates" true (res.Interp.outcome = Interp.Stopped)

(* the target is pushed in one block and consumed by a JUMP in another:
   the single-block peephole cannot resolve it *)
let cross_block_jump_prog =
  Asm.
    [
      Push_label "target";
      Op Opcode.CALLVALUE;
      Push_label "mid";
      Op Opcode.JUMPI;
      Label "mid";
      Op Opcode.JUMP;
      Label "target";
      Op Opcode.STOP;
    ]

let test_unresolved_and_resolve () =
  let code = Asm.assemble cross_block_jump_prog in
  let cfg = Cfg.build code in
  Alcotest.(check int) "one unresolved edge" 1 (Cfg.unresolved_count cfg);
  let jump_block =
    List.find
      (fun (b : Cfg.block) -> b.Cfg.terminator = Some Opcode.JUMP)
      (Cfg.blocks cfg)
  in
  Alcotest.(check bool) "edge is Unresolved" true
    (List.mem Cfg.Unresolved jump_block.Cfg.succ);
  let target =
    List.find
      (fun (b : Cfg.block) -> b.Cfg.terminator = Some Opcode.STOP)
      (Cfg.blocks cfg)
  in
  let resolved =
    Cfg.resolve cfg (fun start ->
        if start = jump_block.Cfg.start then [ target.Cfg.start ] else [])
  in
  Alcotest.(check int) "no unresolved edges left" 0
    (Cfg.unresolved_count resolved);
  (match Cfg.block_at resolved jump_block.Cfg.start with
  | Some b ->
    Alcotest.(check bool) "edge became Jump_to" true
      (List.mem (Cfg.Jump_to target.Cfg.start) b.Cfg.succ)
  | None -> Alcotest.fail "jump block lost by resolve");
  (* an empty answer keeps the edge Unresolved *)
  let kept = Cfg.resolve cfg (fun _ -> []) in
  Alcotest.(check int) "empty answer keeps edge" 1 (Cfg.unresolved_count kept)

let test_block_of_pc () =
  let code = Asm.assemble diamond in
  let cfg = Cfg.build code in
  List.iter
    (fun (b : Cfg.block) ->
      List.iter
        (fun i ->
          match Cfg.block_of_pc cfg i.Disasm.offset with
          | Some found ->
            Alcotest.(check int) "pc maps to its block" b.Cfg.start
              found.Cfg.start
          | None -> Alcotest.fail "pc not mapped")
        b.Cfg.instrs)
    (Cfg.blocks cfg)

(* ---- the block builder against its list-based predecessor ---------- *)

(* The CFG builder as it was before it indexed the instruction array:
   leader set, chunk lists and per-edge hash lookups. Kept as the oracle
   for the array-based one; returns the blocks in start order. *)
module Reference = struct
  let leaders instrs =
    let set = Hashtbl.create 64 in
    Hashtbl.replace set 0 ();
    let rec go = function
      | [] -> ()
      | { Disasm.offset; op } :: rest ->
        if op = Opcode.JUMPDEST then Hashtbl.replace set offset ();
        if Opcode.is_terminator op then (
          match rest with
          | { Disasm.offset = next; _ } :: _ -> Hashtbl.replace set next ()
          | [] -> ());
        go rest
    in
    go instrs;
    set

  let static_target block_instrs =
    let rec last_two = function
      | [ { Disasm.op = Opcode.PUSH (_, v); _ }; _ ] -> U256.to_int v
      | _ :: rest -> last_two rest
      | [] -> None
    in
    last_two block_instrs

  let of_instructions instrs =
    let leader_set = leaders instrs in
    let jumpdests = Hashtbl.create 64 and offsets = Hashtbl.create 256 in
    List.iter
      (fun { Disasm.offset; op } ->
        Hashtbl.replace offsets offset ();
        if op = Opcode.JUMPDEST then Hashtbl.replace jumpdests offset ())
      instrs;
    let chunks = ref [] and current = ref [] in
    let flush () =
      match !current with
      | [] -> ()
      | is ->
        chunks := List.rev is :: !chunks;
        current := []
    in
    List.iter
      (fun ({ Disasm.offset; op } as i) ->
        if Hashtbl.mem leader_set offset && !current <> [] then flush ();
        current := i :: !current;
        if Opcode.is_terminator op then flush ())
      instrs;
    flush ();
    let next_offset chunk =
      match List.rev chunk with
      | { Disasm.offset; op } :: _ -> offset + Opcode.size op
      | [] -> 0
    in
    let valid_dest offset = Hashtbl.mem jumpdests offset in
    List.map
      (fun chunk ->
        let start = (List.hd chunk).Disasm.offset in
        let last = List.nth chunk (List.length chunk - 1) in
        let after = next_offset chunk in
        let has_next = Hashtbl.mem offsets after in
        let succ =
          match last.Disasm.op with
          | Opcode.JUMP -> (
            match static_target chunk with
            | Some target when valid_dest target -> [ Cfg.Jump_to target ]
            | Some _ -> [ Cfg.Exit ]
            | None -> [ Cfg.Unresolved ])
          | Opcode.JUMPI -> (
            let fallthrough =
              if has_next then [ Cfg.Fallthrough after ] else []
            in
            match static_target chunk with
            | Some target when valid_dest target ->
              if has_next then
                [ Cfg.Branch { taken = target; fallthrough = after } ]
              else [ Cfg.Jump_to target ]
            | Some _ -> fallthrough
            | None -> Cfg.Unresolved :: fallthrough)
          | Opcode.STOP | Opcode.RETURN | Opcode.REVERT | Opcode.INVALID
          | Opcode.SELFDESTRUCT ->
            [ Cfg.Exit ]
          | _ -> if has_next then [ Cfg.Fallthrough after ] else [ Cfg.Exit ]
        in
        let terminator =
          if Opcode.is_terminator last.Disasm.op then Some last.Disasm.op
          else None
        in
        { Cfg.start; instrs = chunk; terminator; succ })
      (List.rev !chunks)
end

(* Compiled corpora of every shape, plus byte soup: random bytes hit
   unknown opcodes, JUMPDESTs in odd places, truncated PUSHes and code
   that ends without a terminator. *)
let test_blocks_match_reference () =
  let rng = Random.State.make [| 17 |] in
  let soup =
    List.init 300 (fun _ ->
        String.init (Random.State.int rng 200) (fun _ ->
            Char.chr (Random.State.int rng 256)))
  in
  let codes =
    [ ""; "\x5b"; "\x61\x01"; "\x60\x04\x56\x00\x5b"; "\x60\x05\x57" ]
    @ soup
    @ Corpora.committed_corpus_codes ()
    @ Corpora.generated_codes ~seed:41 ~n:4
    @ Corpora.obfuscated_dispatchers ()
    @ [ Corpora.wide_dispatcher 400 ]
  in
  List.iteri
    (fun i code ->
      let instrs = Disasm.disassemble code in
      let expected = Reference.of_instructions instrs in
      let cfg = Cfg.of_instructions instrs in
      if Cfg.blocks cfg <> expected then
        Alcotest.failf "code %d (%s): blocks differ" i (Hex.encode code);
      List.iter
        (fun (b : Cfg.block) ->
          if Cfg.block_at cfg b.Cfg.start <> Some b then
            Alcotest.failf "code %d: block_at %d differs" i b.Cfg.start)
        expected)
    codes

let suite =
  [
    Alcotest.test_case "opcode roundtrip" `Quick test_opcode_roundtrip;
    Alcotest.test_case "push immediates" `Quick test_push_immediates;
    Alcotest.test_case "truncated push" `Quick test_truncated_push;
    Alcotest.test_case "labels assemble and jump" `Quick test_labels;
    Alcotest.test_case "duplicate label rejected" `Quick test_duplicate_label;
    Alcotest.test_case "undefined label rejected" `Quick test_undefined_label;
    Alcotest.test_case "cfg blocks" `Quick test_cfg_blocks;
    Alcotest.test_case "diamond control deps" `Quick test_cfg_diamond_control_deps;
    Alcotest.test_case "loop control deps" `Quick test_cfg_loop_control_deps;
    Alcotest.test_case "transitive deps" `Quick test_transitive_deps;
    Alcotest.test_case "nested loop control deps" `Quick
      test_nested_loop_control_deps;
    Alcotest.test_case "unresolved edges and resolve" `Quick
      test_unresolved_and_resolve;
    Alcotest.test_case "block_of_pc" `Quick test_block_of_pc;
    Alcotest.test_case "blocks match the list-based builder" `Quick
      test_blocks_match_reference;
  ]
