(* Function-id extraction: the static idioms, the symbolic fallback, and
   their agreement on compiler output. Plus the Ruledoc table staying in
   sync with the rule engine. *)

let contract_with n =
  Solc.Compile.compile
    (Solc.Compile.contract_of_sigs
       (List.init n (fun i ->
            Abi.Funsig.make (Printf.sprintf "fn%d" i) [ Abi.Abity.Uint 8 ])))

let test_count_and_order () =
  let code = contract_with 7 in
  let entries = Sigrec.Ids.extract code in
  Alcotest.(check int) "seven ids" 7 (List.length entries);
  (* entry pcs ascend with dispatch order in our layout *)
  let pcs = List.map (fun e -> e.Sigrec.Ids.entry_pc) entries in
  Alcotest.(check (list int)) "ascending entries" (List.sort compare pcs) pcs

let test_selectors_valid () =
  let sigs =
    [
      Abi.Funsig.make "transfer" [ Abi.Abity.Address; Abi.Abity.Uint 256 ];
      Abi.Funsig.make "mint" [ Abi.Abity.Uint 256 ];
    ]
  in
  let code = Solc.Compile.compile (Solc.Compile.contract_of_sigs sigs) in
  let entries = Sigrec.Ids.extract code in
  List.iter2
    (fun fsig e ->
      Alcotest.(check string) "selector matches"
        (Abi.Funsig.selector_hex fsig)
        (Evm.Hex.encode e.Sigrec.Ids.selector))
    sigs entries

let test_both_dispatch_styles () =
  let sigs = [ Abi.Funsig.make "f" [ Abi.Abity.Bool ] ] in
  List.iter
    (fun version ->
      let code =
        Solc.Compile.compile
          { (Solc.Compile.contract_of_sigs sigs) with Solc.Compile.version }
      in
      Alcotest.(check int)
        (Printf.sprintf "found under %s" version.Solc.Version.name)
        1
        (List.length (Sigrec.Ids.extract code)))
    [ List.hd Solc.Version.solidity_versions; Solc.Version.latest_solidity ]

let test_symbolic_matches_static () =
  (* on plain compiler output the symbolic explorer must find the same
     ids the static idioms find *)
  let code = contract_with 5 in
  let static =
    List.map (fun e -> e.Sigrec.Ids.selector) (Sigrec.Ids.extract code)
  in
  (* obfuscate with junk only: the static idioms break, but the
     selectors must still be found (symbolically) *)
  let fns =
    List.init 5 (fun i ->
        Solc.Lang.fn_of_sig
          (Abi.Funsig.make (Printf.sprintf "fn%d" i) [ Abi.Abity.Uint 8 ]))
  in
  let obf =
    Solc.Obfuscate.compile_obfuscated ~level:1 ~seed:7
      { Solc.Compile.fns; version = Solc.Version.latest_solidity; storage = [] }
  in
  let after =
    List.map (fun e -> e.Sigrec.Ids.selector) (Sigrec.Ids.extract obf)
  in
  List.iter
    (fun sel ->
      Alcotest.(check bool)
        (Printf.sprintf "id %s survives obfuscation" (Evm.Hex.encode sel))
        true (List.mem sel after))
    static

let test_no_functions () =
  Alcotest.(check int) "empty bytecode" 0
    (List.length (Sigrec.Ids.extract ""));
  Alcotest.(check int) "stop only" 0
    (List.length (Sigrec.Ids.extract "\x00"))

let test_ruledoc_complete () =
  Alcotest.(check int) "31 rules documented" 31
    (List.length Sigrec.Ruledoc.all);
  List.iter
    (fun name ->
      match Sigrec.Ruledoc.find name with
      | Some d ->
        Alcotest.(check string) "name matches" name d.Sigrec.Ruledoc.name;
        Alcotest.(check bool) "has description" true
          (String.length d.Sigrec.Ruledoc.concludes > 0)
      | None -> Alcotest.failf "%s undocumented" name)
    Sigrec.Rules.all_rule_names

let test_recover_deterministic () =
  let code = contract_with 3 in
  let show rs = String.concat ";" (List.map Sigrec.Recover.type_list rs) in
  Alcotest.(check string) "same result twice"
    (show (Sigrec.Recover.recover code))
    (show (Sigrec.Recover.recover code))

(* ---- dispatcher run that stops at function entries ------------------ *)

(* The extractor as it was before its dispatcher run stopped at function
   entries: the symbolic run explores every body behind the dispatch
   decisions too. Kept verbatim as the oracle for the stopping run. *)
module Reference = struct
  open Evm
  module Sexpr = Symex.Sexpr

  let entry (selector, entry_pc) =
    { Sigrec.Ids.selector; entry_pc; entry_stack_depth = 1 }

  let extract_symbolic program =
    let budget =
      { Symex.Exec.default_budget with Symex.Exec.max_paths = 256 }
    in
    let trace =
      Symex.Exec.run_prepared ~budget program ~entry:0 ~init_stack:[] ()
    in
    let selector_load_ids =
      List.filter_map
        (fun (l : Symex.Trace.load) ->
          match Sexpr.to_const_int l.Symex.Trace.loc with
          | Some 0 -> Some l.Symex.Trace.id
          | _ -> None)
        trace.Symex.Trace.loads
    in
    let is_selector_expr e =
      List.exists (fun id -> Sexpr.mentions_load e id) selector_load_ids
      && Sexpr.to_const e = None
    in
    let out = ref [] in
    Hashtbl.iter
      (fun pc conds ->
        match Hashtbl.find_opt trace.Symex.Trace.jumpi_targets pc with
        | None -> ()
        | Some target ->
          List.iter
            (fun cond ->
              let core, iszeros = Sexpr.iszero_depth cond in
              match Sexpr.node core with
              | Sexpr.Bin (Sexpr.Beq, a, b) when iszeros mod 2 = 0 -> (
                let id_of e =
                  match Sexpr.to_const e with
                  | Some v when U256.bits v <= 32 ->
                    Some (String.sub (U256.to_bytes_be v) 28 4)
                  | _ -> None
                in
                match (id_of a, id_of b, a, b) with
                | Some id, None, _, e when is_selector_expr e ->
                  out := (pc, id, target) :: !out
                | None, Some id, e, _ when is_selector_expr e ->
                  out := (pc, id, target) :: !out
                | _ -> ())
              | _ -> ())
            conds)
      trace.Symex.Trace.jumpi_conds;
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) !out
    |> List.map (fun (_, selector, target) -> entry (selector, target))

  let extract_static program =
    let instrs = Array.of_list (Symex.Exec.instructions program) in
    let n = Array.length instrs in
    let op i = if i < n then Some instrs.(i).Disasm.op else None in
    let out = ref [] in
    let push4 = function
      | Some (Opcode.PUSH (4, v)) ->
        Some (String.sub (U256.to_bytes_be v) 28 4)
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
    List.rev_map entry !out

  let dedup entries =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (e : Sigrec.Ids.entry) ->
        if Hashtbl.mem seen e.Sigrec.Ids.selector then false
        else begin
          Hashtbl.replace seen e.Sigrec.Ids.selector ();
          true
        end)
      entries

  let extract_prepared program =
    let static = dedup (extract_static program) in
    let symbolic = dedup (extract_symbolic program) in
    if List.length symbolic > List.length static then symbolic else static
end

let show_entries entries =
  String.concat ";"
    (List.map
       (fun (e : Sigrec.Ids.entry) ->
         Printf.sprintf "%s@%d/%d"
           (Evm.Hex.encode e.Sigrec.Ids.selector)
           e.Sigrec.Ids.entry_pc e.Sigrec.Ids.entry_stack_depth)
       entries)

let test_stop_matches_reference () =
  let codes =
    Corpora.committed_corpus_codes ()
    @ Corpora.generated_codes ~seed:71 ~n:6
    @ Corpora.obfuscated_dispatchers ()
    @ [ Corpora.wide_dispatcher 400 ]
  in
  let entries = ref 0 in
  List.iteri
    (fun i code ->
      let program = Symex.Exec.prepare code in
      let got = Sigrec.Ids.extract_prepared program in
      entries := !entries + List.length got;
      Alcotest.(check string)
        (Printf.sprintf "contract %d: same entries as the full run" i)
        (show_entries (Reference.extract_prepared program))
        (show_entries got))
    codes;
  Alcotest.(check bool) "the corpus has entries" true (!entries > 400)

let suite =
  [
    Alcotest.test_case "count and order" `Quick test_count_and_order;
    Alcotest.test_case "selectors valid" `Quick test_selectors_valid;
    Alcotest.test_case "both dispatch styles" `Quick test_both_dispatch_styles;
    Alcotest.test_case "symbolic survives obfuscation" `Quick test_symbolic_matches_static;
    Alcotest.test_case "no functions" `Quick test_no_functions;
    Alcotest.test_case "ruledoc complete" `Quick test_ruledoc_complete;
    Alcotest.test_case "recovery deterministic" `Quick test_recover_deterministic;
    Alcotest.test_case "dispatcher stop matches full run" `Quick
      test_stop_matches_reference;
  ]
