(* Regenerate examples/corpus.txt: a small, committed batch-input file
   used by the README quick-start, the CI trace-artifact step, and
   anyone who wants a realistic `sigrec batch` input without running
   the property harness.

   Run with: dune exec examples/make_corpus.exe > examples/corpus.txt

   With --stream N the tool instead emits an N-contract chain-scale
   corpus (compiled on the fly, ~90% byte-identical duplicates like a
   mainnet dump — tune with --dup RATE, --seed S) straight to stdout,
   line by line, for piping into `sigrec batch --stream -`:

     dune exec examples/make_corpus.exe -- --stream 100000 \
       | dune exec bin/sigrec_cli.exe -- batch --stream - *)

let stream_corpus n dup_rate seed =
  Printf.printf "# sigrec streamed corpus: %d contracts, dup rate %.2f, seed %d\n"
    n dup_rate seed;
  Solc.Corpus.stream ~seed ~n ~dup_rate (fun code ->
      print_string "0x";
      print_string (Evm.Hex.encode code);
      print_char '\n')

(* With --tokens N the tool emits a labeled token mini-corpus for the
   classification harness: still one bytecode per line (valid `sigrec
   classify --batch` input — labels ride in comment lines the parser
   skips), each contract preceded by its ground truth:

     dune exec examples/make_corpus.exe -- --tokens 25 > tokens.txt
     dune exec bin/sigrec_cli.exe -- classify --batch tokens.txt *)

let token_corpus n seed =
  Printf.printf "# sigrec token corpus: %d contracts, seed %d\n" n seed;
  print_endline
    "# each \"expect\" comment gives the ground-truth label of the next line";
  List.iter
    (fun (s : Solc.Corpus.token_sample) ->
      let expect =
        if s.Solc.Corpus.tlabel = "none" then "unknown"
        else if s.Solc.Corpus.texact then s.Solc.Corpus.tlabel
        else s.Solc.Corpus.tlabel ^ " (partial)"
      in
      Printf.printf "# expect: %s" expect;
      (match s.Solc.Corpus.tmissing with
      | [] -> ()
      | missing ->
        Printf.printf " missing=[%s]" (String.concat "; " missing));
      print_char '\n';
      print_string "0x";
      print_string (Evm.Hex.encode s.Solc.Corpus.tcode);
      print_char '\n')
    (Solc.Corpus.token_set ~seed ~n)

(* With --wide N the tool emits one flat dispatcher of N selectors, each
   body reading one to three basic parameters — the shape that stresses
   the per-entry static pass. Recovering it must return N functions:

     dune exec examples/make_corpus.exe -- --wide 400 > wide.txt
     dune exec bin/sigrec_cli.exe -- recover wide.txt *)

let wide_dispatcher n seed =
  let rng = Random.State.make [| seed |] in
  let sigs =
    List.init n (fun i ->
        Abi.Funsig.make
          (Printf.sprintf "w%d_%d" i (Random.State.int rng 1_000_000))
          (List.init (1 + (i mod 3)) (fun _ -> Abi.Valgen.sol_basic rng)))
  in
  match Solc.Compile.compile (Solc.Compile.contract_of_sigs sigs) with
  | code -> print_endline ("0x" ^ Evm.Hex.encode code)
  | exception Invalid_argument msg ->
    (* about 1,000 selectors fill the assembler's 64 KiB address space *)
    Printf.eprintf "make_corpus: %d selectors do not assemble: %s\n" n msg;
    exit 2

let usage () =
  prerr_endline
    "usage: make_corpus [--stream N [--dup RATE] [--seed S]]\n\
    \       make_corpus --tokens N [--seed S]\n\
    \       make_corpus --wide N [--seed S]";
  exit 2

type mode = Stream | Tokens | Wide

let parse_stream_args args =
  let n = ref 0 and dup = ref 0.9 and seed = ref 20230704 in
  let mode = ref Stream in
  let rec go = function
    | [] -> ()
    | "--stream" :: v :: rest -> (
      match int_of_string_opt v with
      | Some x when x > 0 ->
        n := x;
        go rest
      | _ -> usage ())
    | "--tokens" :: v :: rest -> (
      match int_of_string_opt v with
      | Some x when x > 0 ->
        n := x;
        mode := Tokens;
        go rest
      | _ -> usage ())
    | "--wide" :: v :: rest -> (
      match int_of_string_opt v with
      | Some x when x > 0 ->
        n := x;
        mode := Wide;
        go rest
      | _ -> usage ())
    | "--dup" :: v :: rest -> (
      match float_of_string_opt v with
      | Some x when x >= 0.0 && x < 1.0 ->
        dup := x;
        go rest
      | _ -> usage ())
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some x ->
        seed := x;
        go rest
      | _ -> usage ())
    | _ -> usage ()
  in
  go args;
  if !n = 0 then usage ();
  (!n, !dup, !seed, !mode)

let committed_corpus () =
  let open Abi.Abity in
  let token =
    (* ERC-20 shape: total supply word, balances mapping, a packed
       (decimals, owner) slot *)
    Solc.Compile.compile
      (Solc.Compile.contract_of_sigs
         ~storage:
           [
             Solc.Lang.svalue 0;
             Solc.Lang.smapping 1;
             Solc.Lang.svalue ~widths:[ 8; 160 ] 2;
           ]
         [
           Abi.Funsig.make "transfer" [ Address; Uint 256 ];
           Abi.Funsig.make "approve" [ Address; Uint 256 ];
           Abi.Funsig.make "transferFrom" [ Address; Address; Uint 256 ];
           Abi.Funsig.make "balanceOf" [ Address ];
         ])
  in
  let exchange =
    Solc.Compile.compile
      (Solc.Compile.contract_of_sigs
         ~storage:
           [
             Solc.Lang.smapping 0;
             Solc.Lang.sarray 1;
             Solc.Lang.svalue ~widths:[ 96; 160 ] 2;
           ]
         [
           Abi.Funsig.make ~visibility:Abi.Funsig.External "swap"
             [ Address; Uint 128; Bool ];
           Abi.Funsig.make ~visibility:Abi.Funsig.External "batchSettle"
             [ Darray Address; Darray (Uint 256) ];
           Abi.Funsig.make "setLabel" [ String_t; Bytes_n 32 ];
         ])
  in
  let registry =
    Solc.Compile.compile
      (Solc.Compile.contract_of_sigs
         ~storage:[ Solc.Lang.sarray 0; Solc.Lang.svalue 1 ]
         [
           Abi.Funsig.make "register" [ Bytes; Int 64 ];
           Abi.Funsig.make ~visibility:Abi.Funsig.External "setMatrix"
             [ Sarray (Uint 256, 3) ];
         ])
  in
  print_endline "# sigrec example corpus: one hex runtime bytecode per line";
  print_endline "# regenerate with: dune exec examples/make_corpus.exe";
  List.iter
    (fun code -> print_endline ("0x" ^ Evm.Hex.encode code))
    [
      token;
      exchange;
      registry;
      (* a byte-identical duplicate of the first contract: exercises the
         batch engine's dedup attribution in traces and stats *)
      token;
    ]

let () =
  match Array.to_list Sys.argv with
  | _ :: [] -> committed_corpus ()
  | _ :: args ->
    let n, dup_rate, seed, mode = parse_stream_args args in
    (match mode with
    | Stream -> stream_corpus n dup_rate seed
    | Tokens -> token_corpus n seed
    | Wide -> wide_dispatcher n seed)
  | [] -> committed_corpus ()
