(* Bytecode corpora shared by the differential tests: each test checks
   a fast path against its reference on the same spread of shapes. *)

(* under [dune runtest] the cwd is the test directory; under [dune exec]
   it is the project root *)
let committed_corpus_codes () =
  let path =
    List.find Sys.file_exists
      [ "../examples/corpus.txt"; "examples/corpus.txt" ]
  in
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter (fun l -> String.starts_with ~prefix:"0x" l)
  |> List.map Evm.Hex.decode

(* multi-function dispatchers (1, 7 and 40 selectors) under every
   obfuscation level *)
let obfuscated_dispatchers () =
  let fns =
    List.map (fun (s : Solc.Corpus.sample) -> s.Solc.Corpus.fn)
      (Solc.Corpus.dataset3 ~seed:61 ~n:40)
  in
  List.concat_map
    (fun level ->
      List.map
        (fun k ->
          Solc.Obfuscate.compile_obfuscated ~level ~seed:(level * 100 + k)
            {
              Solc.Compile.fns = List.filteri (fun i _ -> i < k) fns;
              version = Solc.Version.latest_solidity;
              storage = [];
            })
        [ 1; 7; 40 ])
    [ 1; 2; 3 ]

(* Samples from every generated dataset: paper datasets 1-3, Vyper,
   ABI v2, the fuzzing set, token contracts and stateful layout
   contracts. *)
let generated_codes ~seed ~n =
  let codes_of =
    List.map (fun (s : Solc.Corpus.sample) -> s.Solc.Corpus.code)
  in
  codes_of (Solc.Corpus.dataset1 ~seed ~n)
  @ codes_of (Solc.Corpus.dataset2 ~seed:(seed + 1) ~n)
  @ codes_of (Solc.Corpus.dataset3 ~seed:(seed + 2) ~n)
  @ codes_of (Solc.Corpus.vyper_set ~seed:(seed + 3) ~n)
  @ codes_of (Solc.Corpus.abiv2_set ~seed:(seed + 4) ~n)
  @ codes_of (Solc.Corpus.fuzz_set ~seed:(seed + 5) ~n)
  @ List.map
      (fun (s : Solc.Corpus.token_sample) -> s.Solc.Corpus.tcode)
      (Solc.Corpus.token_set ~seed:(seed + 6) ~n)
  @ List.map
      (fun (s : Solc.Corpus.layout_sample) -> s.Solc.Corpus.lcode)
      (Solc.Corpus.layout_set ~seed:(seed + 7) ~n)

(* One flat dispatcher of [n] selectors, as [make_corpus --wide n]
   builds it: each body reads one to three basic parameters. *)
let wide_dispatcher ?(seed = 20230704) n =
  let rng = Random.State.make [| seed |] in
  Solc.Compile.compile
    (Solc.Compile.contract_of_sigs
       (List.init n (fun i ->
            Abi.Funsig.make
              (Printf.sprintf "w%d_%d" i (Random.State.int rng 1_000_000))
              (List.init (1 + (i mod 3)) (fun _ -> Abi.Valgen.sol_basic rng)))))
