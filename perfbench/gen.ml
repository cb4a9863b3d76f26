(* Seeded inputs for the workloads, each with its ground truth.

   Everything is derived from the --seed argument through Solc.Corpus
   and Solc.Compile; the program under test only ever receives the
   compiled runtime bytecode (as hex text where the workload's front end
   reads text). *)

(* ---- cold_batch ---------------------------------------------------- *)

(* Contracts of 1-12 functions plus 0-5 state variables, across every
   Solidity version, in blocks of [block]: the k-th contract of a block
   has k + 1 functions and k mod 6 state variables. Every block deals
   out the same deck: parameter lists (drawn by Corpus.random_type),
   visibilities, return shapes and storage kinds, drawn once from a
   fixed generator. The seed shuffles the deck within each block,
   picks each block's compiler versions and names the functions, so two
   seeds, and two blocks, differ in which contract holds which functions
   under which compiler, and in every selector, but hardly in how much
   work they hold. The deck leaves out the ABIv2-only types, which not
   every version it lands on would accept. *)
type cold = {
  codes : string array;
  truth : Abi.Funsig.t list array;
  storage : Solc.Lang.svar list array;
}

let block = 12

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let cold ~seed ~blocks =
  let nfns k = 1 + k and nslots k = k mod 6 and nparams k j = 1 + ((k + j) mod 5) in
  let sum f = List.fold_left ( + ) 0 (List.init block f) in
  let fixed = Random.State.make [| 102 |] in
  let type_deck =
    Array.init
      (sum (fun k -> List.fold_left ( + ) 0 (List.init (nfns k) (nparams k))))
      (fun _ -> Solc.Corpus.random_type fixed)
  in
  let fn_deck =
    Array.init (sum nfns) (fun _ ->
        let visibility = if Random.State.bool fixed then Abi.Funsig.Public else Abi.Funsig.External in
        (visibility, Random.State.int fixed 100 < 35))
  in
  let kind_deck = Array.init (sum nslots) (fun _ -> (Solc.Corpus.random_svar fixed 0).Solc.Lang.kind) in
  let rng = Random.State.make [| seed; 102 |] in
  (* The k-th contract of every block is compiled by a version from the
     (k mod 3)-th third of the release list, oldest to newest; each
     third's versions take turns in an order the seed picks. *)
  let releases = Array.of_list Solc.Version.solidity_versions in
  let third = Array.length releases / 3 in
  let turns = Array.init 3 (fun g -> shuffle rng (Array.sub releases (g * third) third)) in
  let version b k =
    let g = k mod 3 in
    turns.(g).(((b * block / 3) + (k / 3)) mod third)
  in
  let deal deck =
    let next = ref 0 in
    fun () ->
      incr next;
      deck.(!next - 1)
  in
  let contracts =
    Array.concat
      (List.init blocks (fun b ->
           let ty = deal (shuffle rng type_deck) and fn = deal (shuffle rng fn_deck) in
           let kind = deal (shuffle rng kind_deck) in
           Array.init block (fun k ->
               let i = (b * block) + k in
               let fns =
                 List.init (nfns k) (fun j ->
                     let params = List.init (nparams k j) (fun _ -> ty ()) in
                     let visibility, returns_word = fn () in
                     let name = Printf.sprintf "c%d_%d" ((16 * i) + j) (Random.State.int rng 1_000_000) in
                     Solc.Lang.fn_of_sig ~returns_word (Abi.Funsig.make ~visibility name params))
               in
               let storage = List.init (nslots k) (fun slot -> { Solc.Lang.slot; kind = kind () }) in
               let contract = { Solc.Compile.fns; version = version b k; storage } in
               ( Solc.Compile.compile contract,
                 List.map (fun (f : Solc.Lang.fn_spec) -> f.Solc.Lang.fsig) fns,
                 storage ))))
  in
  {
    codes = Array.map (fun (c, _, _) -> c) contracts;
    truth = Array.map (fun (_, t, _) -> t) contracts;
    storage = Array.map (fun (_, _, s) -> s) contracts;
  }

(* ---- wide_dispatch ------------------------------------------------- *)

(* EIP-170: the largest runtime bytecode mainnet accepts. *)
let eip170_bytes = 24_576

(* Flat dispatchers whose bodies each read one to three basic
   parameters, the shape whose per-entry static pass grows superlinearly
   with width. Widths are log-spaced from [min_width] to [max_width],
   which fills 97-99 % of the EIP-170 limit whatever the seed (the widest
   dispatcher that fits is used instead should a seed's be narrower); an
   odd count keeps the median on one width. *)
type wide = { widths : int array; wcodes : string array; wtruth : Abi.Funsig.t list array }

let min_width = 12
let max_width = 400
let width_steps = 7

let wide ~seed =
  let rng = Random.State.make [| seed; 103 |] in
  let version = Solc.Version.latest_solidity in
  let max_fns = 480 in
  let sigs =
    List.init max_fns (fun i ->
        Abi.Funsig.make
          (Printf.sprintf "w%d_%d" i (Random.State.int rng 1_000_000))
          (List.init (1 + (i mod 3)) (fun _ -> Abi.Valgen.sol_basic rng)))
  in
  let compile n =
    Solc.Compile.compile
      (Solc.Compile.contract_of_sigs ~version (List.filteri (fun i _ -> i < n) sigs))
  in
  (* largest width under the size limit, by bisection on [lo, hi) *)
  let rec widest lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if String.length (compile mid) <= eip170_bytes then widest mid hi
      else widest lo mid
  in
  let top = Stdlib.min max_width (widest min_width (max_fns + 1)) in
  let widths =
    Array.init width_steps (fun k ->
        let f = float_of_int k /. float_of_int (width_steps - 1) in
        int_of_float
          (Float.round
             (float_of_int min_width
             *. ((float_of_int top /. float_of_int min_width) ** f))))
  in
  {
    widths;
    wcodes = Array.map compile widths;
    wtruth = Array.map (fun n -> List.filteri (fun i _ -> i < n) sigs) widths;
  }
