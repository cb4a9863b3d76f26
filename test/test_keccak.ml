(* Keccak-256 against published vectors and the Ethereum selectors the
   ecosystem knows by heart. *)

open Evm

(* The straightforward Keccak-f[1600] on 32-bit lane halves — loop
   nests with [mod] index arithmetic, lanes assembled byte by byte — kept
   as the reference the table-driven [Keccak.digest] must agree with. *)
module Reference = struct
  let round_constants =
    [|
      0x0000000000000001L; 0x0000000000008082L; 0x800000000000808aL;
      0x8000000080008000L; 0x000000000000808bL; 0x0000000080000001L;
      0x8000000080008081L; 0x8000000000008009L; 0x000000000000008aL;
      0x0000000000000088L; 0x0000000080008009L; 0x000000008000000aL;
      0x000000008000808bL; 0x800000000000008bL; 0x8000000000008089L;
      0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
      0x000000000000800aL; 0x800000008000000aL; 0x8000000080008081L;
      0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L;
    |]

  let rc_lo =
    Array.map (fun c -> Int64.to_int (Int64.logand c 0xffffffffL)) round_constants

  let rc_hi =
    Array.map
      (fun c -> Int64.to_int (Int64.shift_right_logical c 32))
      round_constants

  let rotations =
    [|
      0; 1; 62; 28; 27; 36; 44; 6; 55; 20; 3; 10; 43; 25; 39; 41; 45; 15; 21;
      8; 18; 2; 61; 56; 14;
    |]

  let mask = 0xffffffff

  let keccak_f st =
    let c = Array.make 10 0 and d = Array.make 10 0 in
    let b = Array.make 50 0 in
    for round = 0 to 23 do
      for x = 0 to 4 do
        c.(2 * x) <-
          st.(2 * x)
          lxor st.(2 * (x + 5))
          lxor st.(2 * (x + 10))
          lxor st.(2 * (x + 15))
          lxor st.(2 * (x + 20));
        c.((2 * x) + 1) <-
          st.((2 * x) + 1)
          lxor st.((2 * (x + 5)) + 1)
          lxor st.((2 * (x + 10)) + 1)
          lxor st.((2 * (x + 15)) + 1)
          lxor st.((2 * (x + 20)) + 1)
      done;
      for x = 0 to 4 do
        let i1 = (x + 1) mod 5 and i4 = (x + 4) mod 5 in
        let lo = c.(2 * i1) and hi = c.((2 * i1) + 1) in
        d.(2 * x) <- c.(2 * i4) lxor (((lo lsl 1) lor (hi lsr 31)) land mask);
        d.((2 * x) + 1) <-
          c.((2 * i4) + 1) lxor (((hi lsl 1) lor (lo lsr 31)) land mask)
      done;
      for i = 0 to 24 do
        st.(2 * i) <- st.(2 * i) lxor d.(2 * (i mod 5));
        st.((2 * i) + 1) <- st.((2 * i) + 1) lxor d.((2 * (i mod 5)) + 1)
      done;
      for x = 0 to 4 do
        for y = 0 to 4 do
          let src = x + (5 * y) in
          let dst = y + (5 * (((2 * x) + (3 * y)) mod 5)) in
          let n = rotations.(src) in
          let lo = st.(2 * src) and hi = st.((2 * src) + 1) in
          if n = 0 then begin
            b.(2 * dst) <- lo;
            b.((2 * dst) + 1) <- hi
          end
          else if n < 32 then begin
            b.(2 * dst) <- ((lo lsl n) lor (hi lsr (32 - n))) land mask;
            b.((2 * dst) + 1) <- ((hi lsl n) lor (lo lsr (32 - n))) land mask
          end
          else begin
            let n = n - 32 in
            b.(2 * dst) <- ((hi lsl n) lor (lo lsr (32 - n))) land mask;
            b.((2 * dst) + 1) <- ((lo lsl n) lor (hi lsr (32 - n))) land mask
          end
        done
      done;
      for x = 0 to 4 do
        for y = 0 to 4 do
          let i = x + (5 * y) in
          let i1 = ((x + 1) mod 5) + (5 * y)
          and i2 = ((x + 2) mod 5) + (5 * y) in
          st.(2 * i) <- b.(2 * i) lxor (lnot b.(2 * i1) land b.(2 * i2));
          st.((2 * i) + 1) <-
            b.((2 * i) + 1) lxor (lnot b.((2 * i1) + 1) land b.((2 * i2) + 1))
        done
      done;
      st.(0) <- st.(0) lxor rc_lo.(round);
      st.(1) <- st.(1) lxor rc_hi.(round)
    done

  let rate_bytes = 136

  let digest msg =
    let st = Array.make 50 0 in
    let len = String.length msg in
    let padded_len = (len / rate_bytes * rate_bytes) + rate_bytes in
    let padded = Bytes.make padded_len '\000' in
    Bytes.blit_string msg 0 padded 0 len;
    Bytes.set padded len '\001';
    Bytes.set padded (padded_len - 1)
      (Char.chr (Char.code (Bytes.get padded (padded_len - 1)) lor 0x80));
    let byte i = Char.code (Bytes.get padded i) in
    for block = 0 to (padded_len / rate_bytes) - 1 do
      let off = block * rate_bytes in
      for i = 0 to (rate_bytes / 8) - 1 do
        let base = off + (i * 8) in
        let lo =
          byte base
          lor (byte (base + 1) lsl 8)
          lor (byte (base + 2) lsl 16)
          lor (byte (base + 3) lsl 24)
        in
        let hi =
          byte (base + 4)
          lor (byte (base + 5) lsl 8)
          lor (byte (base + 6) lsl 16)
          lor (byte (base + 7) lsl 24)
        in
        st.(2 * i) <- st.(2 * i) lxor lo;
        st.((2 * i) + 1) <- st.((2 * i) + 1) lxor hi
      done;
      keccak_f st
    done;
    String.init 32 (fun i ->
        let half = st.((2 * (i / 8)) + if i land 7 < 4 then 0 else 1) in
        Char.chr ((half lsr (8 * (i land 3))) land 0xff))
end

let check_hex msg want = Alcotest.(check string) msg want

let test_vectors () =
  (* original Keccak (pre-NIST padding) test vectors *)
  check_hex "empty"
    "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
    (Keccak.digest_hex "");
  check_hex "abc"
    "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
    (Keccak.digest_hex "abc");
  check_hex "The quick brown fox..."
    "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"
    (Keccak.digest_hex "The quick brown fox jumps over the lazy dog")

let test_block_boundaries () =
  (* messages straddling one and two 136-byte rate boundaries, pinned to
     the digests of the straightforward permutation [Reference] keeps *)
  List.iter
    (fun (n, want) ->
      check_hex
        (Printf.sprintf "%d x 'a'" n)
        want
        (Keccak.digest_hex (String.make n 'a')))
    [
      (0, "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
      (135, "34367dc248bbd832f4e3e69dfaac2f92638bd0bbd18f2912ba4ef454919cf446");
      (136, "a6c4d403279fe3e0af03729caada8374b5ca54d8065329a3ebcaeb4b60aa386e");
      (137, "d869f639c7046b4929fc92a4d988a8b22c55fbadb802c0c66ebcd484f1915f39");
      (271, "132f47effd6c8b1b299efa53fe68aece77ec8ae4eb2e294f668eec94f76001e1");
      (272, "cf7fcd4f705ee749930d19ca84561a9bf62516bd90a471545fa2f49fdc7e63c8");
      (273, "5a7b8187d2778e614097fac3097573de1fee4d972304d3360796a857029bb176");
      (1000, "b6a4ac1f51884d71f30fa397a5e155de3099e11fc0edef5d08b646e621e19de9");
    ]

let test_selectors () =
  let sel s = Hex.encode (Keccak.selector s) in
  check_hex "transfer" "a9059cbb" (sel "transfer(address,uint256)");
  check_hex "approve" "095ea7b3" (sel "approve(address,uint256)");
  check_hex "transferFrom" "23b872dd"
    (sel "transferFrom(address,address,uint256)");
  check_hex "balanceOf" "70a08231" (sel "balanceOf(address)");
  check_hex "totalSupply" "18160ddd" (sel "totalSupply()")

let prop_length =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"digest is always 32 bytes" ~count:100
       QCheck.(string_of_size (Gen.int_bound 500))
       (fun s -> String.length (Keccak.digest s) = 32))

let prop_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"digest deterministic" ~count:50
       QCheck.(string_of_size (Gen.int_bound 300))
       (fun s -> Keccak.digest s = Keccak.digest s))

(* Lengths up to three rate blocks, so every padding position and the
   multi-block absorb path are exercised. *)
let prop_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"digest matches the reference permutation"
       ~count:200
       QCheck.(string_of_size (Gen.int_bound 420))
       (fun s -> Keccak.digest s = Reference.digest s))

let prop_injective_ish =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"distinct inputs hash differently" ~count:100
       QCheck.(pair small_string small_string)
       (fun (a, b) ->
         QCheck.assume (a <> b);
         Keccak.digest a <> Keccak.digest b))

let suite =
  [
    Alcotest.test_case "published vectors" `Quick test_vectors;
    Alcotest.test_case "rate boundaries" `Quick test_block_boundaries;
    Alcotest.test_case "well-known selectors" `Quick test_selectors;
    prop_length;
    prop_deterministic;
    prop_matches_reference;
    prop_injective_ish;
  ]
