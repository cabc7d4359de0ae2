(* Tests for qkd_util: bitstrings, RNG, LFSR, RLE, stats, CRC, hex. *)

module Bs = Qkd_util.Bitstring
module Rng = Qkd_util.Rng
module Lfsr = Qkd_util.Lfsr
module Rle = Qkd_util.Rle
module Stats = Qkd_util.Stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let qcheck = QCheck_alcotest.to_alcotest

(* -- Bitstring -- *)

let test_create_zeroed () =
  let b = Bs.create 67 in
  check_int "length" 67 (Bs.length b);
  check_int "popcount" 0 (Bs.popcount b)

let test_set_get () =
  let b = Bs.create 10 in
  Bs.set b 3 true;
  Bs.set b 9 true;
  check "bit 3" true (Bs.get b 3);
  check "bit 4" false (Bs.get b 4);
  check "bit 9" true (Bs.get b 9);
  Bs.set b 3 false;
  check "cleared" false (Bs.get b 3)

let test_bounds () =
  let b = Bs.create 8 in
  Alcotest.check_raises "get -1" (Invalid_argument "Bitstring: index out of range")
    (fun () -> ignore (Bs.get b (-1)));
  Alcotest.check_raises "get 8" (Invalid_argument "Bitstring: index out of range")
    (fun () -> ignore (Bs.get b 8))

let test_of_to_string () =
  let s = "1011001" in
  check_str "roundtrip" s (Bs.to_string (Bs.of_string s));
  check_int "popcount" 4 (Bs.popcount (Bs.of_string s))

let test_of_string_invalid () =
  Alcotest.check_raises "bad char"
    (Invalid_argument "Bitstring.of_string: expected '0' or '1'") (fun () ->
      ignore (Bs.of_string "10x"))

let test_flip () =
  let b = Bs.of_string "0000" in
  Bs.flip b 2;
  check_str "flip once" "0010" (Bs.to_string b);
  Bs.flip b 2;
  check_str "flip twice" "0000" (Bs.to_string b)

let test_xor () =
  let a = Bs.of_string "1100" and b = Bs.of_string "1010" in
  check_str "xor" "0110" (Bs.to_string (Bs.xor a b));
  check_str "a unchanged" "1100" (Bs.to_string a)

let test_xor_length_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Bitstring.xor_into: length mismatch") (fun () ->
      ignore (Bs.xor (Bs.create 4) (Bs.create 5)))

let test_parity () =
  check "even" false (Bs.parity (Bs.of_string "1100"));
  check "odd" true (Bs.parity (Bs.of_string "1110"));
  check "empty" false (Bs.parity (Bs.create 0))

let test_parity_masked () =
  let bits = Bs.of_string "10110" in
  let mask = Bs.of_string "11010" in
  (* selected bits: positions 0,1,3 -> 1,0,1 -> even *)
  check "masked parity" false (Bs.parity_masked bits mask);
  let mask2 = Bs.of_string "10000" in
  check "single" true (Bs.parity_masked bits mask2)

let test_sub_concat () =
  let b = Bs.of_string "110101" in
  check_str "sub" "010" (Bs.to_string (Bs.sub b 2 3));
  check_str "concat" "110101110" (Bs.to_string (Bs.concat b (Bs.of_string "110")));
  check_str "concat_list" "1101"
    (Bs.to_string (Bs.concat_list [ Bs.of_string "11"; Bs.of_string "01" ]))

let test_sub_bounds () =
  Alcotest.check_raises "sub" (Invalid_argument "Bitstring.sub") (fun () ->
      ignore (Bs.sub (Bs.create 4) 2 3))

let test_hamming () =
  check_int "distance" 2
    (Bs.hamming_distance (Bs.of_string "1100") (Bs.of_string "1010"))

let test_extract () =
  let b = Bs.of_string "10110" in
  check_str "extract" "101" (Bs.to_string (Bs.extract b [| 0; 1; 2 |]));
  check_str "extract scattered" "10" (Bs.to_string (Bs.extract b [| 0; 4 |]))

let test_bytes_roundtrip () =
  let b = Bs.of_string "101100111" in
  let packed = Bs.to_bytes b in
  check "roundtrip" true (Bs.equal b (Bs.of_bytes packed 9))

let test_of_bytes_clears_tail () =
  (* high bits of the last byte must not leak into equality *)
  let raw = Bytes.make 1 '\xFF' in
  let b = Bs.of_bytes raw 3 in
  check_int "popcount" 3 (Bs.popcount b);
  let c = Bs.of_string "111" in
  check "equal" true (Bs.equal b c)

let test_append_bit () =
  let b = Bs.of_string "10" in
  check_str "append" "101" (Bs.to_string (Bs.append_bit b true))

let test_equal_diff_len () =
  check "diff length" false (Bs.equal (Bs.create 3) (Bs.create 4))

let test_foldi_iteri () =
  let b = Bs.of_string "1011" in
  let ones = Bs.foldi (fun acc _ bit -> if bit then acc + 1 else acc) 0 b in
  check_int "foldi" 3 ones;
  let count = ref 0 in
  Bs.iteri (fun _ _ -> incr count) b;
  check_int "iteri visits all" 4 !count

let prop_xor_involution =
  QCheck.Test.make ~name:"bitstring xor involution" ~count:200
    QCheck.(pair (list bool) (list bool))
    (fun (xs, ys) ->
      let n = min (List.length xs) (List.length ys) in
      let take l = List.filteri (fun i _ -> i < n) l in
      let a = Bs.of_bool_list (take xs) and b = Bs.of_bool_list (take ys) in
      Bs.equal a (Bs.xor (Bs.xor a b) b))

let prop_popcount_matches_list =
  QCheck.Test.make ~name:"popcount = list count" ~count:200
    QCheck.(list bool)
    (fun xs ->
      Bs.popcount (Bs.of_bool_list xs) = List.length (List.filter Fun.id xs))

let prop_sub_concat_id =
  QCheck.Test.make ~name:"concat of split = original" ~count:200
    QCheck.(pair (list bool) small_nat)
    (fun (xs, k) ->
      let b = Bs.of_bool_list xs in
      let n = Bs.length b in
      let k = if n = 0 then 0 else k mod (n + 1) in
      Bs.equal b (Bs.concat (Bs.sub b 0 k) (Bs.sub b k (n - k))))

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:200
    QCheck.(list bool)
    (fun xs ->
      let b = Bs.of_bool_list xs in
      Bs.equal b (Bs.of_bytes (Bs.to_bytes b) (Bs.length b)))

(* -- Bitstring bulk primitives: the word-fill and range-copy paths
   must agree with the definitional bit-at-a-time versions on every
   alignment, since the fast paths switch strategy at byte
   boundaries. -- *)

let naive_blit_int64 b ~pos ~bits w =
  for k = 0 to bits - 1 do
    Bs.set b (pos + k) (Int64.logand (Int64.shift_right_logical w k) 1L = 1L)
  done

let test_blit_int64_aligned () =
  let a = Bs.create 128 and b = Bs.create 128 in
  let w = 0xDEADBEEFCAFEF00DL in
  Bs.blit_int64 a ~pos:64 ~bits:64 w;
  naive_blit_int64 b ~pos:64 ~bits:64 w;
  check "aligned full word" true (Bs.equal a b);
  let a = Bs.create 30 and b = Bs.create 30 in
  Bs.blit_int64 a ~pos:8 ~bits:13 w;
  naive_blit_int64 b ~pos:8 ~bits:13 w;
  check "aligned partial word" true (Bs.equal a b)

let test_blit_int64_preserves_neighbours () =
  (* bits outside [pos, pos+bits) must survive the write *)
  let a = Bs.create 24 in
  for i = 0 to 23 do
    Bs.set a i true
  done;
  Bs.blit_int64 a ~pos:8 ~bits:5 0L;
  for i = 0 to 23 do
    let expect = i < 8 || i >= 13 in
    check (Printf.sprintf "bit %d" i) expect (Bs.get a i)
  done

let test_blit_int64_bounds () =
  Alcotest.check_raises "range"
    (Invalid_argument "Bitstring.blit_int64: range out of bounds") (fun () ->
      Bs.blit_int64 (Bs.create 10) ~pos:8 ~bits:3 0L);
  Alcotest.check_raises "bits > 64"
    (Invalid_argument "Bitstring.blit_int64: bits must be within [0, 64]")
    (fun () -> Bs.blit_int64 (Bs.create 100) ~pos:0 ~bits:65 0L)

let prop_blit_int64_matches_naive =
  QCheck.Test.make ~name:"blit_int64 = per-bit fill" ~count:500
    QCheck.(triple (int_bound 150) (int_bound 64) int64)
    (fun (pos, bits, w) ->
      let a = Bs.create 256 and b = Bs.create 256 in
      Bs.blit_int64 a ~pos ~bits w;
      naive_blit_int64 b ~pos ~bits w;
      Bs.equal a b)

let prop_blit_matches_naive =
  QCheck.Test.make ~name:"blit = per-bit copy" ~count:500
    QCheck.(quad (int_bound 100) (int_bound 100) (int_bound 100) int64)
    (fun (src_pos, dst_pos, len, seed) ->
      let src = Rng.bits (Rng.create seed) 256 in
      let a = Rng.bits (Rng.create (Int64.lognot seed)) 256 in
      let b = Bs.copy a in
      Bs.blit ~src ~src_pos a ~dst_pos ~len;
      for k = 0 to len - 1 do
        Bs.set b (dst_pos + k) (Bs.get src (src_pos + k))
      done;
      Bs.equal a b)

let test_blit_bounds () =
  Alcotest.check_raises "range"
    (Invalid_argument "Bitstring.blit: range out of bounds") (fun () ->
      Bs.blit ~src:(Bs.create 8) ~src_pos:0 (Bs.create 8) ~dst_pos:4 ~len:8)

(* -- Rng -- *)

let test_rng_deterministic () =
  let a = Rng.create 99L and b = Rng.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let r = Rng.create 7L in
  let a = Rng.split r in
  let b = Rng.split r in
  check "split streams differ" false (Rng.int64 a = Rng.int64 b)

let test_rng_float_range () =
  let r = Rng.create 3L in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    check "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_int_range () =
  let r = Rng.create 4L in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    check "in range" true (x >= 0 && x < 17)
  done

let test_rng_int_invalid () =
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int (Rng.create 1L) 0))

let test_rng_bool_balanced () =
  let r = Rng.create 5L in
  let heads = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool r then incr heads
  done;
  check "roughly fair" true (abs (!heads - 5000) < 300)

let test_rng_bernoulli_extremes () =
  let r = Rng.create 6L in
  check "p=0" false (Rng.bernoulli r 0.0);
  check "p=1" true (Rng.bernoulli r 1.0)

let test_rng_poisson_mean () =
  let r = Rng.create 8L in
  let mu = 0.1 in
  let n = 100_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Rng.poisson r mu
  done;
  let mean = float_of_int !total /. float_of_int n in
  check "poisson mean" true (abs_float (mean -. mu) < 0.01)

let test_rng_poisson_zero () =
  check_int "mu=0" 0 (Rng.poisson (Rng.create 1L) 0.0)

let test_rng_exponential_mean () =
  let r = Rng.create 9L in
  let n = 50_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.exponential r 2.0
  done;
  let mean = total.contents /. float_of_int n in
  check "exp mean 1/rate" true (abs_float (mean -. 0.5) < 0.02)

let test_rng_bits_length () =
  let r = Rng.create 10L in
  check_int "70 bits" 70 (Bs.length (Rng.bits r 70));
  check_int "0 bits" 0 (Bs.length (Rng.bits r 0))

let test_rng_bits_balanced () =
  let r = Rng.create 11L in
  let b = Rng.bits r 10_000 in
  let ones = Bs.popcount b in
  check "balanced" true (abs (ones - 5000) < 300)

let test_rng_shuffle_permutes () =
  let r = Rng.create 12L in
  let arr = Array.init 100 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check "is permutation" true (sorted = Array.init 100 Fun.id);
  check "actually moved" true (arr <> Array.init 100 Fun.id)

let test_rng_bytes_length () =
  check_int "13 bytes" 13 (Bytes.length (Rng.bytes (Rng.create 13L) 13))

(* The word-fill [Rng.bits] must reproduce the original per-bit fill
   exactly: one [int64] draw per 64 bits, LSB first.  Golden data and
   sifting results all depend on this stream staying put. *)
let legacy_bits seed n =
  let t = Rng.create seed in
  let b = Bs.create n in
  let i = ref 0 in
  while !i < n do
    let w = ref (Rng.int64 t) in
    let stop = min n (!i + 64) in
    while !i < stop do
      Bs.set b !i (Int64.logand !w 1L = 1L);
      w := Int64.shift_right_logical !w 1;
      incr i
    done
  done;
  b

let prop_rng_bits_matches_legacy =
  QCheck.Test.make ~name:"bits = legacy per-bit fill" ~count:200
    QCheck.(pair int64 (int_bound 400))
    (fun (seed, n) ->
      let fast = Rng.bits (Rng.create seed) n in
      Bs.equal fast (legacy_bits seed n))

let test_rng_bits_same_stream_position () =
  (* after [bits], both fills must leave the generator at the same
     point, so downstream draws agree too *)
  let a = Rng.create 21L and b = Rng.create 21L in
  ignore (Rng.bits a 129);
  ignore (legacy_bits 21L 129);
  (* legacy_bits consumed its own rng; replicate on [b] *)
  ignore (Rng.int64 b);
  ignore (Rng.int64 b);
  ignore (Rng.int64 b);
  Alcotest.(check int64) "next draw" (Rng.int64 b) (Rng.int64 a)

let test_rng_derive_order_independent () =
  (* derive is a pure function of (seed, index): deriving frame 5
     before frame 2 or after must give identical streams *)
  let a = Rng.derive 99L 5L in
  let _ = Rng.derive 99L 2L in
  let b = Rng.derive 99L 5L in
  Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)

let test_rng_derive_distinct () =
  let a = Rng.derive 99L 0L and b = Rng.derive 99L 1L in
  check "indexes differ" false (Rng.int64 a = Rng.int64 b);
  let c = Rng.derive 98L 0L and d = Rng.derive 99L 0L in
  check "seeds differ" false (Rng.int64 c = Rng.int64 d)

(* -- Lfsr -- *)

let test_lfsr_zero_seed_fixup () =
  let t = Lfsr.create 0l in
  Alcotest.(check int32) "seed fixup" 1l (Lfsr.seed t)

let test_lfsr_deterministic () =
  let a = Lfsr.create 12345l and b = Lfsr.create 12345l in
  for _ = 1 to 200 do
    check "same bits" (Lfsr.next_bit a) (Lfsr.next_bit b)
  done

let test_lfsr_subset_deterministic () =
  let s1 = Lfsr.subset 77l ~len:500 in
  let s2 = Lfsr.subset 77l ~len:500 in
  check "subsets equal" true (Bs.equal s1 s2)

let test_lfsr_subset_half_density () =
  let s = Lfsr.subset 424242l ~len:10_000 in
  let ones = Bs.popcount s in
  check "about half" true (abs (ones - 5000) < 400)

let test_lfsr_different_seeds_differ () =
  let s1 = Lfsr.subset 1l ~len:256 in
  let s2 = Lfsr.subset 2l ~len:256 in
  check "differ" false (Bs.equal s1 s2)

let test_lfsr_nonzero_period () =
  (* The register must not get stuck at zero. *)
  let t = Lfsr.create 1l in
  let all_zero = ref true in
  for _ = 1 to 64 do
    if Lfsr.next_bit t then all_zero := false
  done;
  check "produces ones" false !all_zero

(* -- Rle -- *)

let test_rle_roundtrip_simple () =
  let syms = [| 0; 0; 0; 1; 1; 0; 2 |] in
  Alcotest.(check (array int)) "roundtrip" syms (Rle.decode (Rle.encode syms))

let test_rle_empty () =
  Alcotest.(check (array int)) "empty" [||] (Rle.decode (Rle.encode [||]))

let test_rle_compresses_runs () =
  let sparse = Array.make 100_000 0 in
  sparse.(500) <- 1;
  sparse.(70_000) <- 2;
  let encoded = Rle.encode sparse in
  check "strong compression" true (Bytes.length encoded < 40)

let test_rle_encoded_size_consistent () =
  let syms = Array.init 1000 (fun i -> if i mod 97 = 0 then 1 else 0) in
  check_int "size matches" (Bytes.length (Rle.encode syms)) (Rle.encoded_size syms)

let test_rle_symbol_range () =
  Alcotest.check_raises "symbol 256" (Invalid_argument "Rle: symbol out of byte range")
    (fun () -> ignore (Rle.encode [| 256 |]))

let test_rle_bits_roundtrip () =
  let b = Bs.of_string "0001100000011111" in
  check "bits roundtrip" true (Bs.equal b (Rle.decode_bits (Rle.encode_bits b)))

let test_rle_malformed () =
  Alcotest.check_raises "truncated" (Invalid_argument "Rle: truncated run")
    (fun () ->
      let good = Rle.encode [| 1; 1; 0 |] in
      (* keep count + first run only: the second run's symbol is gone *)
      ignore (Rle.decode (Bytes.sub good 0 3)))

let prop_rle_roundtrip =
  QCheck.Test.make ~name:"rle roundtrip" ~count:300
    QCheck.(list (int_bound 3))
    (fun xs ->
      let syms = Array.of_list xs in
      Rle.decode (Rle.encode syms) = syms)

(* -- Stats -- *)

let test_stats_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_stats_mean_empty () =
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.mean [||])

let test_stats_variance () =
  Alcotest.(check (float 1e-9)) "variance" (5.0 /. 3.0)
    (Stats.variance [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.(check (float 1e-9)) "one sample" 0.0 (Stats.variance [| 5.0 |])

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 10.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 40.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p50" 25.0 (Stats.percentile xs 50.0)

let test_stats_binomial_ci () =
  let lo, hi = Stats.binomial_ci ~k:50 ~n:100 ~z:2.0 in
  check "contains p" true (lo < 0.5 && 0.5 < hi);
  let lo0, hi0 = Stats.binomial_ci ~k:0 ~n:0 ~z:2.0 in
  Alcotest.(check (float 1e-9)) "no data lo" 0.0 lo0;
  Alcotest.(check (float 1e-9)) "no data hi" 1.0 hi0

let test_stats_binomial_ci_boundaries () =
  (* The Wald interval degenerates to a point at k = 0 and k = n; the
     Wilson interval must stay informative there. *)
  let lo, hi = Stats.binomial_ci ~k:0 ~n:100 ~z:2.0 in
  Alcotest.(check (float 1e-9)) "k=0 lower" 0.0 lo;
  check "k=0 upper nonzero" true (hi > 0.0 && hi < 0.2);
  let lo, hi = Stats.binomial_ci ~k:100 ~n:100 ~z:2.0 in
  Alcotest.(check (float 1e-9)) "k=n upper" 1.0 hi;
  check "k=n lower below one" true (lo < 1.0 && lo > 0.8);
  (* symmetric cases mirror *)
  let lo1, hi1 = Stats.binomial_ci ~k:3 ~n:20 ~z:1.96 in
  let lo2, hi2 = Stats.binomial_ci ~k:17 ~n:20 ~z:1.96 in
  Alcotest.(check (float 1e-9)) "mirror lo" lo1 (1.0 -. hi2);
  Alcotest.(check (float 1e-9)) "mirror hi" hi1 (1.0 -. lo2)

let test_stats_binomial_ci_invalid () =
  Alcotest.check_raises "k > n" (Invalid_argument "Stats.binomial_ci: bad counts")
    (fun () -> ignore (Stats.binomial_ci ~k:5 ~n:4 ~z:2.0));
  Alcotest.check_raises "negative" (Invalid_argument "Stats.binomial_ci: bad counts")
    (fun () -> ignore (Stats.binomial_ci ~k:(-1) ~n:4 ~z:2.0))

let test_stats_percentile_invalid () =
  let xs = [| 1.0; 2.0 |] in
  Alcotest.check_raises "p < 0"
    (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (Stats.percentile xs (-0.5)));
  Alcotest.check_raises "p > 100"
    (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (Stats.percentile xs 100.5));
  Alcotest.check_raises "p NaN"
    (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (Stats.percentile xs Float.nan));
  Alcotest.check_raises "NaN sample"
    (Invalid_argument "Stats.percentile: NaN sample") (fun () ->
      ignore (Stats.percentile [| 1.0; Float.nan |] 50.0));
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.percentile [||] 50.0))

let test_stats_percentile_extremes () =
  (* p = 0 and p = 100 are exactly min and max, on unsorted input *)
  let xs = [| 7.0; -3.0; 12.5; 0.25 |] in
  Alcotest.(check (float 1e-9)) "p0 = min" (-3.0) (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100 = max" 12.5 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "single sample" 4.0
    (Stats.percentile [| 4.0 |] 73.0)

let test_stats_histogram () =
  let h = Stats.histogram ~bins:4 ~lo:0.0 ~hi:4.0 [| 0.5; 1.5; 1.6; 3.9; -1.0; 9.0 |] in
  check_int "bin 0 (with clamp)" 2 h.Stats.counts.(0);
  check_int "bin 1" 2 h.Stats.counts.(1);
  check_int "bin 3 (with clamp)" 2 h.Stats.counts.(3)

(* -- Crc32 / Hex -- *)

let test_crc32_known () =
  (* CRC-32("123456789") = 0xCBF43926 *)
  Alcotest.(check int32) "check value" 0xCBF43926l
    (Qkd_util.Crc32.digest (Bytes.of_string "123456789"))

let test_crc32_detects_flip () =
  let b = Bytes.of_string "hello quantum world" in
  let c1 = Qkd_util.Crc32.digest b in
  Bytes.set b 3 'X';
  check "changed" false (Qkd_util.Crc32.digest b = c1)

let test_hex_roundtrip () =
  let b = Bytes.of_string "\x00\xff\x10\x9a" in
  check_str "encode" "00ff109a" (Qkd_util.Hex.encode b);
  check "roundtrip" true (Bytes.equal b (Qkd_util.Hex.decode "00ff109a"));
  check "uppercase ok" true (Bytes.equal b (Qkd_util.Hex.decode "00FF109A"))

let test_hex_invalid () =
  Alcotest.check_raises "odd" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Qkd_util.Hex.decode "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Hex.decode: non-hex character")
    (fun () -> ignore (Qkd_util.Hex.decode "zz"))

let () =
  Alcotest.run "qkd_util"
    [
      ( "bitstring",
        [
          Alcotest.test_case "create zeroed" `Quick test_create_zeroed;
          Alcotest.test_case "set/get" `Quick test_set_get;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "of/to string" `Quick test_of_to_string;
          Alcotest.test_case "of_string invalid" `Quick test_of_string_invalid;
          Alcotest.test_case "flip" `Quick test_flip;
          Alcotest.test_case "xor" `Quick test_xor;
          Alcotest.test_case "xor mismatch" `Quick test_xor_length_mismatch;
          Alcotest.test_case "parity" `Quick test_parity;
          Alcotest.test_case "parity masked" `Quick test_parity_masked;
          Alcotest.test_case "sub/concat" `Quick test_sub_concat;
          Alcotest.test_case "sub bounds" `Quick test_sub_bounds;
          Alcotest.test_case "hamming" `Quick test_hamming;
          Alcotest.test_case "extract" `Quick test_extract;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "of_bytes clears tail" `Quick test_of_bytes_clears_tail;
          Alcotest.test_case "append bit" `Quick test_append_bit;
          Alcotest.test_case "equal diff len" `Quick test_equal_diff_len;
          Alcotest.test_case "foldi/iteri" `Quick test_foldi_iteri;
          Alcotest.test_case "blit_int64 aligned" `Quick test_blit_int64_aligned;
          Alcotest.test_case "blit_int64 neighbours" `Quick
            test_blit_int64_preserves_neighbours;
          Alcotest.test_case "blit_int64 bounds" `Quick test_blit_int64_bounds;
          Alcotest.test_case "blit bounds" `Quick test_blit_bounds;
          qcheck prop_xor_involution;
          qcheck prop_popcount_matches_list;
          qcheck prop_sub_concat_id;
          qcheck prop_bytes_roundtrip;
          qcheck prop_blit_int64_matches_naive;
          qcheck prop_blit_matches_naive;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "bool balanced" `Quick test_rng_bool_balanced;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "poisson mean" `Quick test_rng_poisson_mean;
          Alcotest.test_case "poisson zero" `Quick test_rng_poisson_zero;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "bits length" `Quick test_rng_bits_length;
          Alcotest.test_case "bits balanced" `Quick test_rng_bits_balanced;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "bytes length" `Quick test_rng_bytes_length;
          Alcotest.test_case "bits stream position" `Quick
            test_rng_bits_same_stream_position;
          Alcotest.test_case "derive order independent" `Quick
            test_rng_derive_order_independent;
          Alcotest.test_case "derive distinct" `Quick test_rng_derive_distinct;
          qcheck prop_rng_bits_matches_legacy;
        ] );
      ( "lfsr",
        [
          Alcotest.test_case "zero seed fixup" `Quick test_lfsr_zero_seed_fixup;
          Alcotest.test_case "deterministic" `Quick test_lfsr_deterministic;
          Alcotest.test_case "subset deterministic" `Quick test_lfsr_subset_deterministic;
          Alcotest.test_case "subset half density" `Quick test_lfsr_subset_half_density;
          Alcotest.test_case "seeds differ" `Quick test_lfsr_different_seeds_differ;
          Alcotest.test_case "nonzero period" `Quick test_lfsr_nonzero_period;
        ] );
      ( "rle",
        [
          Alcotest.test_case "roundtrip simple" `Quick test_rle_roundtrip_simple;
          Alcotest.test_case "empty" `Quick test_rle_empty;
          Alcotest.test_case "compresses runs" `Quick test_rle_compresses_runs;
          Alcotest.test_case "encoded_size" `Quick test_rle_encoded_size_consistent;
          Alcotest.test_case "symbol range" `Quick test_rle_symbol_range;
          Alcotest.test_case "bits roundtrip" `Quick test_rle_bits_roundtrip;
          Alcotest.test_case "malformed" `Quick test_rle_malformed;
          qcheck prop_rle_roundtrip;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "mean empty" `Quick test_stats_mean_empty;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile invalid" `Quick
            test_stats_percentile_invalid;
          Alcotest.test_case "percentile extremes" `Quick
            test_stats_percentile_extremes;
          Alcotest.test_case "binomial ci" `Quick test_stats_binomial_ci;
          Alcotest.test_case "binomial ci boundaries" `Quick
            test_stats_binomial_ci_boundaries;
          Alcotest.test_case "binomial ci invalid" `Quick
            test_stats_binomial_ci_invalid;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ] );
      ( "crc-hex",
        [
          Alcotest.test_case "crc32 known" `Quick test_crc32_known;
          Alcotest.test_case "crc32 detects flip" `Quick test_crc32_detects_flip;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "hex invalid" `Quick test_hex_invalid;
        ] );
    ]
