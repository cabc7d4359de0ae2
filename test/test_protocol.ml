(* Tests for qkd_protocol: wire codec, sifting, Cascade + baseline EC,
   entropy estimation, privacy amplification, key pool, authentication
   and the assembled engine. *)

module Wire = Qkd_protocol.Wire
module Sifting = Qkd_protocol.Sifting
module Cascade = Qkd_protocol.Cascade
module Parity_ec = Qkd_protocol.Parity_ec
module Entropy = Qkd_protocol.Entropy
module Privacy_amp = Qkd_protocol.Privacy_amp
module Key_pool = Qkd_protocol.Key_pool
module Auth = Qkd_protocol.Auth
module Engine = Qkd_protocol.Engine
module Randomness = Qkd_protocol.Randomness
module Qframe = Qkd_protocol.Qframe
module Link = Qkd_photonics.Link
module Eve = Qkd_photonics.Eve
module Source = Qkd_photonics.Source
module Bs = Qkd_util.Bitstring
module Rng = Qkd_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qcheck = QCheck_alcotest.to_alcotest

(* -- Wire -- *)

let roundtrip msg = Wire.decode (Wire.encode msg)

let test_wire_roundtrips () =
  let msgs =
    [
      Wire.Sift_report { first_slot = 7; symbols = Bytes.of_string "abc" };
      Wire.Sift_response { accepted = Bytes.of_string "\x01\x02" };
      Wire.Ec_parities
        { round = 3; seeds = [| 1l; -7l; 99l |]; parities = Bs.of_string "101" };
      Wire.Ec_mismatch { round = 2; subset_ids = [| 0; 5; 63 |] };
      Wire.Ec_bisect { subset_id = 4; lo = 10; hi = 20; parity = true };
      Wire.Ec_flip { index = 12345 };
      Wire.Ec_verify { seed = 77l; parity = false };
      Wire.Pa_params
        {
          n = 64;
          m = 32;
          modulus_terms = [ 64; 4; 3; 1; 0 ];
          multiplier = Bs.of_string "1100";
          addend = Bs.of_string "01";
        };
      Wire.Auth_tag { tag = Bs.of_string "10101010" };
      Wire.Ike_payload (Bytes.of_string "ike bytes");
    ]
  in
  List.iter (fun m -> check "roundtrip" true (roundtrip m = m)) msgs

let test_wire_crc_detects_corruption () =
  let b = Wire.encode (Wire.Ec_flip { index = 7 }) in
  Bytes.set b 3 'X';
  Alcotest.check_raises "crc" (Wire.Malformed "CRC mismatch") (fun () ->
      ignore (Wire.decode b))

let test_wire_bad_magic () =
  let b = Wire.encode (Wire.Ec_flip { index = 7 }) in
  Bytes.set b 0 '\x00';
  (* breaking the magic also breaks the CRC; magic is checked first *)
  try
    ignore (Wire.decode b);
    Alcotest.fail "should raise"
  with Wire.Malformed _ -> ()

let test_wire_too_short () =
  Alcotest.check_raises "short" (Wire.Malformed "frame too short") (fun () ->
      ignore (Wire.decode (Bytes.create 4)))

let test_wire_encoded_size () =
  let m = Wire.Ec_flip { index = 7 } in
  check_int "size" (Bytes.length (Wire.encode m)) (Wire.encoded_size m)

(* -- Sifting -- *)

let test_sifting_textbook_ratio () =
  (* §5: ~1% detection x 50% basis agreement -> ~1 sifted bit per 200
     pulses; 1000 pulses -> ~5 sifted bits.  Use a bigger run for a
     stable estimate. *)
  let link = Link.run ~seed:200L Link.textbook_example ~pulses:400_000 in
  let s = Sifting.sift link in
  let per_pulse = float_of_int (Array.length s.Sifting.slots) /. 400_000.0 in
  check "about 1/200" true (per_pulse > 1.0 /. 280.0 && per_pulse < 1.0 /. 150.0)

let test_sifting_sides_agree_on_slots () =
  let link = Link.run ~seed:201L Link.darpa_default ~pulses:200_000 in
  let s = Sifting.sift link in
  check_int "equal lengths" (Bs.length s.Sifting.alice_bits) (Bs.length s.Sifting.bob_bits);
  check_int "slots match bits" (Array.length s.Sifting.slots) (Bs.length s.Sifting.alice_bits)

let test_sifting_basis_filter () =
  (* every sifted slot must have matching bases *)
  let link = Link.run ~seed:202L Link.darpa_default ~pulses:100_000 in
  let s = Sifting.sift link in
  let by_slot = Hashtbl.create 64 in
  Array.iter
    (fun (d : Link.detection) -> Hashtbl.replace by_slot d.Link.slot d.Link.bob_basis)
    link.Link.detections;
  Array.iter
    (fun slot ->
      let bob = Hashtbl.find by_slot slot in
      check "bases equal" true
        (Qkd_photonics.Qubit.basis_equal bob (Link.alice_basis link slot)))
    s.Sifting.slots

let test_sifting_qber_small_without_eve () =
  let link = Link.run ~seed:203L Link.darpa_default ~pulses:500_000 in
  let s = Sifting.sift link in
  let q = Sifting.qber s in
  check "qber reasonable" true (q > 0.03 && q < 0.10)

let test_sifting_report_is_compressed () =
  let link = Link.run ~seed:204L Link.darpa_default ~pulses:1_000_000 in
  let s = Sifting.sift link in
  (* raw report would be >= 1 byte per slot *)
  check "rle wins" true (s.Sifting.report_bytes < 100_000)

let test_sifting_counts_consistent () =
  let link = Link.run ~seed:205L Link.darpa_default ~pulses:200_000 in
  let s = Sifting.sift link in
  check_int "detections = sifted + mismatches"
    s.Sifting.detections
    (Array.length s.Sifting.slots + s.Sifting.basis_mismatches)

let test_sifting_wrong_message_type () =
  let link = Link.run ~seed:206L Link.darpa_default ~pulses:1_000 in
  Alcotest.check_raises "wrong type"
    (Wire.Malformed "alice_response: expected a sift report") (fun () ->
      ignore (Sifting.alice_response link (Wire.Ec_flip { index = 0 })))

(* -- Cascade -- *)

let flip_random rng bits p =
  let b = Bs.copy bits in
  let flipped = ref 0 in
  for i = 0 to Bs.length b - 1 do
    if Rng.bernoulli rng p then begin
      Bs.flip b i;
      incr flipped
    end
  done;
  (b, !flipped)

let test_cascade_no_errors () =
  let rng = Rng.create 300L in
  let alice = Rng.bits rng 2048 in
  let r = Cascade.reconcile Cascade.default_config ~alice ~bob:(Bs.copy alice) in
  check_int "nothing corrected" 0 r.Cascade.errors_corrected;
  check "verified" true r.Cascade.verified;
  check "strings equal" true (Bs.equal alice r.Cascade.corrected);
  (* disclosure is only the per-round/pass parities *)
  check "low disclosure" true (r.Cascade.disclosed_bits < 600)

let test_cascade_corrects_all_at_5pct () =
  let rng = Rng.create 301L in
  let alice = Rng.bits rng 4096 in
  let bob, injected = flip_random rng alice 0.05 in
  let r = Cascade.reconcile Cascade.default_config ~alice ~bob in
  check_int "residual zero" 0 (Bs.hamming_distance alice r.Cascade.corrected);
  check_int "found all" injected r.Cascade.errors_corrected;
  check "verified" true r.Cascade.verified

let test_cascade_corrects_high_error_rate () =
  (* "will accurately detect and correct a large number of errors even
     if well above the historical average" *)
  let rng = Rng.create 302L in
  let alice = Rng.bits rng 2048 in
  let bob, _ = flip_random rng alice 0.12 in
  let r = Cascade.reconcile Cascade.default_config ~alice ~bob in
  check_int "residual zero" 0 (Bs.hamming_distance alice r.Cascade.corrected);
  check "verified" true r.Cascade.verified

let test_cascade_adaptive_disclosure () =
  (* more errors -> more disclosure; few errors -> little *)
  let rng = Rng.create 303L in
  let alice = Rng.bits rng 4096 in
  let bob_low, _ = flip_random rng alice 0.01 in
  let bob_high, _ = flip_random rng alice 0.08 in
  let r_low = Cascade.reconcile Cascade.default_config ~alice ~bob:bob_low in
  let r_high = Cascade.reconcile Cascade.default_config ~alice ~bob:bob_high in
  check "adaptive" true
    (r_low.Cascade.disclosed_bits < r_high.Cascade.disclosed_bits)

let test_cascade_efficiency_vs_shannon () =
  (* Disclosure should be within ~2x the Shannon minimum at 5%. *)
  let rng = Rng.create 304L in
  let alice = Rng.bits rng 8192 in
  let bob, injected = flip_random rng alice 0.05 in
  let r = Cascade.reconcile Cascade.default_config ~alice ~bob in
  let p = float_of_int injected /. 8192.0 in
  let h = -.(p *. log p /. log 2.0) -. ((1.0 -. p) *. log (1.0 -. p) /. log 2.0) in
  let shannon = h *. 8192.0 in
  check "within 2x shannon" true (float_of_int r.Cascade.disclosed_bits < 2.0 *. shannon)

let test_cascade_empty_input () =
  let r = Cascade.reconcile Cascade.default_config ~alice:(Bs.create 0) ~bob:(Bs.create 0) in
  check_int "nothing" 0 r.Cascade.errors_corrected;
  check "verified trivially" true r.Cascade.verified

let test_cascade_single_bit () =
  let alice = Bs.of_string "1" in
  let bob = Bs.of_string "0" in
  let r = Cascade.reconcile Cascade.default_config ~alice ~bob in
  check_int "corrected" 1 r.Cascade.errors_corrected;
  check "fixed" true (Bs.equal alice r.Cascade.corrected)

let test_cascade_length_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Cascade.reconcile: length mismatch")
    (fun () ->
      ignore (Cascade.reconcile Cascade.default_config ~alice:(Bs.create 4) ~bob:(Bs.create 5)))

let test_cascade_deterministic () =
  let rng = Rng.create 305L in
  let alice = Rng.bits rng 1024 in
  let bob, _ = flip_random rng alice 0.05 in
  let r1 = Cascade.reconcile ~seed:9L Cascade.default_config ~alice ~bob in
  let r2 = Cascade.reconcile ~seed:9L Cascade.default_config ~alice ~bob in
  check_int "same disclosure" r1.Cascade.disclosed_bits r2.Cascade.disclosed_bits

let prop_cascade_always_verifies =
  QCheck.Test.make ~name:"cascade corrects random noise" ~count:20
    QCheck.(pair (int_bound 1000) (int_bound 80))
    (fun (len, epct) ->
      let len = len + 64 in
      let p = float_of_int epct /. 1000.0 in
      let rng = Rng.create (Int64.of_int (len * 1000 + epct)) in
      let alice = Rng.bits rng len in
      let bob, _ = flip_random rng alice p in
      let r = Cascade.reconcile Cascade.default_config ~alice ~bob in
      r.Cascade.verified && Bs.hamming_distance alice r.Cascade.corrected = 0)

(* -- Parity EC baseline -- *)

let test_parity_ec_corrects_most () =
  let rng = Rng.create 310L in
  let alice = Rng.bits rng 4096 in
  let bob, injected = flip_random rng alice 0.05 in
  let r = Parity_ec.reconcile Parity_ec.default_config ~estimated_qber:0.05 ~alice ~bob in
  let residual = Bs.hamming_distance alice r.Parity_ec.corrected in
  check "corrected most" true (residual < injected / 3)

let test_parity_ec_leaves_residual_sometimes () =
  (* single pass misses even-error blocks routinely *)
  let rng = Rng.create 311L in
  let one_pass = { Parity_ec.default_config with Parity_ec.passes = 1 } in
  let any_residual = ref false in
  for i = 0 to 9 do
    let alice = Rng.bits rng 4096 in
    let bob, _ = flip_random rng alice 0.06 in
    let r =
      Parity_ec.reconcile ~seed:(Int64.of_int i) one_pass ~estimated_qber:0.06 ~alice ~bob
    in
    if Bs.hamming_distance alice r.Parity_ec.corrected > 0 then any_residual := true
  done;
  check "baseline is weaker" true !any_residual

let test_parity_ec_worse_than_cascade () =
  let rng = Rng.create 312L in
  let alice = Rng.bits rng 4096 in
  let bob, _ = flip_random rng alice 0.05 in
  let c = Cascade.reconcile Cascade.default_config ~alice ~bob in
  let p = Parity_ec.reconcile Parity_ec.default_config ~estimated_qber:0.05 ~alice ~bob in
  let c_res = Bs.hamming_distance alice c.Cascade.corrected in
  let p_res = Bs.hamming_distance alice p.Parity_ec.corrected in
  check "cascade at least as good" true (c_res <= p_res)

(* -- Entropy -- *)

let wc_source = Source.weak_coherent ~mu:0.1

let inputs ?(b = 2000) ?(e = 100) ?(n = 1_000_000) ?(d = 900) ?(r = 0)
    ?(source = wc_source) () =
  { Entropy.b; e; n; d; r; source }

let test_entropy_bennett_no_errors () =
  let est = Entropy.estimate ~defense:Entropy.Bennett ~confidence:5.0 (inputs ~e:0 ()) in
  Alcotest.(check (float 1e-9)) "no leak" 0.0 est.Entropy.eavesdrop_leak;
  Alcotest.(check (float 1e-9)) "no sd" 0.0 est.Entropy.eavesdrop_sd

let test_entropy_bennett_formula () =
  let est = Entropy.estimate ~defense:Entropy.Bennett ~confidence:5.0 (inputs ~e:50 ()) in
  Alcotest.(check (float 1e-6)) "4e/sqrt2" (200.0 /. sqrt 2.0) est.Entropy.eavesdrop_leak;
  Alcotest.(check (float 1e-6))
    "sd" (sqrt ((4.0 +. (2.0 *. sqrt 2.0)) *. 50.0))
    est.Entropy.eavesdrop_sd

let test_entropy_slutsky_zero_and_third () =
  let est0 = Entropy.estimate ~defense:Entropy.Slutsky ~confidence:0.0 (inputs ~e:0 ()) in
  Alcotest.(check (float 1e-6)) "T(0)=0" 0.0 est0.Entropy.eavesdrop_leak;
  (* at e' >= 1/3 the whole string is compromised *)
  let est3 =
    Entropy.estimate ~defense:Entropy.Slutsky ~confidence:0.0 (inputs ~b:900 ~e:300 ())
  in
  Alcotest.(check (float 1e-3)) "T(1/3)=b" 900.0 est3.Entropy.eavesdrop_leak

let test_entropy_slutsky_more_conservative () =
  (* at the paper's operating point (6.5% QBER, metro blocks) Slutsky
     should charge more than Bennett *)
  let i = inputs ~b:3000 ~e:195 ~d:1300 () in
  let bennett = Entropy.estimate ~defense:Entropy.Bennett ~confidence:5.0 i in
  let slutsky = Entropy.estimate ~defense:Entropy.Slutsky ~confidence:5.0 i in
  check "slutsky charges more" true
    (slutsky.Entropy.eavesdrop_leak > bennett.Entropy.eavesdrop_leak);
  check "slutsky fewer secure bits" true
    (slutsky.Entropy.secure_bits <= bennett.Entropy.secure_bits)

let test_entropy_disclosed_subtracted_exactly () =
  let e1 = Entropy.estimate ~defense:Entropy.Bennett ~confidence:5.0 (inputs ~d:100 ()) in
  let e2 = Entropy.estimate ~defense:Entropy.Bennett ~confidence:5.0 (inputs ~d:300 ()) in
  check_int "extra disclosure costs exactly" 200
    (e1.Entropy.secure_bits - e2.Entropy.secure_bits)

let test_entropy_nonrandom_placeholder () =
  let e1 = Entropy.estimate ~defense:Entropy.Bennett ~confidence:5.0 (inputs ~r:0 ()) in
  let e2 = Entropy.estimate ~defense:Entropy.Bennett ~confidence:5.0 (inputs ~r:64 ()) in
  check_int "r shortens" 64 (e1.Entropy.secure_bits - e2.Entropy.secure_bits)

let test_entropy_strict_pns_kills_wcp () =
  (* Strict accounting: n * p_multi > b at metro loss -> zero key *)
  let est =
    Entropy.estimate ~defense:Entropy.Bennett ~accounting:Entropy.Strict ~confidence:5.0
      (inputs ())
  in
  check_int "no key" 0 est.Entropy.secure_bits

let test_entropy_entangled_immune_to_strict () =
  let entangled = Source.entangled_pair ~mu:0.1 in
  let est =
    Entropy.estimate ~defense:Entropy.Bennett ~accounting:Entropy.Strict ~confidence:5.0
      (inputs ~source:entangled ())
  in
  check "entangled keeps key" true (est.Entropy.secure_bits > 0)

let test_entropy_confidence_margin () =
  let lo = Entropy.estimate ~defense:Entropy.Bennett ~confidence:1.0 (inputs ()) in
  let hi = Entropy.estimate ~defense:Entropy.Bennett ~confidence:10.0 (inputs ()) in
  check "higher confidence fewer bits" true
    (hi.Entropy.secure_bits < lo.Entropy.secure_bits)

let test_entropy_validation () =
  Alcotest.check_raises "e > b" (Invalid_argument "Entropy.estimate: e > b") (fun () ->
      ignore
        (Entropy.estimate ~defense:Entropy.Bennett ~confidence:5.0 (inputs ~b:10 ~e:11 ())))

let test_entropy_never_negative () =
  let est =
    Entropy.estimate ~defense:Entropy.Slutsky ~confidence:5.0
      (inputs ~b:100 ~e:30 ~d:90 ())
  in
  check "clamped at zero" true (est.Entropy.secure_bits = 0)

(* -- Privacy amplification -- *)

let test_pa_amplify_length_and_agreement () =
  let rng = Rng.create 400L in
  let bits = Rng.bits rng 3000 in
  let r = Privacy_amp.amplify rng ~bits ~secure_bits:1200 in
  check_int "length" 1200 (Bs.length r.Privacy_amp.distilled);
  (* Bob recomputes from the wire messages *)
  let bob = Privacy_amp.apply_params r.Privacy_amp.params_messages bits in
  check "sides agree" true (Bs.equal r.Privacy_amp.distilled bob)

let test_pa_zero_bits () =
  let rng = Rng.create 401L in
  let r = Privacy_amp.amplify rng ~bits:(Rng.bits rng 100) ~secure_bits:0 in
  check_int "empty" 0 (Bs.length r.Privacy_amp.distilled);
  check_int "no messages" 0 (List.length r.Privacy_amp.params_messages)

let test_pa_clamps_to_input () =
  let rng = Rng.create 402L in
  let r = Privacy_amp.amplify rng ~bits:(Rng.bits rng 100) ~secure_bits:500 in
  check_int "clamped" 100 (Bs.length r.Privacy_amp.distilled)

let test_pa_chunking_large_input () =
  let rng = Rng.create 403L in
  let bits = Rng.bits rng 5000 in
  let r = Privacy_amp.amplify rng ~bits ~secure_bits:2000 in
  check_int "length" 2000 (Bs.length r.Privacy_amp.distilled);
  check "several chunks" true (List.length r.Privacy_amp.params_messages >= 4);
  let bob = Privacy_amp.apply_params r.Privacy_amp.params_messages bits in
  check "agree across chunks" true (Bs.equal r.Privacy_amp.distilled bob)

let test_pa_differing_inputs_decorrelate () =
  let rng = Rng.create 404L in
  let bits = Rng.bits rng 512 in
  let bits' = Bs.copy bits in
  Bs.flip bits' 100;
  let r = Privacy_amp.amplify rng ~bits ~secure_bits:256 in
  let other = Privacy_amp.apply_params r.Privacy_amp.params_messages bits' in
  (* a single input-bit flip should flip ~half the output *)
  let d = Bs.hamming_distance r.Privacy_amp.distilled other in
  check "avalanche" true (d > 64 && d < 192)

(* -- Key pool -- *)

let test_pool_fifo_order () =
  let p = Key_pool.create () in
  Key_pool.offer p (Bs.of_string "1010");
  Key_pool.offer p (Bs.of_string "0011");
  Alcotest.(check string) "first" "1010" (Bs.to_string (Key_pool.consume p 4));
  Alcotest.(check string) "second" "0011" (Bs.to_string (Key_pool.consume p 4))

let test_pool_split_chunks () =
  let p = Key_pool.create () in
  Key_pool.offer p (Bs.of_string "111000");
  Alcotest.(check string) "head" "11" (Bs.to_string (Key_pool.consume p 2));
  Alcotest.(check string) "middle across" "1000" (Bs.to_string (Key_pool.consume p 4))

let test_pool_exhausted_atomic () =
  let p = Key_pool.create ~initial:(Bs.of_string "101") () in
  (try ignore (Key_pool.consume p 5) with Key_pool.Exhausted _ -> ());
  check_int "untouched" 3 (Key_pool.available p)

let test_pool_counters () =
  let p = Key_pool.create () in
  Key_pool.offer p (Bs.create 100);
  ignore (Key_pool.consume p 60);
  check_int "offered" 100 (Key_pool.total_offered p);
  check_int "consumed" 60 (Key_pool.total_consumed p);
  check_int "available" 40 (Key_pool.available p)

let test_pool_restore_round_trip () =
  let p = Key_pool.create () in
  Key_pool.offer p (Bs.of_string "110100101");
  let head = Key_pool.consume p 5 in
  Key_pool.restore p head;
  check_int "level back" 9 (Key_pool.available p);
  check_int "spend undone" 0 (Key_pool.total_consumed p);
  Alcotest.(check string) "same bits, same order" "110100101"
    (Bs.to_string (Key_pool.consume p 9))

(* Offer an arbitrary series of chunks, consume the total in arbitrary
   splits: the concatenated output must equal the concatenated input,
   and the counters must conserve exactly. *)
let prop_pool_round_trip_and_conservation =
  QCheck.Test.make ~name:"pool offer/consume round-trip + conservation" ~count:100
    QCheck.(pair (small_list (int_bound 50)) (int_bound 1000))
    (fun (chunk_sizes, seed) ->
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      let p = Key_pool.create () in
      let offered =
        List.map
          (fun n ->
            let bits = Rng.bits rng n in
            Key_pool.offer p (Bs.copy bits);
            bits)
          chunk_sizes
      in
      let total = List.fold_left (fun acc b -> acc + Bs.length b) 0 offered in
      QCheck.assume (Key_pool.total_offered p = total);
      let out = ref [] in
      let left = ref total in
      while !left > 0 do
        let n = min !left (1 + Rng.int rng 17) in
        out := Key_pool.consume p n :: !out;
        left := !left - n
      done;
      Bs.equal (Bs.concat_list offered) (Bs.concat_list (List.rev !out))
      && Key_pool.total_consumed p = total
      && Key_pool.available p = 0)

(* The amortised-O(1) offer: a pool fed in very many small increments
   must stay cheap (the old list-append implementation was O(n^2) and
   takes minutes at this size). *)
let test_pool_many_small_chunks_fast () =
  let t0 = Sys.time () in
  let p = Key_pool.create () in
  let chunk = Bs.create 8 in
  for _ = 1 to 100_000 do
    Key_pool.offer p (Bs.copy chunk)
  done;
  while Key_pool.available p >= 12_800 do
    ignore (Key_pool.consume p 12_800)
  done;
  check_int "all offered" 800_000 (Key_pool.total_offered p);
  check "fast enough" true (Sys.time () -. t0 < 5.0)

(* -- Auth -- *)

let mirrored_auths bits =
  let rng = Rng.create 500L in
  let material = Rng.bits rng bits in
  (Auth.create ~prepositioned:(Bs.copy material), Auth.create ~prepositioned:material)

let test_auth_tag_verify_in_lockstep () =
  let a, b = mirrored_auths 1024 in
  let msg = Bytes.of_string "sift report #1" in
  (match Auth.tag a msg with
  | Ok tag -> (
      match Auth.verify b ~tag msg with
      | Ok () -> ()
      | Error e -> Alcotest.failf "verify: %a" Auth.pp_error e)
  | Error e -> Alcotest.failf "tag: %a" Auth.pp_error e);
  check_int "both consumed equally" (Auth.consumed_bits a) (Auth.consumed_bits b)

let test_auth_detects_forgery () =
  let a, b = mirrored_auths 1024 in
  match Auth.tag a (Bytes.of_string "genuine") with
  | Ok tag -> (
      match Auth.verify b ~tag (Bytes.of_string "forged!") with
      | Error Auth.Tag_mismatch -> ()
      | Ok () -> Alcotest.fail "forgery accepted"
      | Error e -> Alcotest.failf "unexpected: %a" Auth.pp_error e)
  | Error e -> Alcotest.failf "tag: %a" Auth.pp_error e

let test_auth_exhaustion () =
  let a, _ = mirrored_auths Auth.bits_per_message in
  (match Auth.tag a (Bytes.of_string "one") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first should work: %a" Auth.pp_error e);
  match Auth.tag a (Bytes.of_string "two") with
  | Error Auth.Pool_exhausted -> ()
  | Ok _ -> Alcotest.fail "should be exhausted"
  | Error e -> Alcotest.failf "unexpected: %a" Auth.pp_error e

let test_auth_replenish_restores () =
  let a, _ = mirrored_auths Auth.bits_per_message in
  ignore (Auth.tag a (Bytes.of_string "one"));
  Auth.replenish a (Rng.bits (Rng.create 501L) Auth.bits_per_message);
  match Auth.tag a (Bytes.of_string "two") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "replenished should work: %a" Auth.pp_error e

let test_auth_counters () =
  let a, b = mirrored_auths 4096 in
  ignore (Auth.tag a (Bytes.of_string "m"));
  (match Auth.tag a (Bytes.of_string "m2") with Ok _ | Error _ -> ());
  ignore b;
  check_int "consumed" (2 * Auth.bits_per_message) (Auth.consumed_bits a);
  check_int "tagged" 2 (Auth.messages_tagged a)

(* -- Qframe -- *)

let test_qframe_roundtrip () =
  let f =
    {
      Qframe.side = Qframe.Bob_frames;
      seq = 17;
      first_slot = 17 * 4096;
      symbols = Array.init 100 (fun i -> i mod 4);
    }
  in
  let f' = Qframe.decode (Qframe.encode f) in
  check "roundtrip" true (f = f')

let test_qframe_crc () =
  let f =
    { Qframe.side = Qframe.Alice_frames; seq = 0; first_slot = 0; symbols = [| 1; 2 |] }
  in
  let b = Qframe.encode f in
  Bytes.set b 7 '\xFF';
  Alcotest.check_raises "crc" (Qframe.Malformed "qframe CRC mismatch") (fun () ->
      ignore (Qframe.decode b))

let test_qframe_covers_link () =
  let link = Link.run ~seed:900L Link.darpa_default ~pulses:20_000 in
  let alice = Qframe.alice_frames link ~frame_size:4096 in
  let bob = Qframe.bob_frames link ~frame_size:4096 in
  check_int "alice covers all slots" 20_000 (Qframe.slots_covered alice);
  check_int "bob covers all slots" 20_000 (Qframe.slots_covered bob);
  check_int "no gaps" 0 (List.length (Qframe.missing_frames bob));
  (* alice frames encode her real settings *)
  let f0 = List.hd alice in
  Array.iteri
    (fun i sym ->
      let basis = sym lsr 1 = 1 and value = sym land 1 = 1 in
      check "basis matches" true
        (basis = Qkd_util.Bitstring.get link.Link.alice_bases i);
      check "value matches" true
        (value = Qkd_util.Bitstring.get link.Link.alice_values i))
    (Array.sub f0.Qframe.symbols 0 256)

let test_qframe_bob_symbols_match_detections () =
  let link = Link.run ~seed:901L Link.darpa_default ~pulses:50_000 in
  let frames = Qframe.bob_frames link ~frame_size:4096 in
  let flat = Array.concat (List.map (fun f -> f.Qframe.symbols) frames) in
  let nonzero = Array.fold_left (fun acc s -> if s <> 0 then acc + 1 else acc) 0 flat in
  check_int "one symbol per detection" (Array.length link.Link.detections) nonzero

let test_qframe_missing_detection () =
  let mk seq = { Qframe.side = Qframe.Bob_frames; seq; first_slot = seq * 10; symbols = [| 0 |] } in
  Alcotest.(check (list int)) "gaps" [ 2; 4 ]
    (Qframe.missing_frames [ mk 1; mk 3; mk 5 ]);
  Alcotest.(check (list int)) "no gaps" [] (Qframe.missing_frames [ mk 7; mk 8 ]);
  Alcotest.(check (list int)) "empty" [] (Qframe.missing_frames [])

let test_qframe_bad_symbol () =
  let f = { Qframe.side = Qframe.Bob_frames; seq = 0; first_slot = 0; symbols = [| 4 |] } in
  Alcotest.check_raises "range" (Invalid_argument "Qframe.encode: symbol out of range")
    (fun () -> ignore (Qframe.encode f))

(* -- Randomness -- *)

let test_randomness_fair_bits_pass () =
  let bits = Rng.bits (Rng.create 800L) 20_000 in
  let r = Randomness.test bits in
  check "passes" true r.Randomness.passed;
  check_int "no shortening" 0 r.Randomness.shorten_bits

let test_randomness_biased_bits_fail () =
  (* 60/40 bias: the detector-bias case of section 6 *)
  let rng = Rng.create 801L in
  let bits = Bs.create 20_000 in
  for i = 0 to 19_999 do
    Bs.set bits i (Rng.bernoulli rng 0.6)
  done;
  let r = Randomness.test bits in
  check "fails" false r.Randomness.passed;
  check "charges bits" true (r.Randomness.shorten_bits > 100);
  check "not more than all" true (r.Randomness.shorten_bits <= 20_000)

let test_randomness_constant_fails_hard () =
  let bits = Bs.create 1024 in
  (* all zeros *)
  let r = Randomness.test bits in
  check "fails" false r.Randomness.passed;
  check_int "everything charged" 1024 r.Randomness.shorten_bits

let test_randomness_alternating_fails () =
  let bits = Bs.create 4096 in
  for i = 0 to 4095 do
    Bs.set bits i (i land 1 = 1)
  done;
  let r = Randomness.test bits in
  (* perfectly alternating: monobit fine, autocorrelation/runs scream *)
  check "fails" false r.Randomness.passed;
  check "lag-1 = -1" true (r.Randomness.autocorrelation_lag1 < -0.99)

let test_randomness_short_input_tolerant () =
  let r = Randomness.test (Bs.create 64) in
  check "short passes" true r.Randomness.passed;
  check_int "no charge" 0 r.Randomness.shorten_bits

let test_randomness_bias_measure () =
  check_int "balanced" 0 (Randomness.detector_bias_measure ~zeros:5000 ~ones:5000);
  check "biased charged" true
    (Randomness.detector_bias_measure ~zeros:6000 ~ones:4000 > 0);
  check_int "empty" 0 (Randomness.detector_bias_measure ~zeros:0 ~ones:0)

let test_randomness_engine_bias_detected () =
  (* a mismatched APD pair biases the raw key; the engine's randomness
     battery must charge for it, shrinking the secure yield *)
  let biased_detector =
    { Qkd_photonics.Detector.default with Qkd_photonics.Detector.d1_efficiency_factor = 0.5 }
  in
  let config =
    {
      Engine.default_config with
      Engine.link = { Link.darpa_default with Link.detector = biased_detector };
    }
  in
  let engine = Engine.create config in
  match Engine.run_round engine ~pulses:2_000_000 with
  | Ok m ->
      check "bias charged via r" true (m.Engine.entropy.Entropy.nonrandom > 0)
  | Error f -> Alcotest.failf "round failed: %a" Engine.pp_failure f

(* -- Engine -- *)

let test_engine_round_delivers_key () =
  let eng = Engine.create Engine.default_config in
  match Engine.run_round eng ~pulses:2_000_000 with
  | Ok m ->
      check "sifted" true (m.Engine.sifted_bits > 2000);
      check "qber in band" true (m.Engine.qber > 0.04 && m.Engine.qber < 0.10);
      check "secure bits positive" true (m.Engine.entropy.Entropy.secure_bits > 0);
      check "key delivered" true (Key_pool.available (Engine.alice_pool eng) > 0)
  | Error f -> Alcotest.failf "round failed: %a" Engine.pp_failure f

let test_engine_pools_identical () =
  let eng = Engine.create Engine.default_config in
  (match Engine.run_round eng ~pulses:2_000_000 with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "round failed: %a" Engine.pp_failure f);
  let n = Key_pool.available (Engine.alice_pool eng) in
  check_int "same size" n (Key_pool.available (Engine.bob_pool eng));
  let a = Key_pool.consume (Engine.alice_pool eng) n in
  let b = Key_pool.consume (Engine.bob_pool eng) n in
  check "identical bits" true (Bs.equal a b)

let test_engine_detects_tampering () =
  let eng = Engine.create Engine.default_config in
  match Engine.run_round ~tamper:true eng ~pulses:200_000 with
  | Error Engine.Auth_tampered -> ()
  | Ok _ -> Alcotest.fail "tampering not detected"
  | Error f -> Alcotest.failf "unexpected failure: %a" Engine.pp_failure f

let test_engine_eve_intercept_raises_qber_kills_key () =
  let config =
    {
      Engine.default_config with
      Engine.link = { Link.darpa_default with Link.eve = Eve.Intercept_resend 1.0 };
    }
  in
  let eng = Engine.create config in
  match Engine.run_round eng ~pulses:1_000_000 with
  | Ok m ->
      check "qber blown up" true (m.Engine.qber > 0.2);
      check_int "no key distilled" 0 m.Engine.distilled_bits
  | Error Engine.Ec_not_verified ->
      (* acceptable: EC may fail outright at 28% error *)
      ()
  | Error f -> Alcotest.failf "unexpected: %a" Engine.pp_failure f

let test_engine_auth_exhaustion_without_yield () =
  (* Small rounds never distill; the pre-positioned pool drains and the
     engine reports the DoS. *)
  let config = { Engine.default_config with Engine.auth_prepositioned_bits = 512 } in
  let eng = Engine.create config in
  let rec drive n =
    if n = 0 then Alcotest.fail "never exhausted"
    else
      match Engine.run_round eng ~pulses:50_000 with
      | Error Engine.Auth_exhausted -> ()
      | Ok _ | Error _ -> drive (n - 1)
  in
  drive 10

let test_engine_beamsplit_eve_knows_bits () =
  let config =
    {
      Engine.default_config with
      Engine.link = { Link.darpa_default with Link.eve = Eve.Beamsplit };
    }
  in
  let eng = Engine.create config in
  match Engine.run_round eng ~pulses:1_000_000 with
  | Ok m ->
      check "eve knows some sifted bits" true (m.Engine.eve_known_sifted_bits > 0);
      (* multiphoton accounting must charge at least Eve's actual haul
         on average; generous bound here *)
      check "accounting covers haul" true
        (m.Engine.entropy.Entropy.multiphoton_leak
        > 0.5 *. float_of_int m.Engine.eve_known_sifted_bits)
  | Error f -> Alcotest.failf "round failed: %a" Engine.pp_failure f

let test_engine_parity_baseline_diverges () =
  (* the conventional parity baseline misses even-weight residuals:
     over a few rounds either the verify parity trips (round aborted)
     or the two ends silently distil DIFFERENT keys *)
  let config = { Engine.default_config with Engine.ec = Engine.Ec_parity_checks } in
  let engine = Engine.create config in
  let diverged = ref false and aborted = ref 0 in
  for _ = 1 to 8 do
    match Engine.run_round engine ~pulses:1_000_000 with
    | Ok _ ->
        let n =
          min
            (Key_pool.available (Engine.alice_pool engine))
            (Key_pool.available (Engine.bob_pool engine))
        in
        if n > 0 then begin
          let a = Key_pool.consume (Engine.alice_pool engine) n in
          let b = Key_pool.consume (Engine.bob_pool engine) n in
          if not (Bs.equal a b) then diverged := true
        end
    | Error Engine.Ec_not_verified -> incr aborted
    | Error _ -> ()
  done;
  check "baseline fails somehow" true (!diverged || !aborted > 0)

let test_engine_running_qber_estimate_helps () =
  (* with the running estimate, later rounds size their first EC pass
     correctly and disclose no more than the first round did *)
  let engine = Engine.create Engine.default_config in
  let disclosures = ref [] in
  for _ = 1 to 3 do
    match Engine.run_round engine ~pulses:1_000_000 with
    | Ok m ->
        disclosures :=
          (float_of_int m.Engine.disclosed_bits /. float_of_int m.Engine.sifted_bits)
          :: !disclosures
    | Error f -> Alcotest.failf "round failed: %a" Engine.pp_failure f
  done;
  match List.rev !disclosures with
  | first :: rest ->
      List.iter (fun later -> check "no worse than round 1" true (later < first +. 0.05)) rest
  | [] -> Alcotest.fail "no rounds"

let test_engine_channel_bytes_metered () =
  let eng = Engine.create Engine.default_config in
  match Engine.run_round eng ~pulses:1_000_000 with
  | Ok m -> check "bytes counted" true (m.Engine.channel_bytes > 1000)
  | Error f -> Alcotest.failf "round failed: %a" Engine.pp_failure f

(* -- Staged kernels + engine bugfix regressions -- *)

(* A Cascade config that corrects nothing but still runs the full
   verification stage: any round with errors deterministically fails
   verification, forcing [Ec_not_verified]. *)
let no_correction_cascade =
  {
    Cascade.subsets_per_round = 0;
    max_rounds = 0;
    clean_rounds = 0;
    verify_subsets = 16;
    block_passes = 0;
  }

let test_engine_failed_ec_preserves_qber_chain () =
  let config =
    { Engine.default_config with Engine.cascade = no_correction_cascade }
  in
  let eng = Engine.create config in
  (match Engine.run_round eng ~pulses:500_000 with
  | Error Engine.Ec_not_verified -> ()
  | Ok _ -> Alcotest.fail "crippled cascade should not verify"
  | Error f -> Alcotest.failf "unexpected failure: %a" Engine.pp_failure f);
  check "failed round leaves the QBER chain untouched" true
    (Engine.last_qber eng = None);
  (* and a verified round feeds it with its measured rate *)
  let healthy = Engine.create Engine.default_config in
  match Engine.run_round healthy ~pulses:2_000_000 with
  | Ok m -> check "chain fed on success" true
      (Engine.last_qber healthy = Some m.Engine.qber)
  | Error f -> Alcotest.failf "round failed: %a" Engine.pp_failure f

let test_engine_zero_elapsed_round_guarded () =
  (* an infinite-rate link produces a zero-duration batch; the
     throughput fields must clamp to 0 rather than emit inf/nan (which
     would poison the health-series histograms and crash
     Stats.percentile) *)
  let config =
    {
      Engine.default_config with
      Engine.link = { Link.darpa_default with Link.pulse_rate_hz = infinity };
    }
  in
  let eng = Engine.create config in
  match Engine.run_round eng ~pulses:1_000_000 with
  | Ok m ->
      check "elapsed is exactly zero" true (m.Engine.elapsed_s = 0.0);
      check "sifted_bps clamped" true (m.Engine.sifted_bps = 0.0);
      check "distilled_bps clamped" true (m.Engine.distilled_bps = 0.0)
  | Error f -> Alcotest.failf "round failed: %a" Engine.pp_failure f

let test_engine_round_counters_reconcile () =
  let eng = Engine.create Engine.default_config in
  (match Engine.run_round ~tamper:true eng ~pulses:200_000 with
  | Error Engine.Auth_tampered -> ()
  | _ -> Alcotest.fail "expected tamper abort");
  check_int "aborted round attempted" 1 (Engine.rounds_attempted eng);
  check_int "aborted round not completed" 0 (Engine.rounds_completed eng);
  check_int "aborted round counted failed" 1 (Engine.rounds_failed eng);
  (match Engine.run_round eng ~pulses:2_000_000 with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "round failed: %a" Engine.pp_failure f);
  check_int "attempted counts both" 2 (Engine.rounds_attempted eng);
  check_int "completed counts success" 1 (Engine.rounds_completed eng);
  check_int "failed unchanged by success" 1 (Engine.rounds_failed eng)

(* Everything the reproducibility contract promises: per-round
   results, both pools' contents, both ends' auth spend/replenishment,
   the QBER chain and the round counters.  Draining the pools makes
   the comparison cover the actual key bits, not just counts. *)
let engine_state_fingerprint eng =
  let drain p =
    let n = Key_pool.available p in
    (n, Key_pool.consume p n)
  in
  ( drain (Engine.alice_pool eng),
    drain (Engine.bob_pool eng),
    Auth.consumed_bits (Engine.alice_auth eng),
    Auth.consumed_bits (Engine.bob_auth eng),
    Auth.replenished_bits (Engine.alice_auth eng),
    Auth.replenished_bits (Engine.bob_auth eng),
    Engine.last_qber eng,
    Engine.rounds_completed eng,
    Engine.rounds_failed eng )

let run_serial config ~seed ~rounds ~pulses ~tamper =
  let eng = Engine.create ~seed config in
  let acc = ref [] in
  for _ = 1 to rounds do
    acc := Engine.run_round ~tamper eng ~pulses :: !acc
  done;
  (eng, List.rev !acc)

(* Frame sharding must not change anything the engine commits: the
   same seeded rounds at one link domain and at two or three, with Eve
   on and off. *)
let prop_link_domains_bit_identical =
  QCheck.Test.make ~count:8
    ~name:"link-domain invariance"
    QCheck.(triple (int_bound 1000) (int_range 2 3) bool)
    (fun (seed, domains, eve) ->
      let config domains =
        {
          Engine.default_config with
          Engine.link =
            {
              Link.darpa_default with
              Link.eve = (if eve then Eve.Intercept_resend 1.0 else Eve.Passive);
            };
          link_mode = Link.Batched { domains };
        }
      in
      let seed = Int64.of_int ((seed * 13) + 11) in
      let rounds = 4 and pulses = 60_000 in
      let e1, r1 = run_serial (config 1) ~seed ~rounds ~pulses ~tamper:false in
      let e2, r2 =
        run_serial (config domains) ~seed ~rounds ~pulses ~tamper:false
      in
      r1 = r2 && engine_state_fingerprint e1 = engine_state_fingerprint e2)

let test_aborted_round_commits_nothing () =
  (* tampered rounds are caught at commit: no pool fill, no auth
     replenishment, and only the failure counter advances *)
  let rounds = 3 in
  let eng, results =
    run_serial Engine.default_config ~seed:2003L ~rounds ~pulses:200_000
      ~tamper:true
  in
  check_int "three results" rounds (List.length results);
  List.iter
    (function
      | Error Engine.Auth_tampered -> ()
      | Ok _ -> Alcotest.fail "tampered round completed"
      | Error f -> Alcotest.failf "unexpected failure: %a" Engine.pp_failure f)
    results;
  check_int "no key committed (alice)" 0
    (Key_pool.available (Engine.alice_pool eng));
  check_int "no key committed (bob)" 0
    (Key_pool.available (Engine.bob_pool eng));
  check_int "nothing replenished (alice)" 0
    (Auth.replenished_bits (Engine.alice_auth eng));
  check_int "nothing replenished (bob)" 0
    (Auth.replenished_bits (Engine.bob_auth eng));
  check_int "no round completed" 0 (Engine.rounds_completed eng);
  check_int "all rounds failed" rounds (Engine.rounds_failed eng)

let () =
  Alcotest.run "qkd_protocol"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrips" `Quick test_wire_roundtrips;
          Alcotest.test_case "crc detects corruption" `Quick test_wire_crc_detects_corruption;
          Alcotest.test_case "bad magic" `Quick test_wire_bad_magic;
          Alcotest.test_case "too short" `Quick test_wire_too_short;
          Alcotest.test_case "encoded size" `Quick test_wire_encoded_size;
        ] );
      ( "sifting",
        [
          Alcotest.test_case "textbook ratio" `Quick test_sifting_textbook_ratio;
          Alcotest.test_case "sides agree" `Quick test_sifting_sides_agree_on_slots;
          Alcotest.test_case "basis filter" `Quick test_sifting_basis_filter;
          Alcotest.test_case "qber no eve" `Quick test_sifting_qber_small_without_eve;
          Alcotest.test_case "rle compression" `Slow test_sifting_report_is_compressed;
          Alcotest.test_case "counts consistent" `Quick test_sifting_counts_consistent;
          Alcotest.test_case "wrong message" `Quick test_sifting_wrong_message_type;
        ] );
      ( "cascade",
        [
          Alcotest.test_case "no errors" `Quick test_cascade_no_errors;
          Alcotest.test_case "corrects 5%" `Quick test_cascade_corrects_all_at_5pct;
          Alcotest.test_case "corrects 12%" `Quick test_cascade_corrects_high_error_rate;
          Alcotest.test_case "adaptive" `Quick test_cascade_adaptive_disclosure;
          Alcotest.test_case "vs shannon" `Quick test_cascade_efficiency_vs_shannon;
          Alcotest.test_case "empty" `Quick test_cascade_empty_input;
          Alcotest.test_case "single bit" `Quick test_cascade_single_bit;
          Alcotest.test_case "length mismatch" `Quick test_cascade_length_mismatch;
          Alcotest.test_case "deterministic" `Quick test_cascade_deterministic;
          qcheck prop_cascade_always_verifies;
        ] );
      ( "parity-ec",
        [
          Alcotest.test_case "corrects most" `Quick test_parity_ec_corrects_most;
          Alcotest.test_case "residual errors" `Quick test_parity_ec_leaves_residual_sometimes;
          Alcotest.test_case "worse than cascade" `Quick test_parity_ec_worse_than_cascade;
        ] );
      ( "entropy",
        [
          Alcotest.test_case "bennett no errors" `Quick test_entropy_bennett_no_errors;
          Alcotest.test_case "bennett formula" `Quick test_entropy_bennett_formula;
          Alcotest.test_case "slutsky bounds" `Quick test_entropy_slutsky_zero_and_third;
          Alcotest.test_case "slutsky conservative" `Quick test_entropy_slutsky_more_conservative;
          Alcotest.test_case "disclosure exact" `Quick test_entropy_disclosed_subtracted_exactly;
          Alcotest.test_case "nonrandom placeholder" `Quick test_entropy_nonrandom_placeholder;
          Alcotest.test_case "strict pns kills wcp" `Quick test_entropy_strict_pns_kills_wcp;
          Alcotest.test_case "entangled survives" `Quick test_entropy_entangled_immune_to_strict;
          Alcotest.test_case "confidence margin" `Quick test_entropy_confidence_margin;
          Alcotest.test_case "validation" `Quick test_entropy_validation;
          Alcotest.test_case "never negative" `Quick test_entropy_never_negative;
        ] );
      ( "privacy-amp",
        [
          Alcotest.test_case "length + agreement" `Quick test_pa_amplify_length_and_agreement;
          Alcotest.test_case "zero bits" `Quick test_pa_zero_bits;
          Alcotest.test_case "clamps" `Quick test_pa_clamps_to_input;
          Alcotest.test_case "chunking" `Quick test_pa_chunking_large_input;
          Alcotest.test_case "avalanche" `Quick test_pa_differing_inputs_decorrelate;
        ] );
      ( "key-pool",
        [
          Alcotest.test_case "fifo" `Quick test_pool_fifo_order;
          Alcotest.test_case "split chunks" `Quick test_pool_split_chunks;
          Alcotest.test_case "exhausted atomic" `Quick test_pool_exhausted_atomic;
          Alcotest.test_case "counters" `Quick test_pool_counters;
          Alcotest.test_case "restore round-trip" `Quick test_pool_restore_round_trip;
          qcheck prop_pool_round_trip_and_conservation;
          Alcotest.test_case "many small chunks fast" `Quick
            test_pool_many_small_chunks_fast;
        ] );
      ( "auth",
        [
          Alcotest.test_case "lockstep" `Quick test_auth_tag_verify_in_lockstep;
          Alcotest.test_case "forgery" `Quick test_auth_detects_forgery;
          Alcotest.test_case "exhaustion" `Quick test_auth_exhaustion;
          Alcotest.test_case "replenish" `Quick test_auth_replenish_restores;
          Alcotest.test_case "counters" `Quick test_auth_counters;
        ] );
      ( "qframe-properties",
        [
          qcheck
            (QCheck.Test.make ~name:"qframe roundtrip (generated)" ~count:200
               QCheck.(pair (list (int_bound 3)) small_nat)
               (fun (symbols, seq) ->
                 let f =
                   {
                     Qframe.side = (if seq mod 2 = 0 then Qframe.Alice_frames else Qframe.Bob_frames);
                     seq;
                     first_slot = seq * 4096;
                     symbols = Array.of_list symbols;
                   }
                 in
                 Qframe.decode (Qframe.encode f) = f));
          qcheck
            (QCheck.Test.make ~name:"cascade disclosure monotone-ish in errors"
               ~count:15
               QCheck.(int_range 0 40)
               (fun epermille ->
                 (* disclosure at rate p never beats rate p + 4% by much *)
                 let p = float_of_int epermille /. 1000.0 in
                 let rng = Rng.create (Int64.of_int (epermille + 7)) in
                 let alice = Rng.bits rng 2048 in
                 let noisy q =
                   let bob = Bs.copy alice in
                   for i = 0 to 2047 do
                     if Rng.bernoulli rng q then Bs.flip bob i
                   done;
                   (Cascade.reconcile Cascade.default_config ~alice ~bob).Cascade.disclosed_bits
                 in
                 noisy p <= noisy (p +. 0.04) + 200));
        ] );
      ( "qframe",
        [
          Alcotest.test_case "roundtrip" `Quick test_qframe_roundtrip;
          Alcotest.test_case "crc" `Quick test_qframe_crc;
          Alcotest.test_case "covers link" `Quick test_qframe_covers_link;
          Alcotest.test_case "bob symbols" `Quick test_qframe_bob_symbols_match_detections;
          Alcotest.test_case "missing detection" `Quick test_qframe_missing_detection;
          Alcotest.test_case "bad symbol" `Quick test_qframe_bad_symbol;
        ] );
      ( "randomness",
        [
          Alcotest.test_case "fair bits pass" `Quick test_randomness_fair_bits_pass;
          Alcotest.test_case "biased bits fail" `Quick test_randomness_biased_bits_fail;
          Alcotest.test_case "constant fails" `Quick test_randomness_constant_fails_hard;
          Alcotest.test_case "alternating fails" `Quick test_randomness_alternating_fails;
          Alcotest.test_case "short tolerant" `Quick test_randomness_short_input_tolerant;
          Alcotest.test_case "bias measure" `Quick test_randomness_bias_measure;
          Alcotest.test_case "engine detects bias" `Slow test_randomness_engine_bias_detected;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delivers key" `Slow test_engine_round_delivers_key;
          Alcotest.test_case "pools identical" `Slow test_engine_pools_identical;
          Alcotest.test_case "detects tampering" `Quick test_engine_detects_tampering;
          Alcotest.test_case "eve kills key" `Slow test_engine_eve_intercept_raises_qber_kills_key;
          Alcotest.test_case "auth exhaustion" `Quick test_engine_auth_exhaustion_without_yield;
          Alcotest.test_case "beamsplit accounting" `Slow test_engine_beamsplit_eve_knows_bits;
          Alcotest.test_case "parity baseline diverges" `Slow test_engine_parity_baseline_diverges;
          Alcotest.test_case "running qber estimate" `Slow test_engine_running_qber_estimate_helps;
          Alcotest.test_case "channel metered" `Slow test_engine_channel_bytes_metered;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "failed EC preserves qber chain" `Slow
            test_engine_failed_ec_preserves_qber_chain;
          Alcotest.test_case "zero-elapsed round guarded" `Slow
            test_engine_zero_elapsed_round_guarded;
          Alcotest.test_case "round counters reconcile" `Slow
            test_engine_round_counters_reconcile;
          qcheck prop_link_domains_bit_identical;
          Alcotest.test_case "aborted round commits nothing" `Slow
            test_aborted_round_commits_nothing;
        ] );
    ]
