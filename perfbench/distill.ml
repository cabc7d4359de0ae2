(* Workload [distill]: back-to-back [Engine.run_round] on the DARPA link
   at 2M pulses a round, a closed loop with library defaults (batched
   link on one domain, pipeline depth 1).

   Why: link simulation is ~80% of a round, so this is where the sparse
   link kernel will show.  No routing, KMS or IKE runs; the key pools
   are only written. *)

open Common
module Engine = Qkd_protocol.Engine
module Key_pool = Qkd_protocol.Key_pool
module Sifting = Qkd_protocol.Sifting
module Cascade = Qkd_protocol.Cascade
module Privacy_amp = Qkd_protocol.Privacy_amp
module Entropy = Qkd_protocol.Entropy
module Randomness = Qkd_protocol.Randomness
module Link = Qkd_photonics.Link
module Bitstring = Qkd_util.Bitstring
module Rng = Qkd_util.Rng

let pulses = 2_000_000
let config = Engine.default_config
let sim_s_per_round = float_of_int pulses /. config.Engine.link.Link.pulse_rate_hz

(* [key_bits_per_sim_s] is taken over exactly these first rounds, which
   always run, so it repeats exactly for a seed whatever the host speed. *)
let key_rounds = 16

(* One round replayed as direct public calls, the same calls
   [Engine.run_round] makes, each under its own span and with its own
   minor-word count.  [qber] chains the previous replay's estimate into
   Cascade's first pass, as the engine does. *)
type replay = {
  mutable link_words : float;
  mutable sift_words : float;
  mutable n_pulses : int;
  mutable n_detections : int;
  mutable n_sifted : int;
  mutable n_disclosed : int;
  mutable n_distilled : int;
  mutable qber : float option;
}

let replay_state () =
  {
    link_words = 0.0;
    sift_words = 0.0;
    n_pulses = 0;
    n_detections = 0;
    n_sifted = 0;
    n_disclosed = 0;
    n_distilled = 0;
    qber = None;
  }

let replay_round tr st rng pool ~pulses =
  let link_seed = Rng.int64 rng and ec_seed = Rng.int64 rng and pa_seed = Rng.int64 rng in
  span tr "protocol.replay" @@ fun parent ->
  let link, w =
    span tr ~parent "photonics.link" (fun _ ->
        minor_words (fun () ->
            Link.run ~seed:link_seed ~mode:config.Engine.link_mode
              config.Engine.link ~pulses))
  in
  st.link_words <- st.link_words +. w;
  let sift, w =
    span tr ~parent "protocol.sift" (fun _ -> minor_words (fun () -> Sifting.sift link))
  in
  st.sift_words <- st.sift_words +. w;
  let sifted = Array.length sift.Sifting.slots in
  let ec =
    span tr ~parent "protocol.cascade" (fun _ ->
        Cascade.reconcile ~seed:ec_seed ?estimated_qber:st.qber config.Engine.cascade
          ~alice:sift.Sifting.alice_bits ~bob:sift.Sifting.bob_bits)
  in
  st.n_pulses <- st.n_pulses + pulses;
  st.n_detections <- st.n_detections + Array.length link.Link.detections;
  st.n_sifted <- st.n_sifted + sifted;
  st.n_disclosed <- st.n_disclosed + ec.Cascade.disclosed_bits;
  if ec.Cascade.verified && sifted > 0 then begin
    st.qber <- Some (ratio ec.Cascade.errors_corrected sifted);
    let est =
      Entropy.estimate ~defense:config.Engine.defense
        ~accounting:config.Engine.accounting ~confidence:config.Engine.confidence
        {
          Entropy.b = sifted;
          e = ec.Cascade.errors_corrected;
          n = pulses;
          d = ec.Cascade.disclosed_bits;
          r =
            config.Engine.nonrandom_measure
            + (if config.Engine.randomness_testing then
                 (Randomness.test ec.Cascade.corrected).Randomness.shorten_bits
               else 0);
          source = config.Engine.link.Link.source;
        }
    in
    let pa =
      span tr ~parent "protocol.pa" (fun _ ->
          Privacy_amp.amplify_seeded ~seed:pa_seed ~bits:sift.Sifting.alice_bits
            ~secure_bits:est.Entropy.secure_bits)
    in
    let distilled = pa.Privacy_amp.distilled in
    st.n_distilled <- st.n_distilled + Bitstring.length distilled;
    Key_pool.offer pool distilled
  end

(* Deterministic counts of a tiny run: engine rounds plus one replay
   with its per-layer minor words. *)
let fingerprint seed =
  let e = Engine.create ~seed:(Int64.of_int seed) config in
  let sifted = ref 0 and disclosed = ref 0 and distilled = ref 0 in
  for _ = 1 to 3 do
    match Engine.run_round e ~pulses:100_000 with
    | Ok m ->
        sifted := !sifted + m.Engine.sifted_bits;
        disclosed := !disclosed + m.Engine.disclosed_bits;
        distilled := !distilled + m.Engine.distilled_bits
    | Error _ -> ()
  done;
  let st = replay_state () in
  replay_round None st (Rng.create (Int64.of_int seed)) (Key_pool.create ()) ~pulses:100_000;
  [
    ("sifted_bits", !sifted);
    ("disclosed_bits", !disclosed);
    ("distilled_bits", !distilled);
    ("replay_sifted_bits", st.n_sifted);
    ("link_minor_words", int_of_float st.link_words);
    ("sift_minor_words", int_of_float st.sift_words);
  ]

let pools_identical e =
  let a = Engine.alice_pool e and b = Engine.bob_pool e in
  let n = Key_pool.available a in
  n = Key_pool.available b
  && Bitstring.equal (Key_pool.consume a n) (Key_pool.consume b n)

let run r ~seed ~seconds =
  determinism r fingerprint ~seed;
  (* Set-up is the engine plus its first round, which pays the
     first-use costs; measured rounds start warm. *)
  let (engine, warmup), su =
    setup ~seconds (fun () ->
        let e = Engine.create ~seed:(Int64.of_int seed) config in
        (e, Engine.run_round e ~pulses))
  in
  let rounds = samples () and traced_rounds = samples () in
  let tr = if r.traced then Some (tracer 100_000) else None in
  let st = replay_state () and replays = ref 0 in
  let replay_rng = Rng.create (Int64.of_int seed) and replay_pool = Key_pool.create () in
  let n = ref 0 and key_bits = ref 0 and bare_bits = ref 0 and op_words = ref 0.0 in
  let distilled =
    ref (match warmup with Ok m -> m.Engine.distilled_bits | Error _ -> 0)
  in
  (* The traced run takes turns: a bare round, a spanned round (the two
     give the overhead figure) and a replay, so all three see the same
     host load. *)
  let deadline = now () +. seconds and step = ref 0 in
  while !n < key_rounds || now () < deadline do
    setup_due su;
    let kind = if r.traced then !step mod 3 else 0 in
    incr step;
    if kind = 2 then begin
      replay_round tr st replay_rng replay_pool ~pulses;
      incr replays
    end
    else begin
      let spanned = kind = 1 in
      let (res, words), dt =
        timed (fun () ->
            span (if spanned then tr else None) "protocol.round" (fun _ ->
                minor_words (fun () -> Engine.run_round engine ~pulses)))
      in
      add (if spanned then traced_rounds else rounds) dt;
      if spanned then op_words := !op_words +. words;
      incr n;
      match res with
      | Ok m ->
          distilled := !distilled + m.Engine.distilled_bits;
          if not spanned then bare_bits := !bare_bits + m.Engine.distilled_bits;
          if !n <= key_rounds then key_bits := !key_bits + m.Engine.distilled_bits
      | Error _ -> ()
    end
  done;
  setup_done r su;
  r.attempted <- !n + 1;
  r.failed <- Engine.rounds_failed engine;
  check r "rounds_reconcile"
    (Engine.rounds_attempted engine = !n + 1
    && Engine.rounds_attempted engine
       = Engine.rounds_completed engine + Engine.rounds_failed engine);
  check r "offered_equals_distilled"
    (Key_pool.total_offered (Engine.alice_pool engine) = !distilled
    && Key_pool.total_offered (Engine.bob_pool engine) = !distilled);
  check r "pools_bit_identical" (pools_identical engine);
  detail r ~n:key_rounds "key_bits_per_sim_s" "bit/s"
    (float_of_int !key_bits /. (float_of_int key_rounds *. sim_s_per_round));
  match tr with
  | None ->
      let host_s = total rounds in
      metric r ~n:(count rounds) "throughput_per_s" "1/s"
        (float_of_int (pulses * count rounds) /. host_s);
      metric r ~n:(count rounds) "goodput_bits_per_s" "bit/s" (float_of_int !bare_bits /. host_s);
      metric r ~n:(count rounds) "op_p50_s" "s" (quantile rounds 50);
      latency r ~p50:"round_p50_s" ~p99:"round_p99_s" rounds
  | Some t ->
      layer_metrics r t ~target:"photonics.link" ~target_words:st.link_words
        ~op:"protocol.round" ~op_words:!op_words;
      let link = span_detail r t ~span:"photonics.link" "photonics.link_s" in
      detail r ~n:!replays "photonics.link_minor_words" "words"
        (st.link_words /. float_of_int !replays);
      detail r ~n:!replays "photonics.detections_per_pulse" "ratio"
        (ratio st.n_detections st.n_pulses);
      ignore (span_detail r t ~span:"protocol.sift" "protocol.sift_s");
      detail r ~n:!replays "protocol.sift_minor_words" "words"
        (st.sift_words /. float_of_int !replays);
      detail r ~n:!replays "protocol.sifted_per_detection" "ratio"
        (ratio st.n_sifted st.n_detections);
      ignore (span_detail r t ~span:"protocol.cascade" "protocol.cascade_s");
      detail r ~n:!replays "protocol.disclosed_per_sifted" "ratio"
        (ratio st.n_disclosed st.n_sifted);
      ignore (span_detail r t ~span:"protocol.pa" "protocol.pa_s");
      detail r ~n:!replays "protocol.distilled_per_sifted" "ratio"
        (ratio st.n_distilled st.n_sifted);
      let round = span_detail r t ~span:"protocol.round" "protocol.round_s" in
      detail r "photonics.link_share_of_round" "ratio"
        (quantile link 50 /. quantile round 50);
      overhead r ~untraced:rounds ~traced:traced_rounds;
      trace_totals r t
