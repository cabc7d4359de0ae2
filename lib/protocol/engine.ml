module Bitstring = Qkd_util.Bitstring
module Rng = Qkd_util.Rng
module Link = Qkd_photonics.Link
module Eve = Qkd_photonics.Eve
module Obs = Qkd_obs

type ec_algorithm = Ec_cascade | Ec_parity_checks

type config = {
  link : Link.config;
  link_mode : Link.mode;
      (** execution strategy for the photonics hot path; the default
          batched mode is bit-identical for any domain count *)
  cascade : Cascade.config;
  ec : ec_algorithm;
  defense : Entropy.defense;
  accounting : Entropy.multiphoton_accounting;
  confidence : float;
  nonrandom_measure : int;
  randomness_testing : bool;
  auth_prepositioned_bits : int;
}

let default_config =
  {
    link = Link.darpa_default;
    link_mode = Link.default_mode;
    cascade = Cascade.default_config;
    ec = Ec_cascade;
    defense = Entropy.Bennett;
    accounting = Entropy.Beamsplit_only;
    confidence = 5.0;
    nonrandom_measure = 0;
    randomness_testing = true;
    auth_prepositioned_bits = 4096;
  }

type failure = Auth_exhausted | Auth_tampered | Ec_not_verified

let pp_failure ppf = function
  | Auth_exhausted -> Format.pp_print_string ppf "authentication key exhausted"
  | Auth_tampered -> Format.pp_print_string ppf "message forged: tag mismatch"
  | Ec_not_verified -> Format.pp_print_string ppf "error correction verify failed"

type round_metrics = {
  pulses : int;
  gated_pulses : int;
  detections : int;
  double_clicks : int;
  frames_lost : int;
  sifted_bits : int;
  qber : float;
  errors_corrected : int;
  disclosed_bits : int;
  entropy : Entropy.estimate;
  distilled_bits : int;
  auth_bits_consumed : int;
  channel_bytes : int;
  elapsed_s : float;
  sifted_bps : float;
  distilled_bps : float;
  eve_known_sifted_bits : int;
}

let pp_round_metrics ppf m =
  Format.fprintf ppf
    "@[<v>pulses %d; detections %d; sifted %d; QBER %.2f%%;@ corrected %d; \
     disclosed %d; secure %d; distilled %d;@ channel %d B; sifted %.0f b/s; \
     distilled %.0f b/s@]"
    m.pulses m.detections m.sifted_bits (100.0 *. m.qber) m.errors_corrected
    m.disclosed_bits m.entropy.Entropy.secure_bits m.distilled_bits
    m.channel_bytes m.sifted_bps m.distilled_bps

type t = {
  mutable config : config;
  rng : Rng.t;
  alice_auth : Auth.t;
  bob_auth : Auth.t;
  alice_pool : Key_pool.t;
  bob_pool : Key_pool.t;
  mutable rounds_completed : int;
  mutable rounds_failed : int;
  mutable last_qber : float option;  (** running estimate feeding EC *)
}

let create ?(seed = 2003L) config =
  let rng = Rng.create seed in
  let preposition = Rng.bits rng config.auth_prepositioned_bits in
  {
    config;
    rng;
    alice_auth = Auth.create ~prepositioned:(Bitstring.copy preposition);
    bob_auth = Auth.create ~prepositioned:preposition;
    alice_pool = Key_pool.create ();
    bob_pool = Key_pool.create ();
    rounds_completed = 0;
    rounds_failed = 0;
    last_qber = None;
  }

let config t = t.config

(* Campaign harnesses swap the optical conditions between rounds —
   eavesdropper on/off, drift residuals, source brightness — while the
   protocol state (auth pools, key pools, RNG lineage) persists. *)
let set_link t link = t.config <- { t.config with link }

let alice_pool t = t.alice_pool
let bob_pool t = t.bob_pool
let alice_auth t = t.alice_auth
let bob_auth t = t.bob_auth
let rounds_completed t = t.rounds_completed
let rounds_failed t = t.rounds_failed
let rounds_attempted t = t.rounds_completed + t.rounds_failed
let last_qber t = t.last_qber

(* Authenticate one direction of a protocol transaction: the sender
   tags [payload], the receiver verifies.  [tampered] flips a payload
   byte in flight. *)
let authenticated_transfer ~sender ~receiver ~tampered payload =
  match Auth.tag sender payload with
  | Error Auth.Pool_exhausted -> Error Auth_exhausted
  | Error Auth.Tag_mismatch -> assert false
  | Ok tag_msg ->
      let delivered =
        if tampered && Bytes.length payload > 0 then begin
          let b = Bytes.copy payload in
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x01));
          b
        end
        else payload
      in
      (match Auth.verify receiver ~tag:tag_msg delivered with
      | Ok () -> Ok (Wire.encoded_size tag_msg)
      | Error Auth.Tag_mismatch -> Error Auth_tampered
      | Error Auth.Pool_exhausted -> Error Auth_exhausted)

let ( let* ) = Result.bind

(* ---- Staged distillation kernels -----------------------------------

   One round decomposes into three pure compute stages plus a commit:

     link+sift ──▶ EC+entropy ──▶ privacy amp ──▶ commit
      (seeded)      (seeded)       (seeded)      (ordered)

   Each stage is a function of its inputs and a per-round seed derived
   from one draw on the engine RNG, never of the engine's mutable
   state — except the EC stage, which consumes the running QBER
   estimate as an explicit chained value.  All side effects live in
   [commit_round], so a round's result depends only on the engine
   state at its start and its seed, whatever the link's domain
   count. *)

type seeds = { link_seed : int64; ec_seed : int64; pa_seed : int64 }

(* One draw per round, in round order, fanned into independent streams
   with [Rng.derive] — the anchor of the determinism contract.  A
   kernel that changes its own draw order cannot shift another stage's
   stream or a later round's seed. *)
let derive_seeds round_seed =
  {
    link_seed = Rng.int64 (Rng.derive round_seed 1L);
    ec_seed = Rng.int64 (Rng.derive round_seed 2L);
    pa_seed = Rng.int64 (Rng.derive round_seed 3L);
  }

type linked = {
  round_pulses : int;
  link : Link.result;
  sift : Sifting.outcome;
  report_payload : bytes;
  response_payload : bytes;
  eve_known : int;
}

let stage_link (config : config) ~pulses ~seeds =
  let link =
    Obs.Trace.with_span "engine_link" (fun () ->
        Link.run ~seed:seeds.link_seed ~mode:config.link_mode config.link
          ~pulses)
  in
  let sift = Obs.Trace.with_span "engine_sift" (fun () -> Sifting.sift link) in
  let report = Sifting.bob_report link in
  let report_payload =
    match report with
    | Wire.Sift_report _ as m -> Wire.encode m
    | _ -> assert false
  in
  let response_payload = Wire.encode (Sifting.alice_response link report) in
  let eve_known =
    Eve.bits_known link.Link.eve
      ~alice_basis:(Link.alice_basis link)
      ~alice_value:(Link.alice_value link)
      ~sifted_slots:(Array.to_list sift.Sifting.slots)
  in
  { round_pulses = pulses; link; sift; report_payload; response_payload; eve_known }

type reconciled = {
  ec_corrected : Bitstring.t;
  ec_errors : int;
  ec_disclosed : int;
  ec_bytes : int;
  ec_verified : bool;
  entropy : Entropy.estimate option;  (** [Some] exactly when verified *)
}

(* Error correction on the sifted strings (runs before the tags so
   each direction's whole round transcript can be authenticated with a
   single Wegman-Carter tag — "a complete authenticated conversation",
   amortising the secret-bit cost).  [estimated_qber] — the running
   estimate from the previous round — sizes the first pass; the
   returned value is the estimate the NEXT round should use.  A round
   whose verification fails leaves the estimate unchanged: its error
   count is untrustworthy (that is what the failed parities say), and
   letting it skew the chain would contradict the "failed rounds never
   skew series" contract below. *)
let stage_ec (config : config) ~estimated_qber ~seeds (l : linked) =
  let ec_corrected, ec_errors, ec_disclosed, ec_bytes, ec_verified =
    Obs.Trace.with_span "engine_ec" @@ fun () ->
    match config.ec with
    | Ec_cascade ->
        let r =
          Cascade.reconcile ~seed:seeds.ec_seed ?estimated_qber config.cascade
            ~alice:l.sift.Sifting.alice_bits ~bob:l.sift.Sifting.bob_bits
        in
        ( r.Cascade.corrected,
          r.Cascade.errors_corrected,
          r.Cascade.disclosed_bits,
          r.Cascade.bytes_on_channel,
          r.Cascade.verified )
    | Ec_parity_checks ->
        let r =
          Parity_ec.reconcile ~seed:seeds.ec_seed Parity_ec.default_config
            ~estimated_qber:(Option.value estimated_qber ~default:0.08)
            ~alice:l.sift.Sifting.alice_bits ~bob:l.sift.Sifting.bob_bits
        in
        ( r.Parity_ec.corrected,
          r.Parity_ec.errors_corrected,
          r.Parity_ec.disclosed_bits,
          r.Parity_ec.bytes_on_channel,
          (* the baseline's only confirmation is a single whole-string
             parity: even-weight residuals slip through "verified" —
             which is exactly the §7 hazard the experiments exercise *)
          not r.Parity_ec.residual_mismatch )
  in
  let sifted_n = Array.length l.sift.Sifting.slots in
  let next_qber =
    if ec_verified && sifted_n > 0 then
      Some (float_of_int ec_errors /. float_of_int sifted_n)
    else estimated_qber
  in
  (* Entropy estimation on what the protocol observed.  The
     non-randomness measure r comes from live testing of the
     error-corrected bits when enabled (each side tests its own copy;
     they agree after reconciliation), plus any configured static
     charge.  Skipped when verification failed — the round is doomed
     to abort and its corrected string is not trustworthy input. *)
  let entropy =
    if not ec_verified then None
    else begin
      let r_measured =
        if config.randomness_testing then
          (Randomness.test ec_corrected).Randomness.shorten_bits
        else 0
      in
      Some
        (Entropy.estimate ~defense:config.defense ~accounting:config.accounting
           ~confidence:config.confidence
           {
             Entropy.b = sifted_n;
             e = ec_errors;
             n = l.round_pulses;
             d = ec_disclosed;
             r = config.nonrandom_measure + r_measured;
             source = config.link.Link.source;
           })
    end
  in
  ( { ec_corrected; ec_errors; ec_disclosed; ec_bytes; ec_verified; entropy },
    next_qber )

type amplified = { pa : Privacy_amp.result; bob_distilled : Bitstring.t }

(* Privacy amplification: Alice chooses the hash and applies it to HER
   string; Bob applies the same parameters to his corrected string.
   If error correction left undetected residuals the two distillates
   differ — and everything downstream (auth pools, key pools, the VPN)
   inherits that divergence honestly. *)
let stage_pa ~seeds (l : linked) (r : reconciled) =
  match r.entropy with
  | None -> None
  | Some entropy ->
      Obs.Trace.with_span "engine_pa" @@ fun () ->
      let pa =
        Privacy_amp.amplify_seeded ~seed:seeds.pa_seed
          ~bits:l.sift.Sifting.alice_bits
          ~secure_bits:entropy.Entropy.secure_bits
      in
      Some
        {
          pa;
          bob_distilled =
            Privacy_amp.apply_params pa.Privacy_amp.params_messages
              r.ec_corrected;
        }

(* A zero-duration batch (infinite-rate link) must not launder an
   inf/nan into the throughput histograms — Stats.percentile rejects
   NaN samples, so one poisoned observation would crash every later
   health-series read. *)
let per_simulated_second n elapsed_s =
  if elapsed_s > 0.0 then float_of_int n /. elapsed_s else 0.0

(* The commit applies a round's side effects — authentication spend,
   auth replenishment, pool fill, the QBER chain — against the engine
   state.  They all live here, so the kernels above stay pure. *)
let commit_round ~tamper t (l : linked) (r : reconciled)
    (p : amplified option) ~next_qber =
  t.last_qber <- next_qber;
  let* () = if r.ec_verified then Ok () else Error Ec_not_verified in
  let auth_before =
    Auth.consumed_bits t.alice_auth + Auth.consumed_bits t.bob_auth
  in
  (* Bob's side of the conversation: sift report + his EC echoes. *)
  let* tag1 =
    authenticated_transfer ~sender:t.bob_auth ~receiver:t.alice_auth
      ~tampered:tamper l.report_payload
  in
  let { pa; bob_distilled } =
    match p with Some p -> p | None -> assert false (* verified ⇒ amplified *)
  in
  let entropy =
    match r.entropy with Some e -> e | None -> assert false
  in
  let pa_payload =
    Bytes.concat Bytes.empty
      (List.map Wire.encode pa.Privacy_amp.params_messages)
  in
  (* Alice's side: sift response + her EC parities + PA parameters. *)
  let* tag2 =
    authenticated_transfer ~sender:t.alice_auth ~receiver:t.bob_auth
      ~tampered:false (Bytes.cat l.response_payload pa_payload)
  in
  (* Replenish authentication first, then deliver the remainder; each
     side pays from its own distillate. *)
  let alice_distilled = pa.Privacy_amp.distilled in
  let auth_spent_each =
    (Auth.consumed_bits t.alice_auth + Auth.consumed_bits t.bob_auth
   - auth_before)
    / 2
  in
  let replenish_amount =
    min (Bitstring.length alice_distilled) auth_spent_each
  in
  let split side =
    ( Bitstring.sub side 0 replenish_amount,
      Bitstring.sub side replenish_amount
        (Bitstring.length side - replenish_amount) )
  in
  let alice_replenish, alice_delivered = split alice_distilled in
  let bob_replenish, bob_delivered = split bob_distilled in
  Auth.replenish t.alice_auth alice_replenish;
  Auth.replenish t.bob_auth bob_replenish;
  Key_pool.offer t.alice_pool alice_delivered;
  Key_pool.offer t.bob_pool bob_delivered;
  let delivered = alice_delivered in
  let sifted_n = Array.length l.sift.Sifting.slots in
  let qber =
    if sifted_n = 0 then 0.0
    else float_of_int r.ec_errors /. float_of_int sifted_n
  in
  let channel_bytes =
    l.sift.Sifting.report_bytes + l.sift.Sifting.response_bytes + r.ec_bytes
    + pa.Privacy_amp.bytes_on_channel + tag1 + tag2
  in
  Ok
    {
      pulses = l.round_pulses;
      gated_pulses = l.link.Link.gated_pulses;
      detections = l.sift.Sifting.detections;
      double_clicks = l.sift.Sifting.double_clicks;
      frames_lost = l.link.Link.frames_lost;
      sifted_bits = sifted_n;
      qber;
      errors_corrected = r.ec_errors;
      disclosed_bits = r.ec_disclosed;
      entropy;
      distilled_bits = Bitstring.length delivered;
      auth_bits_consumed =
        Auth.consumed_bits t.alice_auth + Auth.consumed_bits t.bob_auth
        - auth_before;
      channel_bytes;
      elapsed_s = l.link.Link.elapsed_s;
      sifted_bps = per_simulated_second sifted_n l.link.Link.elapsed_s;
      distilled_bps =
        per_simulated_second (Bitstring.length delivered)
          l.link.Link.elapsed_s;
      eve_known_sifted_bits = l.eve_known;
    }

let failure_reason = function
  | Auth_exhausted -> "auth_exhausted"
  | Auth_tampered -> "auth_tampered"
  | Ec_not_verified -> "ec_not_verified"

(* Throughput/quality series are fed only from completed rounds, so a
   tampered or exhausted round can never skew them — its trace is the
   [engine_rounds_failed{reason}] counter. *)
let observe_round (m : round_metrics) =
  let open Obs in
  Counter.add
    (Registry.counter "protocol_sifted_bits_total"
       ~help:"Sifted bits accumulated over completed rounds")
    m.sifted_bits;
  Counter.add
    (Registry.counter "protocol_errors_corrected_total"
       ~help:"Bit errors corrected by error correction")
    m.errors_corrected;
  Counter.add
    (Registry.counter "protocol_disclosed_bits_total"
       ~help:"Parity bits disclosed on the public channel")
    m.disclosed_bits;
  Counter.add
    (Registry.counter "protocol_distilled_bits_total"
       ~help:"Distilled key bits delivered to the key pools")
    m.distilled_bits;
  Counter.add
    (Registry.counter "protocol_auth_bits_consumed_total"
       ~help:"Wegman-Carter authentication bits spent")
    m.auth_bits_consumed;
  Counter.add
    (Registry.counter "protocol_channel_bytes_total"
       ~help:"Bytes exchanged on the classical channel")
    m.channel_bytes;
  Histogram.observe
    (Registry.histogram "protocol_qber_ratio"
       ~buckets:Histogram.ratio_buckets
       ~help:"Per-round quantum bit error rate")
    m.qber;
  Histogram.observe
    (Registry.histogram "protocol_sifted_bps" ~buckets:Histogram.size_buckets
       ~help:"Per-round sifted throughput (bits per simulated second)")
    m.sifted_bps;
  Histogram.observe
    (Registry.histogram "protocol_distilled_bps"
       ~buckets:Histogram.size_buckets
       ~help:"Per-round distilled throughput (bits per simulated second)")
    m.distilled_bps;
  Trace.record_sim "engine_round" m.elapsed_s

(* Book-keeping for one attempted round: the completed/failed counters
   (engine state and registry) and the completed-round series. *)
let record_outcome t = function
  | Ok m ->
      t.rounds_completed <- t.rounds_completed + 1;
      observe_round m
  | Error f ->
      t.rounds_failed <- t.rounds_failed + 1;
      Obs.Counter.incr
        (Obs.Registry.counter "engine_rounds_failed"
           ~labels:[ ("reason", failure_reason f) ]
           ~help:"Protocol rounds aborted, by failure reason")

(* The round's wide event: one record per attempted round, emitted
   into the engine lane after the outcome is booked, so lane order IS
   commit order.  [stage_s] = wall latencies [link; ec; pa; commit]. *)
let emit_round_event ~id ~trace ~durs res =
  let qber, bits, verdict =
    match res with
    | Ok m -> (m.qber, m.distilled_bits, "ok")
    | Error f -> (Float.nan, 0, failure_reason f)
  in
  Obs.Recorder.record ~lane:Obs.Recorder.lane_engine
    (Obs.Event.make ~source:Obs.Event.Round ~id ~trace ~stage_s:durs ~qber
       ~bits ~verdict ())

let run_round ?(tamper = false) ?(trace = Obs.Trace.null_id) t ~pulses =
  Obs.Counter.incr
    (Obs.Registry.counter "engine_rounds_total"
       ~help:"Protocol rounds attempted");
  (* Causal span: child of whatever request (scheduler attempt, VPN
     re-key) triggered this round.  Only recorded when a parent was
     threaded in — engine rounds outside a traced request stay silent. *)
  let span =
    if trace = Obs.Trace.null_id then Obs.Trace.null_id
    else Obs.Trace.span_begin ~parent:trace "engine_round"
  in
  (* Wall-clock stage latencies for the round event.  Timing uses the
     Trace clock only — no RNG, no engine state — so recording never
     perturbs the seeded bit stream. *)
  let durs = Array.make 4 0.0 in
  let timed i f =
    let t0 = Obs.Trace.now () in
    let r = f () in
    durs.(i) <- Float.max 0.0 (Obs.Trace.now () -. t0);
    r
  in
  let seeds = derive_seeds (Rng.int64 t.rng) in
  let l = timed 0 (fun () -> stage_link t.config ~pulses ~seeds) in
  let r, next_qber =
    timed 1 (fun () -> stage_ec t.config ~estimated_qber:t.last_qber ~seeds l)
  in
  let p = timed 2 (fun () -> stage_pa ~seeds l r) in
  let res = timed 3 (fun () -> commit_round ~tamper t l r p ~next_qber) in
  record_outcome t res;
  emit_round_event ~id:(rounds_attempted t) ~trace:span ~durs res;
  (match res with
  | Ok m ->
      Obs.Trace.span_note span "qber" (Printf.sprintf "%.4f" m.qber);
      Obs.Trace.span_note span "distilled_bits"
        (string_of_int m.distilled_bits)
  | Error f -> Obs.Trace.span_note span "failed" (failure_reason f));
  Obs.Trace.span_end span;
  res
