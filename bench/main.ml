(* Benchmark & experiment driver.

     dune exec bench/main.exe            -- every experiment table + microbenches
     dune exec bench/main.exe -- e6      -- one experiment
     dune exec bench/main.exe -- micro   -- Bechamel microbenches only
     dune exec bench/main.exe -- tables  -- experiment tables only
     dune exec bench/main.exe -- <preset> [--quick] [--out FILE]
                                         -- one gated JSON record ([presets])

   Pass --metrics anywhere to dump the telemetry registry at exit. *)

module Bs = Qkd_util.Bitstring
module Rng = Qkd_util.Rng
open Bechamel
open Toolkit

(* -- Bechamel microbenches: one Test.make per performance-relevant
   primitive, so regressions in the hot paths are visible. -- *)

let bench_aes_block =
  let key = Qkd_crypto.Aes.expand_key (Rng.bytes (Rng.create 1L) 16) in
  let block = Rng.bytes (Rng.create 2L) 16 in
  Test.make ~name:"aes128-encrypt-block" (Staged.stage (fun () ->
      ignore (Qkd_crypto.Aes.encrypt_block key block)))

let bench_sha1 =
  let data = Rng.bytes (Rng.create 3L) 1024 in
  Test.make ~name:"sha1-1KiB" (Staged.stage (fun () ->
      ignore (Qkd_crypto.Sha1.digest data)))

let bench_hmac =
  let key = Rng.bytes (Rng.create 4L) 20 in
  let data = Rng.bytes (Rng.create 5L) 512 in
  Test.make ~name:"hmac-sha1-512B" (Staged.stage (fun () ->
      ignore (Qkd_crypto.Hmac.mac ~hash:Qkd_crypto.Hmac.SHA1 ~key data)))

let bench_gf_mul =
  let field = Qkd_crypto.Gf2.Field.create 1024 in
  let rng = Rng.create 6L in
  let a = Qkd_crypto.Gf2.Field.element_of_bits field (Rng.bits rng 1024) in
  let b = Qkd_crypto.Gf2.Field.element_of_bits field (Rng.bits rng 1024) in
  Test.make ~name:"gf2^1024-multiply" (Staged.stage (fun () ->
      ignore (Qkd_crypto.Gf2.Field.mul field a b)))

let bench_pa_hash =
  let rng = Rng.create 7L in
  let bits = Rng.bits rng 1000 in
  let params = Qkd_crypto.Universal_hash.pa_choose rng ~input_len:1000 ~m:500 in
  Test.make ~name:"privacy-amp-1000to500" (Staged.stage (fun () ->
      ignore (Qkd_crypto.Universal_hash.pa_apply params bits)))

let bench_wc_tag =
  let rng = Rng.create 8L in
  let key = Rng.bits rng Qkd_crypto.Universal_hash.key_bits_per_tag in
  let msg = Rng.bytes rng 4096 in
  Test.make ~name:"wegman-carter-tag-4KiB" (Staged.stage (fun () ->
      ignore (Qkd_crypto.Universal_hash.wc_tag ~key msg)))

let bench_cascade =
  let rng = Rng.create 9L in
  let alice = Rng.bits rng 4096 in
  let bob = Bs.copy alice in
  for i = 0 to 4095 do
    if Rng.bernoulli rng 0.065 then Bs.flip bob i
  done;
  Test.make ~name:"cascade-4096@6.5%" (Staged.stage (fun () ->
      ignore
        (Qkd_protocol.Cascade.reconcile Qkd_protocol.Cascade.default_config
           ~alice ~bob)))

let bench_lfsr_subset =
  Test.make ~name:"lfsr-subset-8192" (Staged.stage (fun () ->
      ignore (Qkd_util.Lfsr.subset 12345l ~len:8192)))

let bench_rle =
  let symbols = Array.make 100_000 0 in
  let rng = Rng.create 10L in
  for _ = 1 to 300 do
    symbols.(Rng.int rng 100_000) <- 1 + Rng.int rng 2
  done;
  Test.make ~name:"rle-encode-100k-sparse" (Staged.stage (fun () ->
      ignore (Qkd_util.Rle.encode symbols)))

let bench_link_100k =
  Test.make ~name:"link-sim-100k-pulses" (Staged.stage (fun () ->
      ignore
        (Qkd_photonics.Link.run ~seed:11L Qkd_photonics.Link.darpa_default
           ~pulses:100_000)))

let bench_esp_roundtrip =
  let rng = Rng.create 12L in
  let enc_key = Rng.bytes rng 16 in
  let auth_key = Rng.bytes rng 20 in
  let sa () =
    Qkd_ipsec.Sa.create ~spi:1l ~transform:Qkd_ipsec.Sa.Aes128_cbc ~enc_key
      ~auth_key
      ~lifetime:{ Qkd_ipsec.Sa.seconds = 1e9; kilobytes = max_int / 2048 }
      ~now:0.0 ~keyed_from_qkd:true ()
  in
  let tx = sa () and rx = sa () in
  let replay = Qkd_ipsec.Replay.create () in
  let packet =
    Qkd_ipsec.Packet.make
      ~src:(Qkd_ipsec.Packet.addr_of_string "10.1.0.5")
      ~dst:(Qkd_ipsec.Packet.addr_of_string "10.2.0.7")
      ~protocol:17 (Rng.bytes rng 512)
  in
  let outer_src = Qkd_ipsec.Packet.addr_of_string "192.1.99.34" in
  let outer_dst = Qkd_ipsec.Packet.addr_of_string "192.1.99.35" in
  Test.make ~name:"esp-tunnel-roundtrip-512B" (Staged.stage (fun () ->
      match Qkd_ipsec.Esp.encapsulate tx ~rng ~outer_src ~outer_dst packet with
      | Ok outer -> ignore (Qkd_ipsec.Esp.decapsulate rx ~replay outer)
      | Error _ -> ()))

let bench_dh =
  let rng = Rng.create 13L in
  Test.make ~name:"dh-oakley1-keygen" (Staged.stage (fun () ->
      ignore (Qkd_crypto.Dh.generate rng Qkd_crypto.Dh.Oakley1)))

let microbenches () =
  let tests =
    [
      bench_aes_block; bench_sha1; bench_hmac; bench_gf_mul; bench_pa_hash;
      bench_wc_tag; bench_cascade; bench_lfsr_subset; bench_rle;
      bench_link_100k; bench_esp_roundtrip; bench_dh;
    ]
  in
  Format.printf "@.==== Bechamel microbenches ====@.@.";
  let run test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
    let raw = Benchmark.all cfg instances test in
    let results =
      List.map (fun instance -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instance raw)
        instances
    in
    let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instances results in
    Hashtbl.iter
      (fun _meas tbl ->
        Hashtbl.iter
          (fun name result ->
            match Analyze.OLS.estimates result with
            | Some [ time_ns ] ->
                let pretty =
                  if time_ns > 1e6 then Printf.sprintf "%8.2f ms" (time_ns /. 1e6)
                  else if time_ns > 1e3 then Printf.sprintf "%8.2f us" (time_ns /. 1e3)
                  else Printf.sprintf "%8.0f ns" time_ns
                in
                Format.printf "%-32s %s/op@." name pretty
            | Some _ | None -> Format.printf "%-32s (no estimate)@." name)
          tbl)
      results
  in
  List.iter run tests

(* ==== Gated JSON records ====

   A preset runs one experiment and returns the members of its JSON
   record and its gates; [run_preset] writes the record, then checks
   the gates.  Every bound a gate checks is one named value, shared
   with the JSON bool that reports it. *)

module Link = Qkd_photonics.Link
module Engine = Qkd_protocol.Engine
module Recorder = Qkd_obs.Recorder

(* A gate: its name, whether it held, and what it measured. *)
type gate = string * bool * string

(* Wall-clock overhead bound of the instrumentation, the alert engine
   and the flight recorder (engine and KMS legs). *)
let overhead_bound = 1.05

(* The adversarial campaign harness: monitor live vs Control off. *)
let campaign_overhead_bound = 1.10

let ratio_gate name ratio bound : gate =
  (name, ratio < bound, Printf.sprintf "ratio %.4f, bound < %.2f" ratio bound)

let seconds f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Best-of-[reps] wall time of [f], with the last run's result. *)
let time_best ~reps f =
  let result = ref None and best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (seconds (fun () -> result := Some (f ())))
  done;
  (Option.get !result, !best)

(* The wall-clock cost of a feature: [run ~on] times one leg with the
   feature on or off and returns seconds.  After a warm-up leg, off and
   on legs alternate [reps] times (fair to CPU frequency drift) and the
   ratio is min(on) / min(off): noise only ever adds time, so the best
   leg of each mode is the steadiest estimate.  Each leg starts from a
   compacted heap, so no leg pays for another's garbage. *)
let overhead_ratio ~reps ~run =
  let leg on =
    Gc.compact ();
    run ~on
  in
  ignore (leg false);
  let best_off = ref infinity and best_on = ref infinity in
  for _ = 1 to reps do
    best_off := Float.min !best_off (leg false);
    best_on := Float.min !best_on (leg true)
  done;
  !best_on /. !best_off

let with_control on f =
  Qkd_obs.Control.set_enabled on;
  Fun.protect ~finally:(fun () -> Qkd_obs.Control.set_enabled true) f

let with_recording on f =
  Recorder.set_recording on;
  Fun.protect ~finally:(fun () -> Recorder.set_recording true) f

(* The engine-loop overhead legs (telemetry, alert engine, engine
   recorder): [engine_rounds] timed Engine.run_round calls at 10k
   pulses after one untimed round, in a fresh registry so an
   instrumented leg pays metric creation too.  [setup] runs first, in
   that registry, and returns a hook called after each timed round.
   --quick runs keep the full count: shorter legs are too noisy to
   gate. *)
let engine_rounds = 40
let engine_reps = 10

let engine_leg ?(setup = fun () _ -> ()) () =
  Qkd_obs.Registry.with_registry (Qkd_obs.Registry.create ()) (fun () ->
      let hook = setup () in
      let engine = Engine.create ~seed:2003L Engine.default_config in
      ignore (Engine.run_round engine ~pulses:10_000);
      seconds (fun () ->
          for i = 1 to engine_rounds do
            ignore (Engine.run_round engine ~pulses:10_000);
            hook i
          done))

(* Telemetry overhead: the engine loop with Qkd_obs.Control on vs off. *)
let obs_overhead_ratio () =
  Format.printf "instrumentation overhead (%d rounds, best of %d)...@."
    engine_rounds engine_reps;
  overhead_ratio ~reps:engine_reps ~run:(fun ~on ->
      with_control on (fun () -> engine_leg ()))

(* ---- "json": link fast-path timings (reference vs batched x
   domain count, with a bit-identity check across domain counts), a
   seeded protocol round's throughput, and the telemetry overhead. ---- *)

let same_link_result (a : Link.result) (b : Link.result) =
  Bs.equal a.alice_bases b.alice_bases
  && Bs.equal a.alice_values b.alice_values
  && a.detections = b.detections
  && a.frames_lost = b.frames_lost
  && a.gated_pulses = b.gated_pulses

let link_run ~reps pulses =
  Format.printf "link %d pulses: reference...@." pulses;
  let _, ref_s =
    time_best ~reps (fun () ->
        Link.run ~seed:42L ~mode:Link.Reference Link.darpa_default ~pulses)
  in
  let batched =
    List.map
      (fun domains ->
        Format.printf "link %d pulses: batched x%d domains...@." pulses domains;
        let r, s =
          time_best ~reps (fun () ->
              Link.run ~seed:42L ~mode:(Link.Batched { domains })
                Link.darpa_default ~pulses)
        in
        (domains, s, r))
      [ 1; 2; 4 ]
  in
  let _, _, first = List.hd batched in
  let identical =
    List.for_all (fun (_, _, r) -> same_link_result r first) batched
  in
  let pps s = Json.Float (0, float_of_int pulses /. s) in
  ( Json.(
      Obj
        [
          ("pulses", Int pulses);
          ("reference_s", Float (6, ref_s));
          ("reference_pulses_per_s", pps ref_s);
          ("bit_identical_across_domains", Bool identical);
          ( "batched",
            List
              (List.map
                 (fun (domains, s, _) ->
                   Obj
                     [
                       ("domains", Int domains);
                       ("seconds", Float (6, s));
                       ("pulses_per_s", pps s);
                       ("speedup_vs_reference", Float (2, ref_s /. s));
                     ])
                 batched) );
        ]),
    ( "bit_identical_across_domains",
      identical,
      Printf.sprintf "batched link at %d pulses, 1/2/4 domains" pulses ) )

let bench_json ~quick =
  let reps = if quick then 1 else 3 in
  let sizes = if quick then [ 100_000 ] else [ 100_000; 1_000_000 ] in
  let runs = List.map (link_run ~reps) sizes in
  let engine_pulses = if quick then 100_000 else 500_000 in
  Format.printf "engine round: %d pulses...@." engine_pulses;
  let engine = Engine.create ~seed:2003L Engine.default_config in
  let round, round_gate =
    match Engine.run_round engine ~pulses:engine_pulses with
    | Ok m ->
        ( Json.(
            Obj
              [
                ("pulses", Int m.Engine.pulses);
                ("gated_pulses", Int m.gated_pulses);
                ("sifted_bits", Int m.sifted_bits);
                ("distilled_bits", Int m.distilled_bits);
                ("qber", Float (5, m.qber));
                ("sifted_bps", Float (1, m.sifted_bps));
                ("distilled_bps", Float (1, m.distilled_bps));
              ]),
          ("engine_round", true, "seeded round completed") )
    | Error f ->
        ( Json.Null,
          ( "engine_round",
            false,
            Format.asprintf "seeded round failed: %a" Engine.pp_failure f ) )
  in
  let ratio = obs_overhead_ratio () in
  ( Json.
      [
        (* Parallel speedup is only observable with real cores: on a
           1-core container the extra domains time-slice and pay
           minor-GC rendezvous, so record the hardware so readers can
           interpret the batched rows. *)
        ("recommended_domains", Int (Domain.recommended_domain_count ()));
        ("link_run", List (List.map fst runs));
        ("engine_round", round);
        ("obs_overhead_ratio", Float (4, ratio));
      ],
    round_gate
    :: ratio_gate "obs_overhead_ratio" ratio overhead_bound
    :: List.map snd runs )

(* ---- "resilience": the failure-churn experiment, no-retry
   baseline vs resilient scheduler on the same seed.  The resilient
   delivery ratio must strictly exceed the baseline's, and both runs
   must conserve pad bits exactly. ---- *)

module Topology = Qkd_net.Topology
module Relay = Qkd_net.Relay
module Failure = Qkd_net.Failure
module Scheduler = Qkd_net.Scheduler

let churn_record ~quick scheduler =
  let topo = Topology.random_mesh ~nodes:10 ~degree:3.5 ~seed:5L ~fiber_km:10.0 in
  let relay = Relay.create ~low_watermark:2048 ~high_watermark:200_000 topo in
  Relay.advance relay ~seconds:30.0;
  let cfg =
    {
      Failure.default_churn_config with
      Failure.pairs = [ (0, 9); (1, 8); (2, 7) ];
      duration_s = (if quick then 150.0 else 600.0);
      mtbf_s = 120.0;
      mttr_s = 40.0;
      request_bits = 512;
      request_interval_s = 0.5;
      scheduler;
    }
  in
  Failure.churn ~seed:77L relay cfg

let churn_json (r : Failure.churn_report) =
  Json.(
    Obj
      [
        ("submitted", Int r.submitted);
        ("delivered", Int r.delivered);
        ("gave_up", Int r.gave_up);
        ("retries", Int r.retries);
        ("reroutes", Int r.reroutes);
        ("link_failures", Int r.link_failures);
        ("delivery_ratio", Float (4, r.delivery_ratio));
        ("p50_latency_s", Float (4, r.p50_latency_s));
        ("p95_latency_s", Float (4, r.p95_latency_s));
        ("consumed_bits", Int r.consumed_bits);
        ("expected_consumed_bits", Int r.expected_consumed_bits);
        ("conservation_ok", Bool r.conservation_ok);
        ("slo_attainment", Float (6, r.slo_attainment));
        ("alerts_fired", Int r.alerts_fired);
      ])

let bench_resilience ~quick =
  Format.printf "churn baseline (no retry, static routes)...@.";
  let base = churn_record ~quick None in
  Format.printf "churn resilient (scheduler + key-aware reroute)...@.";
  let res = churn_record ~quick (Some Scheduler.default_config) in
  let beats = res.delivery_ratio > base.delivery_ratio in
  ( [
      ("baseline", churn_json base);
      ("resilient", churn_json res);
      ("resilient_beats_baseline", Json.Bool beats);
    ],
    [
      ( "resilient_beats_baseline",
        beats,
        Printf.sprintf "delivery ratio %.4f resilient vs %.4f baseline"
          res.delivery_ratio base.delivery_ratio );
      ( "conservation_ok",
        base.conservation_ok && res.conservation_ok,
        Printf.sprintf "pad conservation: baseline %b, resilient %b"
          base.conservation_ok res.conservation_ok );
    ] )

(* ---- "obs": instrumentation and alert-engine overhead, the
   eavesdropper-alarm separation (attacked run fires, clean run on the
   same seed stays silent), and the churn SLO cross-check (the alert
   engine's windowed attainment must equal the scheduler's exact
   delivered/submitted count). ---- *)

(* The same seed with and without an intercept-resend Eve: the
   Wilson-bounded QBER rule must fire on the attacked run only. *)
let qber_alarm_fires eve =
  Qkd_obs.Registry.with_registry (Qkd_obs.Registry.create ()) (fun () ->
      let base = Engine.default_config in
      let config = { base with link = { base.link with Link.eve } } in
      let engine = Engine.create ~seed:2003L config in
      let monitor = Qkd_obs.Health.default () in
      Qkd_obs.Health.tick monitor ~now:0.0;
      for i = 1 to 4 do
        ignore (Engine.run_round engine ~pulses:50_000);
        Qkd_obs.Health.tick monitor ~now:(float_of_int i)
      done;
      Qkd_obs.Alert.is_firing (Qkd_obs.Health.engine monitor) "qber_above_budget")

let bench_obs ~quick =
  let obs_ratio = obs_overhead_ratio () in
  Format.printf "alert-engine overhead (%d rounds, best of %d)...@."
    engine_rounds engine_reps;
  let alert_ratio =
    overhead_ratio ~reps:engine_reps ~run:(fun ~on ->
        let setup () =
          if on then begin
            let m = Qkd_obs.Health.default () in
            Qkd_obs.Health.tick m ~now:0.0;
            fun i -> Qkd_obs.Health.tick m ~now:(float_of_int i)
          end
          else fun _ -> ()
        in
        engine_leg ~setup ())
  in
  Format.printf "eavesdropper alarm: clean vs intercept-resend, same seed...@.";
  let clean_fired = qber_alarm_fires Qkd_photonics.Eve.Passive in
  let attacked_fired =
    qber_alarm_fires (Qkd_photonics.Eve.Intercept_resend 1.0)
  in
  Format.printf "churn SLO attainment (resilient scheduler)...@.";
  let res = churn_record ~quick (Some Scheduler.default_config) in
  let exact = float_of_int res.delivered /. float_of_int res.submitted in
  let slo_matches = res.slo_attainment = exact in
  ( Json.
      [
        ("obs_overhead_ratio", Float (4, obs_ratio));
        ("alert_overhead_ratio", Float (4, alert_ratio));
        ("qber_alert_fired", Bool attacked_fired);
        ("clean_alert_fired", Bool clean_fired);
        ("slo_attainment", Float (6, res.slo_attainment));
        ("slo_matches_delivered", Bool slo_matches);
        ("alerts_fired", Int res.alerts_fired);
      ],
    [
      ratio_gate "obs_overhead_ratio" obs_ratio overhead_bound;
      ratio_gate "alert_overhead_ratio" alert_ratio overhead_bound;
      ("qber_alert_fired", attacked_fired, "intercept-resend run fires");
      ("clean_alert_fired", not clean_fired, "clean run stays silent");
      ( "slo_matches_delivered",
        slo_matches,
        Printf.sprintf "attainment %.6f vs delivered/submitted %.6f"
          res.slo_attainment exact );
    ] )

(* ---- "campaign": the attack matrix graded against its
   detection-latency SLOs (the clean twin of every scenario, same seed,
   must fire zero alarms), a PNS detectability sweep over the mean
   photon number, checkpoint/restore bit-equivalence at mid-run, the
   long-horizon bounded-memory witness, and the harness overhead. ---- *)

module Scenario = Qkd_scenario.Scenario
module Campaign = Qkd_scenario.Campaign
module Checkpoint = Qkd_scenario.Checkpoint

let run_campaign spec =
  let c = Campaign.create spec in
  Campaign.run c;
  c

(* The restart-equivalence probe: a small intercept+DoS spec touching
   every checkpointed subsystem (mesh churn, drift, engine, alarms). *)
let checkpoint_probe_spec =
  let t = Scenario.intercept_resend ~quick:true in
  let t = Scenario.with_seed t 61L in
  let t = Scenario.with_duration t 600.0 in
  let t = Scenario.with_step t ~step_s:60.0 ~pulses_per_step:5_000 in
  Scenario.with_injections t
    [
      {
        Scenario.attack = Scenario.Intercept_resend { fraction = 1.0; ramp_s = 0.0 };
        from_s = 180.0;
        until_s = 600.0;
      };
      { attack = Scenario.Classical_dos; from_s = 360.0; until_s = 480.0 };
    ]

let checkpoint_bit_identical () =
  let spec = checkpoint_probe_spec in
  let reference = run_campaign spec in
  let interrupted = Campaign.create spec in
  for _ = 1 to Campaign.total_steps spec / 2 do
    Campaign.step interrupted
  done;
  let resumed = Checkpoint.of_bytes (Checkpoint.to_bytes interrupted) in
  Campaign.run resumed;
  Campaign.fingerprint resumed = Campaign.fingerprint reference
  && Campaign.report resumed = Campaign.report reference

let secs_or_null = function Some s -> Json.Float (0, s) | None -> Json.Null

let detection_json (d : Campaign.detection) =
  Json.(
    Obj
      [
        ("alarm", String d.alarm);
        ("injected_at_s", Float (0, d.injected_at_s));
        ("detected_at_s", secs_or_null d.detected_at_s);
        ("detection_latency_s", secs_or_null d.latency_s);
        ("slo_s", Float (0, d.slo_s));
        ("within_slo", Bool d.within_slo);
      ])

let bench_campaign ~quick =
  let matrix =
    List.map
      (fun spec ->
        Format.printf "campaign %-22s (attacked + clean twin)...@."
          spec.Scenario.name;
        let r = Campaign.report (run_campaign spec) in
        let rc = Campaign.report (run_campaign (Scenario.clean spec)) in
        (spec.Scenario.name, r, rc))
      (Scenario.builtins ~quick ())
  in
  (* PNS detectability vs mean photon number: at the DARPA mu=0.1 the
     beamsplitter steals too few photons to move the detection rate
     past the 8% tolerance, so this is recorded, not gated (the gated
     mu=0.5 scenario is part of the matrix above). *)
  Format.printf "PNS mu sweep...@.";
  let pns =
    List.map
      (fun mu ->
        let r =
          Campaign.report
            (run_campaign (Scenario.pns_beamsplit ~mu ~quick:true ()))
        in
        let latency =
          match r.detections with [ d ] -> d.latency_s | _ -> None
        in
        Json.(
          Obj
            [
              ("mu", Float (1, mu));
              ("fired", Bool (latency <> None));
              ("detection_latency_s", secs_or_null latency);
            ]))
      [ 0.1; 0.3; 0.5 ]
  in
  Format.printf "checkpoint restore bit-equivalence...@.";
  let ckpt_ok = checkpoint_bit_identical () in
  (* The same clean campaign with the health monitor live and with
     Qkd_obs.Control disabled (series pushes and metric mutations become
     no-ops, so the run degenerates to the bare simulation loop). *)
  Format.printf "harness overhead (monitored vs Control-disabled)...@.";
  let overhead =
    let spec = Scenario.clean (Scenario.intercept_resend ~quick:true) in
    overhead_ratio ~reps:5 ~run:(fun ~on ->
        with_control on (fun () ->
            seconds (fun () -> ignore (run_campaign spec))))
  in
  let lh =
    match List.find_opt (fun (name, _, _) -> name = "long-horizon") matrix with
    | Some (_, r, _) -> r
    | None -> failwith "long-horizon scenario missing from builtins"
  in
  let misses =
    List.concat_map
      (fun (name, (r : Campaign.report), _) ->
        List.filter_map
          (fun (d : Campaign.detection) ->
            if d.within_slo then None else Some (name ^ "/" ^ d.alarm))
          r.detections)
      matrix
  in
  let false_alarms =
    List.fold_left (fun n (_, _, (rc : Campaign.report)) -> n + rc.alerts_fired) 0 matrix
  in
  let bounded = lh.max_series_len <= lh.series_capacity in
  ( Json.
      [
        ( "campaigns",
          Obj
            (List.map
               (fun (name, (r : Campaign.report), (rc : Campaign.report)) ->
                 ( name,
                   Obj
                     [
                       ("steps", Int r.steps);
                       ("rounds_ok", Int r.rounds_ok);
                       ("rounds_failed", Int r.rounds_failed);
                       ("mean_qber", Float (4, r.mean_qber));
                       ("alerts_fired", Int r.alerts_fired);
                       ("clean_alerts_fired", Int rc.alerts_fired);
                       ("detections", List (List.map detection_json r.detections));
                     ] ))
               matrix) );
        ("pns_mu_sweep", List pns);
        ("all_within_slo", Bool (misses = []));
        ("false_alarms_clean_total", Int false_alarms);
        ("checkpoint_restore_bit_identical", Bool ckpt_ok);
        ("long_horizon_max_series_len", Int lh.max_series_len);
        ("series_capacity", Int lh.series_capacity);
        ("bounded_memory", Bool bounded);
        ("harness_overhead_ratio", Float (4, overhead));
      ],
    [
      ( "all_within_slo",
        misses = [],
        "detections outside their SLO: ["
        ^ String.concat ", " misses ^ "]" );
      ( "false_alarms_clean_total",
        false_alarms = 0,
        Printf.sprintf "%d alarms, want 0" false_alarms );
      ("checkpoint_restore_bit_identical", ckpt_ok, "restored = uninterrupted");
      ( "bounded_memory",
        bounded,
        Printf.sprintf "long-horizon series %d <= ring capacity %d"
          lh.max_series_len lh.series_capacity );
      ratio_gate "harness_overhead_ratio" overhead campaign_overhead_bound;
    ] )

(* ---- "dataplane": batched zero-allocation ESP forwarding vs
   the scalar reference path.  Two gateways with directly installed SAs
   forward synthetic LAN traffic; the batch leg runs entirely in pool
   buffers through the [_into] kernels, the scalar leg round-trips
   [Packet.t] values (including the wire serialize/parse at each
   gateway boundary that the batch path performs implicitly by
   operating on wire bytes in place). ---- *)

module Gateway = Qkd_ipsec.Gateway
module Pktbuf = Qkd_ipsec.Pktbuf
module Traffic = Qkd_ipsec.Traffic
module Sa = Qkd_ipsec.Sa
module Esp = Qkd_ipsec.Esp
module Replay = Qkd_ipsec.Replay
module Ip = Qkd_ipsec.Packet

(* The batched path's committed speedup over the seed scalar path at
   64B payload. *)
let dataplane_speedup_bound = 3.0

(* Committed steady-state allocation budget for the batched dataplane:
   minor-heap words per forwarded packet (encap + decap, single flow).
   The path is measurably allocation-free — the RNG carries its state
   in native-int halves and SHA-1 finalization no longer builds a local
   closure, the last two per-packet allocators — so the single-flow
   figure is ~0.0 words/pkt.  16 leaves headroom for incidental runtime
   noise (GC sampling, signal handling) without letting a real
   per-packet allocation regress in — versus ~1.2k words/pkt on the
   seed path. *)
let dataplane_words_budget = 16.0

(* Long enough that the bench never expires an SA mid-run. *)
let dataplane_lifetime = { Sa.seconds = 1e9; kilobytes = max_int / 2048 }

(* Mirrored SA pair sharing keys, as quick mode would install. *)
let dataplane_sa_pair ?(transform = Sa.Aes128_cbc) () =
  let rng = Rng.create 702L in
  let enc_key = Rng.bytes rng (Sa.enc_key_bytes transform) in
  let auth_key = Rng.bytes rng Sa.auth_key_bytes in
  let pad_bits =
    match transform with
    | Sa.Otp -> Some (Rng.bits rng (1 lsl 21))
    | _ -> None
  in
  let mk () =
    let otp_pad =
      Option.map (fun bits -> Qkd_crypto.Otp.pad_of_bits (Bs.copy bits)) pad_bits
    in
    Sa.create ~spi:0x7007l ~transform ~enc_key ~auth_key ?otp_pad
      ~lifetime:dataplane_lifetime ~now:0.0 ~keyed_from_qkd:true ()
  in
  (mk (), mk ())

let dataplane_gateways () =
  let mk ~name ~wan ~lan ~peer ~lan_remote ~seed =
    let gw =
      Gateway.create ~name ~wan ~lan ~lan_prefix:16
        ~psk:(Bytes.of_string "dataplane-bench")
        ~key_pool:(Qkd_protocol.Key_pool.create ()) ~seed
    in
    Gateway.add_protect_policy gw ~lan_remote ~remote_prefix:16
      {
        Qkd_ipsec.Spd.transform = Sa.Aes128_cbc;
        lifetime = dataplane_lifetime;
        qkd = Qkd_ipsec.Spd.Reseed;
        peer = Ip.addr_of_string peer;
        qblock_bits = 1024;
      };
    gw
  in
  let a =
    mk ~name:"dpA" ~wan:"192.1.99.34" ~lan:"10.1.0.0" ~peer:"192.1.99.35"
      ~lan_remote:"10.2.0.0" ~seed:701L
  in
  let b =
    mk ~name:"dpB" ~wan:"192.1.99.35" ~lan:"10.2.0.0" ~peer:"192.1.99.34"
      ~lan_remote:"10.1.0.0" ~seed:703L
  in
  let tx, rx_unused = dataplane_sa_pair () in
  let tx_unused, rx = dataplane_sa_pair () in
  Gateway.install_sas a
    ~peer:(Ip.addr_of_string "192.1.99.35")
    ~outbound:tx ~inbound:rx_unused;
  Gateway.install_sas b
    ~peer:(Ip.addr_of_string "192.1.99.34")
    ~outbound:tx_unused ~inbound:rx;
  (a, b)

let dataplane_traffic ~flows ~payload_len =
  Traffic.create ~seed:711L ~src_net:"10.1.5.0" ~dst_net:"10.2.9.0" ~flows
    ~payload_len ()

(* Best-of-[reps] packets/s of [forward packets], after a warm-up
   tenth. *)
let best_pps ~reps ~packets forward =
  forward (max 1 (packets / 10));
  let (), s = time_best ~reps (fun () -> forward packets) in
  float_of_int packets /. s

(* Scalar leg: outbound/inbound on [Packet.t] values, with the wire
   boundary crossed explicitly on both hops; single flow. *)
let dataplane_scalar ~reps ~payload_len ~packets =
  let a, b = dataplane_gateways () in
  let traffic = dataplane_traffic ~flows:1 ~payload_len in
  best_pps ~reps ~packets (fun n ->
      for _ = 1 to n do
        let p = Traffic.next_packet traffic in
        match Gateway.outbound a ~now:0.0 p with
        | Gateway.Tunnel outer -> (
            let wire = Ip.serialize outer in
            match Gateway.inbound b ~now:0.0 (Ip.parse wire) with
            | Gateway.Deliver inner -> ignore (Ip.serialize inner)
            | Gateway.Bypass_in _ | Gateway.Rejected _ ->
                failwith "dataplane: scalar inbound did not deliver")
        | Gateway.Bypass _ | Gateway.Dropped _ | Gateway.Need_rekey _ ->
            failwith "dataplane: scalar outbound did not tunnel"
      done)

(* Seed leg: the baseline the 3x gate compares against — the scalar
   path exactly as the growth seed shipped it (see [Seed_path]):
   per-packet AES key expansion, byte-wise cipher rounds, [Bytes.cat]
   assembly and the generic allocating HMAC.  Conservative in the
   seed's favour: the seed gateway's O(tunnels) SPI scan and SPD walk
   are not charged here. *)
let dataplane_seed ~reps ~payload_len ~packets =
  let tx, _ = dataplane_sa_pair () in
  let _, rx = dataplane_sa_pair () in
  let rng = Rng.create 731L in
  let traffic = dataplane_traffic ~flows:1 ~payload_len in
  let outer_src = Ip.addr_of_string "192.1.99.34" in
  let outer_dst = Ip.addr_of_string "192.1.99.35" in
  let expected = ref 1 in
  best_pps ~reps ~packets (fun n ->
      for _ = 1 to n do
        let p = Traffic.next_packet traffic in
        let outer = Seed_path.encapsulate tx ~rng ~outer_src ~outer_dst p in
        let wire = Ip.serialize outer in
        let inner, seq =
          Seed_path.decapsulate rx ~expected_seq:!expected (Ip.parse wire)
        in
        expected := seq + 1;
        ignore (Ip.serialize inner)
      done)

(* The seed-path reproduction must emit the very bytes the current
   reference path emits (the ESP wire format never changed, only its
   cost), or the baseline would be measuring something else. *)
let dataplane_seed_faithful () =
  let tx_seed, tx_ref = dataplane_sa_pair () in
  let rx_seed, _ = dataplane_sa_pair () in
  let rng_seed = Rng.create 741L and rng_ref = Rng.create 741L in
  let traffic_seed = dataplane_traffic ~flows:3 ~payload_len:64 in
  let traffic_ref = dataplane_traffic ~flows:3 ~payload_len:64 in
  let outer_src = Ip.addr_of_string "192.1.99.34" in
  let outer_dst = Ip.addr_of_string "192.1.99.35" in
  let ok = ref true in
  let expected = ref 1 in
  for _ = 1 to 32 do
    let p = Traffic.next_packet traffic_seed in
    let p' = Traffic.next_packet traffic_ref in
    let seed_wire =
      Ip.serialize
        (Seed_path.encapsulate tx_seed ~rng:rng_seed ~outer_src ~outer_dst p)
    in
    let ref_wire =
      match Esp.encapsulate tx_ref ~rng:rng_ref ~outer_src ~outer_dst p' with
      | Ok o -> Ip.serialize o
      | Error _ -> Bytes.empty
    in
    if not (Bytes.equal seed_wire ref_wire) then ok := false;
    let inner, seq =
      Seed_path.decapsulate rx_seed ~expected_seq:!expected (Ip.parse seed_wire)
    in
    expected := seq + 1;
    if inner <> p then ok := false
  done;
  !ok

let dataplane_batch_size = 64

(* Batch leg: best-of-[reps] packets/s and the fewest steady-state
   minor-heap words per packet. *)
let dataplane_batched ~reps ~payload_len ~flows ~packets =
  let a, b = dataplane_gateways () in
  let traffic = dataplane_traffic ~flows ~payload_len in
  let batch = dataplane_batch_size in
  let pool = Pktbuf.create ~capacity:2048 (3 * batch) in
  let src = Array.init batch (fun _ -> Pktbuf.alloc pool) in
  let mid = Array.init batch (fun _ -> Pktbuf.alloc pool) in
  let out = Array.init batch (fun _ -> Pktbuf.alloc pool) in
  let forward batches =
    for _ = 1 to batches do
      for i = 0 to batch - 1 do
        ignore (Traffic.next_into traffic src.(i))
      done;
      let o = Gateway.outbound_batch a ~now:0.0 ~src ~dst:mid ~count:batch in
      let d = Gateway.inbound_batch b ~now:0.0 ~src:mid ~dst:out ~count:batch in
      if o <> batch || d <> batch then
        failwith "dataplane: batch dropped packets"
    done
  in
  let batches = max 1 (packets / batch) in
  forward (max 1 (batches / 10));
  let words = ref infinity in
  let (), s =
    time_best ~reps (fun () ->
        let minor0 = Gc.minor_words () in
        forward batches;
        words := Float.min !words (Gc.minor_words () -. minor0))
  in
  let n = float_of_int (batches * batch) in
  (n /. s, !words /. n)

(* Byte-identity + replay-verdict equivalence of the kernels against
   the scalar reference: mirrored SA universes fed identical traffic
   and RNG streams must emit identical wire bytes, accept the first
   delivery identically, and reject the replayed delivery with the
   same verdict. *)
let dataplane_identical ~transform =
  let tx_s, rx_s = dataplane_sa_pair ~transform () in
  let tx_f, rx_f = dataplane_sa_pair ~transform () in
  let rng_s = Rng.create 721L and rng_f = Rng.create 721L in
  let replay_s = Replay.create () and replay_f = Replay.create () in
  let scratch = Esp.make_scratch () in
  let traffic_s = dataplane_traffic ~flows:5 ~payload_len:64 in
  let traffic_f = dataplane_traffic ~flows:5 ~payload_len:64 in
  let outer_src = Ip.addr_of_string "192.1.99.34" in
  let outer_dst = Ip.addr_of_string "192.1.99.35" in
  let pool = Pktbuf.create ~capacity:2048 3 in
  let sbuf = Pktbuf.alloc pool in
  let wbuf = Pktbuf.alloc pool in
  let obuf = Pktbuf.alloc pool in
  let ok = ref true in
  for _ = 1 to 96 do
    let p = Traffic.next_packet traffic_s in
    ignore (Traffic.next_into traffic_f sbuf);
    let outer =
      match Esp.encapsulate tx_s ~rng:rng_s ~outer_src ~outer_dst p with
      | Ok o -> o
      | Error _ -> failwith "dataplane: scalar encap failed"
    in
    let wire_s = Ip.serialize outer in
    let n =
      Esp.encap_into tx_f ~scratch ~rng:rng_f ~outer_src ~outer_dst
        ~src:sbuf.Pktbuf.data ~src_pos:0 ~len:sbuf.Pktbuf.len
        ~dst:wbuf.Pktbuf.data ~dst_pos:0
    in
    if n <> Bytes.length wire_s
       || not (Bytes.equal wire_s (Bytes.sub wbuf.Pktbuf.data 0 n))
    then ok := false;
    (match Esp.decapsulate rx_s ~replay:replay_s outer with
    | Ok inner -> if inner <> p then ok := false
    | Error _ -> ok := false);
    let m =
      Esp.decap_into rx_f ~scratch ~replay:replay_f ~src:wbuf.Pktbuf.data
        ~src_pos:0 ~len:n ~dst:obuf.Pktbuf.data ~dst_pos:0
    in
    if m < 0 || not (Bytes.equal (Ip.serialize p) (Bytes.sub obuf.Pktbuf.data 0 m))
    then ok := false;
    (* the replayed delivery must be rejected with the same verdict *)
    let verdict_s =
      match Esp.decapsulate rx_s ~replay:replay_s outer with
      | Error e -> e
      | Ok _ -> Esp.Auth_failed (* accepted replay: mismatches below *)
    in
    let code =
      Esp.decap_into rx_f ~scratch ~replay:replay_f ~src:wbuf.Pktbuf.data
        ~src_pos:0 ~len:n ~dst:obuf.Pktbuf.data ~dst_pos:0
    in
    let seq = match verdict_s with Esp.Replay { seq } -> seq | _ -> 0 in
    if code >= 0 || Esp.error_of_code code ~seq ~spi:rx_f.Sa.spi <> verdict_s
    then ok := false
  done;
  !ok

let bench_dataplane ~quick =
  let packets = if quick then 20_000 else 200_000 in
  let reps = if quick then 1 else 3 in
  let sizes = if quick then [ 64; 1024 ] else [ 64; 256; 1024 ] in
  Format.printf "fast path vs scalar byte-identity (all transforms)...@.";
  let identical =
    List.for_all
      (fun transform -> dataplane_identical ~transform)
      [ Sa.Aes128_cbc; Sa.Aes256_cbc; Sa.Des3_cbc; Sa.Otp ]
  in
  Format.printf "seed-path reproduction vs reference byte-identity...@.";
  let seed_faithful = dataplane_seed_faithful () in
  let rows =
    List.map
      (fun payload_len ->
        Format.printf "dataplane %4dB payload (%d packets/leg)...@."
          payload_len packets;
        (* The seed leg is ~6x slower per packet; a tenth of the packets
           still times it for tens of milliseconds at minimum. *)
        let seed_pps =
          dataplane_seed ~reps ~payload_len ~packets:(max 1_000 (packets / 10))
        in
        let scalar_pps = dataplane_scalar ~reps ~payload_len ~packets in
        let batched_pps, words =
          dataplane_batched ~reps ~payload_len ~flows:1 ~packets
        in
        let vs_seed = batched_pps /. seed_pps in
        let vs_scalar = batched_pps /. scalar_pps in
        ( (payload_len, vs_seed, vs_scalar, words),
          Json.(
            Obj
              [
                ("payload_bytes", Int payload_len);
                ("seed_pps", Float (0, seed_pps));
                ("scalar_pps", Float (0, scalar_pps));
                ("batched_pps", Float (0, batched_pps));
                ("speedup_vs_seed", Float (2, vs_seed));
                ("speedup_vs_scalar", Float (2, vs_scalar));
                ("batched_minor_words_per_packet", Float (3, words));
              ]) ))
      sizes
  in
  let _, speedup, scalar_speedup, words =
    List.find (fun (payload_len, _, _, _) -> payload_len = 64) (List.map fst rows)
  in
  (* Per-packet flow cycling defeats the single-entry flow memo, so
     classification is paid per packet — recorded, not gated. *)
  let mf_pps, mf_words =
    dataplane_batched ~reps:1 ~payload_len:64 ~flows:32 ~packets
  in
  let speedup_ok = speedup >= dataplane_speedup_bound in
  let words_ok = words <= dataplane_words_budget in
  ( Json.
      [
        ("packets_per_leg", Int packets);
        ("batch_size", Int dataplane_batch_size);
        ("dataplane", List (List.map snd rows));
        ( "multi_flow_64B",
          Obj
            [
              ("flows", Int 32);
              ("batched_pps", Float (0, mf_pps));
              ("minor_words_per_packet", Float (3, mf_words));
            ] );
        ("fast_path_byte_identical", Bool identical);
        ("seed_path_faithful", Bool seed_faithful);
        ("speedup_vs_seed_64B", Float (2, speedup));
        ("speedup_vs_scalar_64B", Float (2, scalar_speedup));
        ("minor_words_per_packet_64B", Float (3, words));
        ("words_per_packet_budget", Float (1, dataplane_words_budget));
        ("speedup_gate_3x", Bool speedup_ok);
        ("alloc_gate", Bool words_ok);
      ],
    [
      ("fast_path_byte_identical", identical, "kernels = scalar path");
      ("seed_path_faithful", seed_faithful, "seed path = reference path");
      ( "speedup_gate_3x",
        speedup_ok,
        Printf.sprintf "%.2fx over the seed scalar path at 64B, bound >= %.1fx"
          speedup dataplane_speedup_bound );
      ( "alloc_gate",
        words_ok,
        Printf.sprintf "%.3f minor words/packet, budget %.1f" words
          dataplane_words_budget );
    ] )

(* ---- "kms": key distribution as a service over the metro
   mesh.  The 104-node mesh must sustain the offered 10k requests/s
   (simulated), share scarce supply fairly across equal-weight tenants,
   and balance its books to the bit. ---- *)

let kms_rps_gate = 10_000.0
let kms_jain_gate = 0.9

let bench_kms ~quick =
  let module L = Qkd_kms.Load in
  let profile = if quick then L.quick else L.default in
  Format.printf
    "kms: %d tenants, %d req/s offered for %.0f s over metro ring-of-rings...@."
    profile.tenants profile.target_rps profile.duration_s;
  let o, wall_s = time_best ~reps:1 (fun () -> L.run profile) in
  let s = o.stats in
  let rps_ok = o.delivered_rps >= kms_rps_gate in
  let jain_ok = s.jain_fairness >= kms_jain_gate in
  let drift_ok = s.accounting_drift_bits = 0 && s.in_flight = 0 in
  ( Json.
      [
        ("topology", String "metro_ring_of_rings");
        ("nodes", Int o.nodes);
        ("edges", Int o.edges);
        ("endpoints", Int o.endpoints);
        ("tenants", Int s.tenants);
        ("bits_per_request", Int profile.bits);
        ("offered_rps", Int profile.target_rps);
        ("duration_s", Float (1, profile.duration_s));
        ("wall_s", Float (2, wall_s));
        ("submitted", Int s.submitted);
        ("delivered", Int s.delivered);
        ("delivered_rps", Float (0, o.delivered_rps));
        ("rejected", Int s.rejected);
        ("shed", Int s.shed);
        ("gave_up", Int s.gave_up);
        ("retries", Int s.retries);
        ("delivered_bits", Int s.delivered_bits);
        ("pad_spend_bits", Int s.pad_spend_bits);
        ( "per_class",
          List
            (List.map
               (fun (c : Qkd_kms.Kms.class_stats) ->
                 Obj
                   [
                     ("class", String (Qkd_kms.Qos.label c.klass));
                     ("delivered", Int c.delivered);
                     ("p50_latency_s", Float (4, c.p50_latency_s));
                     ("p95_latency_s", Float (4, c.p95_latency_s));
                   ])
               s.per_class) );
        ("jain_fairness", Float (4, s.jain_fairness));
        ("accounting_drift_bits", Int s.accounting_drift_bits);
        ("in_flight_at_quiescence", Int s.in_flight);
        ("shards_below_watermark", Int s.shards_below_watermark);
        ("rps_gate_10k", Bool rps_ok);
        ("jain_gate", Bool jain_ok);
        ("drift_gate", Bool drift_ok);
      ],
    [
      ( "rps_gate_10k",
        rps_ok,
        Printf.sprintf "%.0f req/s delivered, bound >= %.0f" o.delivered_rps
          kms_rps_gate );
      ( "jain_gate",
        jain_ok,
        Printf.sprintf "jain fairness %.4f, bound >= %.2f" s.jain_fairness
          kms_jain_gate );
      ( "drift_gate",
        drift_ok,
        Printf.sprintf "drift %d bits with %d in flight, both must be 0"
          s.accounting_drift_bits s.in_flight );
    ] )

(* ---- "flight": the black-box flight recorder.  Wide-event
   emission must cost < 5% on both hot paths (protocol rounds and the
   metro KMS), the per-lane rings must stay bounded under overflow, a
   seeded run's dump fingerprint must be deterministic (and survive a
   save/load round trip), and the recorder must not perturb seeded
   bit-identity or the batched dataplane's allocation budget. ---- *)

module Key_pool = Qkd_protocol.Key_pool
module Auth = Qkd_protocol.Auth

let flight_ring_capacity = 16

let flight_dump_file = "blackbox_flight.bbox"

(* Everything observable about a finished engine run: the per-round
   results plus the terminal engine state.  [Key_pool.consume] drains
   the delivered bits so pool contents — not just counts — are
   compared. *)
let engine_run_fingerprint engine results =
  let drain p =
    let n = Key_pool.available p in
    (n, Key_pool.consume p n)
  in
  ( results,
    drain (Engine.alice_pool engine),
    drain (Engine.bob_pool engine),
    Auth.consumed_bits (Engine.alice_auth engine),
    Auth.consumed_bits (Engine.bob_auth engine),
    Auth.replenished_bits (Engine.alice_auth engine),
    Auth.replenished_bits (Engine.bob_auth engine),
    Engine.last_qber engine,
    Engine.rounds_completed engine,
    Engine.rounds_failed engine )

(* One seeded serial run of [rounds] x [pulses] in a fresh registry and
   a fresh recorder, with recording switched [recording]; returns the
   recorder, the engine and the per-round results. *)
let recorded_run ?capacity ?(recording = true) ~rounds ~pulses () =
  let r = Recorder.create ?capacity () in
  let engine, results =
    Qkd_obs.Registry.with_registry (Qkd_obs.Registry.create ()) (fun () ->
        Recorder.with_recorder r (fun () ->
            with_recording recording (fun () ->
                let engine = Engine.create ~seed:2003L Engine.default_config in
                let acc = ref [] in
                for _ = 1 to rounds do
                  acc := Engine.run_round engine ~pulses :: !acc
                done;
                (engine, List.rev !acc))))
  in
  (r, engine, results)

let bench_flight ~quick =
  (* Both legs keep Control enabled (metric cost identical) and only
     toggle recording, isolating the wide-event emission itself. *)
  let recording_leg on f =
    Recorder.with_recorder (Recorder.create ()) (fun () ->
        with_recording on f)
  in
  Format.printf "flight: engine recorder overhead (%d rounds, best of %d)...@."
    engine_rounds engine_reps;
  let engine_ratio =
    overhead_ratio ~reps:engine_reps ~run:(fun ~on ->
        recording_leg on (fun () -> engine_leg ()))
  in
  Format.printf "flight: kms recorder overhead (quick load profile, best of 3)...@.";
  let kms_ratio =
    overhead_ratio ~reps:3 ~run:(fun ~on ->
        Qkd_obs.Registry.with_registry (Qkd_obs.Registry.create ()) (fun () ->
            recording_leg on (fun () ->
                seconds (fun () -> ignore (Qkd_kms.Load.run Qkd_kms.Load.quick)))))
  in
  (* Overflow a deliberately tiny ring: drop-oldest must keep retained
     within capacity x lanes however many rounds run. *)
  Format.printf "flight: ring bound under overflow...@.";
  let ring, _, _ =
    recorded_run ~capacity:flight_ring_capacity
      ~rounds:(5 * flight_ring_capacity) ~pulses:1_000 ()
  in
  let retained = Recorder.retained ring and dropped = Recorder.dropped ring in
  let rings_bounded =
    retained <= flight_ring_capacity * Recorder.lane_count && dropped > 0
  in
  (* A seeded run's dump fingerprint (wall-clock fields canonicalized
     away) must be equal across repeats. *)
  Format.printf "flight: seeded dump fingerprint x2 + save/load round trip...@.";
  let dump () =
    let r, _, _ = recorded_run ~rounds:8 ~pulses:10_000 () in
    Recorder.snapshot ~reason:"bench" r
  in
  let d1 = dump () in
  let d2 = dump () in
  let fp1 = Recorder.fingerprint d1 and fp2 = Recorder.fingerprint d2 in
  Recorder.save d1 flight_dump_file;
  let roundtrip_ok =
    Recorder.fingerprint (Recorder.load flight_dump_file) = fp1
  in
  let identity_rounds = if quick then 2 else 6 in
  let identity_pulses = 1_000_000 in
  Format.printf
    "flight: bit-identity, recording on vs off (%d rounds x %d pulses)...@."
    identity_rounds identity_pulses;
  let fingerprint recording =
    let r, engine, results =
      recorded_run ~recording ~rounds:identity_rounds ~pulses:identity_pulses ()
    in
    (Recorder.emitted r, engine_run_fingerprint engine results)
  in
  let emitted_on, fp_on = fingerprint true in
  let _, fp_off = fingerprint false in
  (* The comparison only means something if the "on" leg recorded. *)
  let bit_identical = emitted_on = identity_rounds && fp_on = fp_off in
  (* The dataplane alloc gate's configuration (64B, single flow),
     best of 2 to shrug off a GC-unlucky rep. *)
  Format.printf "flight: dataplane allocation budget with recorder on...@.";
  let pps, words =
    recording_leg true (fun () ->
        dataplane_batched ~reps:2 ~payload_len:64 ~flows:1
          ~packets:(if quick then 20_000 else 100_000))
  in
  let words_ok = words <= dataplane_words_budget in
  ( Json.
      [
        ("engine_overhead_ratio", Float (4, engine_ratio));
        ("kms_overhead_ratio", Float (4, kms_ratio));
        ("ring_capacity_per_lane", Int flight_ring_capacity);
        ("ring_retained", Int retained);
        ("ring_dropped", Int dropped);
        ("rings_bounded", Bool rings_bounded);
        ("dump_fingerprint", String fp1);
        ("dump_fingerprint_deterministic", Bool (fp1 = fp2));
        ("dump_roundtrip_ok", Bool roundtrip_ok);
        ("bit_identical_with_recorder", Bool bit_identical);
        ("recorder_dataplane_pps", Float (0, pps));
        ("recorder_words_per_packet", Float (3, words));
        ("words_per_packet_budget", Float (1, dataplane_words_budget));
      ],
    [
      ratio_gate "engine_overhead_ratio" engine_ratio overhead_bound;
      ratio_gate "kms_overhead_ratio" kms_ratio overhead_bound;
      ( "rings_bounded",
        rings_bounded,
        Printf.sprintf "%d retained, %d dropped, capacity %d x %d lanes"
          retained dropped flight_ring_capacity Recorder.lane_count );
      ("dump_fingerprint_deterministic", fp1 = fp2, "same seed, same dump");
      ("dump_roundtrip_ok", roundtrip_ok, "save/load keeps the fingerprint");
      ("bit_identical_with_recorder", bit_identical, "recording on = off");
      ( "recorder_words_per_packet",
        words_ok,
        Printf.sprintf "%.3f minor words/packet with recorder on, budget %.1f"
          words dataplane_words_budget );
    ] )

(* ==== Driver ==== *)

type preset = {
  name : string;
  pr : int;  (** the record's "pr" tag *)
  out : string;  (** default output file *)
  run : quick:bool -> (string * Json.t) list * gate list;
}

let presets =
  [
    { name = "json"; pr = 2; out = "BENCH_pr2.json"; run = bench_json };
    { name = "resilience"; pr = 4; out = "BENCH_pr4.json"; run = bench_resilience };
    { name = "obs"; pr = 5; out = "BENCH_pr5.json"; run = bench_obs };
    { name = "campaign"; pr = 6; out = "BENCH_pr6.json"; run = bench_campaign };
    { name = "dataplane"; pr = 7; out = "BENCH_pr7.json"; run = bench_dataplane };
    { name = "kms"; pr = 8; out = "BENCH_pr8.json"; run = bench_kms };
    { name = "flight"; pr = 10; out = "BENCH_pr10.json"; run = bench_flight };
  ]

(* Parse [--quick] [--out FILE], run the preset, write its record, then
   report every gate; exit 1 if any failed. *)
let run_preset p args =
  let usage fault =
    Format.eprintf "%s; usage: main.exe %s [--quick] [--out FILE]@." fault p.name;
    exit 1
  in
  let rec options quick out = function
    | [] -> (quick, out)
    | "--quick" :: tl -> options true out tl
    | "--out" :: file :: tl -> options quick file tl
    | [ "--out" ] -> usage "--out needs a FILE"
    | arg :: _ -> usage (Printf.sprintf "unknown %s option %S" p.name arg)
  in
  let quick, out = options false p.out args in
  let members, gates = p.run ~quick in
  let preset = Json.String (if quick then "quick" else "full") in
  Json.to_file out (Json.Obj (("pr", Json.Int p.pr) :: ("preset", preset) :: members));
  Format.printf "wrote %s@." out;
  List.iter
    (fun (name, ok, what) ->
      if ok then Format.printf "ok   %s: %s@." name what
      else Format.eprintf "FAIL %s: %s@." name what)
    gates;
  if List.exists (fun (_, ok, _) -> not ok) gates then exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let metrics, args = List.partition (( = ) "--metrics") args in
  (match args with
  | [] ->
      Experiments.all ();
      microbenches ()
  | [ "micro" ] -> microbenches ()
  | [ "tables" ] -> Experiments.all ()
  | name :: rest -> (
      match
        (List.find_opt (fun p -> p.name = name) presets, Experiments.by_name name, rest)
      with
      | Some p, _, _ -> run_preset p rest
      | None, Some f, [] -> f ()
      | None, None, [] ->
          Format.eprintf "unknown experiment %S; available: %s@." name
            (String.concat ", "
               (("micro" :: "tables" :: List.map (fun p -> p.name) presets)
               @ Experiments.names));
          exit 1
      | None, _, _ :: _ ->
          Format.eprintf
            "usage: main.exe [micro | tables | experiment | preset [--quick] \
             [--out FILE]] [--metrics]@.";
          exit 1));
  if metrics <> [] then Qkd_obs.Export.print_dump ()
