(* qkd_sim — command-line driver for the DARPA Quantum Network
   simulator.

     qkd_sim link     --pulses 2000000 --length-km 10 --eve 0.1
     qkd_sim vpn      --duration 120 --transform otp
     qkd_sim chain    --hops 4 --transform otp
     qkd_sim network  --nodes 10 --p-fail 0.1
     qkd_sim system   --duration 60
     qkd_sim campaign intercept-resend --quick
     qkd_sim dataplane --packets 500000 --payload 256 *)

module Link = Qkd_photonics.Link
module Fiber = Qkd_photonics.Fiber
module Source = Qkd_photonics.Source
module Eve = Qkd_photonics.Eve
module Engine = Qkd_protocol.Engine
module Vpn = Qkd_ipsec.Vpn
module Sa = Qkd_ipsec.Sa
module Spd = Qkd_ipsec.Spd
module Topology = Qkd_net.Topology
module Failure = Qkd_net.Failure
module System = Qkd_core.System
open Cmdliner

(* Every subcommand accepts --metrics (telemetry dump at exit),
   --metrics-out FILE (line-protocol snapshot to a file) and --health
   (install the standard health monitor, tick it over the run, print
   the status report at exit — see README "Health monitoring"). *)
let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ] ~doc:"Print the telemetry registry dump at exit.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the line-protocol metrics snapshot to $(docv) at exit.")

let health_arg =
  Arg.(
    value & flag
    & info [ "health" ]
        ~doc:
          "Monitor the run with the standard alert rules (QBER eavesdropper \
           alarm, delivery SLO, stabilization drift) and print the health \
           report at exit.")

let make_monitor health =
  if health then Some (Qkd_obs.Health.default ()) else None

let tick_monitor monitor ~now =
  Option.iter (fun m -> Qkd_obs.Health.tick m ~now) monitor

let finish ~metrics ~metrics_out ~monitor ~now rc =
  Option.iter
    (fun m ->
      Qkd_obs.Health.tick m ~now;
      Qkd_obs.Health.print_report m ~now)
    monitor;
  if metrics then Qkd_obs.Export.print_dump ();
  Option.iter (fun path -> Qkd_obs.Export.write_file path) metrics_out;
  rc

(* -- link subcommand -- *)

let run_link metrics metrics_out health pulses length_km mu eve_fraction
    beamsplit seed domains rounds =
  if domains < 1 then failwith "--domains must be >= 1";
  if rounds < 1 then failwith "--rounds must be >= 1";
  let monitor = make_monitor health in
  tick_monitor monitor ~now:0.0;
  let eve =
    match (eve_fraction, beamsplit) with
    | 0.0, false -> Eve.Passive
    | 0.0, true -> Eve.Beamsplit
    | f, false -> Eve.Intercept_resend f
    | f, true -> Eve.Intercept_and_beamsplit f
  in
  let config =
    {
      Link.darpa_default with
      Link.fiber = Fiber.make ~length_km ~insertion_loss_db:3.0 ();
      source = Source.weak_coherent ~mu;
      eve;
    }
  in
  let engine_config =
    {
      Engine.default_config with
      Engine.link = config;
      link_mode = Link.Batched { domains };
    }
  in
  let engine = Engine.create ~seed:(Int64.of_int seed) engine_config in
  if rounds = 1 then
    (match Engine.run_round engine ~pulses with
    | Ok m ->
        Format.printf "%a@." Engine.pp_round_metrics m;
        Format.printf "entropy: leak=%.0f multi-photon=%.0f secure=%d@."
          m.Engine.entropy.Qkd_protocol.Entropy.eavesdrop_leak
          m.Engine.entropy.Qkd_protocol.Entropy.multiphoton_leak
          m.Engine.entropy.Qkd_protocol.Entropy.secure_bits;
        if m.Engine.eve_known_sifted_bits > 0 then
          Format.printf "eve actually knew %d sifted bits@." m.Engine.eve_known_sifted_bits
    | Error f -> Format.printf "round failed: %a@." Engine.pp_failure f)
  else begin
    let distilled = ref 0 and sifted = ref 0 and elapsed = ref 0.0 in
    for _ = 1 to rounds do
      match Engine.run_round engine ~pulses with
      | Ok m ->
          distilled := !distilled + m.Engine.distilled_bits;
          sifted := !sifted + m.Engine.sifted_bits;
          elapsed := !elapsed +. m.Engine.elapsed_s;
          Format.printf "round %d: sifted %d, QBER %.4f, distilled %d bits@."
            (Engine.rounds_attempted engine)
            m.Engine.sifted_bits m.Engine.qber m.Engine.distilled_bits
      | Error f ->
          Format.printf "round %d failed: %a@."
            (Engine.rounds_attempted engine)
            Engine.pp_failure f
    done;
    Format.printf
      "%d rounds: %d completed, %d failed; sifted %d bits, distilled %d bits \
       over %.2f simulated s@."
      rounds
      (Engine.rounds_completed engine)
      (Engine.rounds_failed engine)
      !sifted !distilled !elapsed;
    if !elapsed > 0.0 then
      Format.printf "distilled rate: %.1f bits/s@."
        (float_of_int !distilled /. !elapsed)
  end;
  finish ~metrics ~metrics_out ~monitor
    ~now:(float_of_int (pulses * rounds) /. config.Link.pulse_rate_hz)
    0

let link_cmd =
  let pulses =
    Arg.(value & opt int 2_000_000 & info [ "pulses" ] ~doc:"Optical pulses to simulate.")
  in
  let length =
    Arg.(value & opt float 10.0 & info [ "length-km" ] ~doc:"Fiber length in km.")
  in
  let mu =
    Arg.(value & opt float 0.1 & info [ "mu" ] ~doc:"Mean photon number per pulse.")
  in
  let eve =
    Arg.(value & opt float 0.0 & info [ "eve" ] ~doc:"Intercept-resend fraction (0-1).")
  in
  let beamsplit =
    Arg.(value & flag & info [ "beamsplit" ] ~doc:"Enable photon-number splitting.")
  in
  let seed = Arg.(value & opt int 2003 & info [ "seed" ] ~doc:"Random seed.") in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ]
          ~doc:
            "OCaml domains for the photonics fast path; the result is \
             bit-identical for any count.")
  in
  let rounds =
    Arg.(
      value & opt int 1
      & info [ "rounds" ] ~doc:"Protocol rounds to run back to back.")
  in
  Cmd.v
    (Cmd.info "link" ~doc:"Run QKD protocol rounds over a simulated link")
    Term.(
      const run_link $ metrics_arg $ metrics_out_arg $ health_arg $ pulses
      $ length $ mu $ eve $ beamsplit $ seed $ domains $ rounds)

(* -- vpn subcommand -- *)

let run_vpn metrics metrics_out health duration transform key_rate pps =
  let transform, qkd =
    match transform with
    | "aes" -> (Sa.Aes128_cbc, Spd.Reseed)
    | "aes256" -> (Sa.Aes256_cbc, Spd.Reseed)
    | "3des" -> (Sa.Des3_cbc, Spd.Reseed)
    | "otp" -> (Sa.Otp, Spd.Otp_mode)
    | other -> failwith (Printf.sprintf "unknown transform %S" other)
  in
  let config =
    {
      Vpn.default_config with
      Vpn.transform;
      qkd;
      key_source = Vpn.Modeled key_rate;
      packets_per_second = pps;
      qblock_bits = (match qkd with Spd.Otp_mode -> 65_536 | _ -> 1024);
    }
  in
  let vpn = Vpn.create config in
  let monitor = make_monitor health in
  (* Step manually so the monitor samples once per simulated second. *)
  let dt = 0.1 in
  let steps = int_of_float (ceil (duration /. dt)) in
  tick_monitor monitor ~now:0.0;
  for i = 1 to steps do
    Vpn.step vpn ~dt;
    if i mod 10 = 0 then tick_monitor monitor ~now:(float_of_int i *. dt)
  done;
  let s = Vpn.stats vpn in
  Format.printf
    "@[<v>%.0f s of traffic:@ delivered %d/%d packets@ blackholed %d@ dropped \
     (no key) %d@ rekeys %d (failures %d)@ QKD bits consumed by IKE %d@ pool \
     levels: %d / %d bits@]@."
    s.Vpn.elapsed_s s.Vpn.delivered s.Vpn.attempted s.Vpn.blackholed
    s.Vpn.drop_no_key s.Vpn.rekeys s.Vpn.rekey_failures s.Vpn.qbits_consumed
    s.Vpn.pool_a_bits s.Vpn.pool_b_bits;
  finish ~metrics ~metrics_out ~monitor ~now:s.Vpn.elapsed_s 0

let vpn_cmd =
  let duration =
    Arg.(value & opt float 120.0 & info [ "duration" ] ~doc:"Simulated seconds.")
  in
  let transform =
    Arg.(
      value & opt string "aes"
      & info [ "transform" ] ~doc:"Cipher: aes, aes256, 3des or otp.")
  in
  let key_rate =
    Arg.(value & opt float 400.0 & info [ "key-rate" ] ~doc:"QKD delivery rate (b/s).")
  in
  let pps =
    Arg.(value & opt float 50.0 & info [ "pps" ] ~doc:"Traffic rate (packets/s).")
  in
  Cmd.v
    (Cmd.info "vpn" ~doc:"Run a QKD-keyed IPsec VPN with synthetic traffic")
    Term.(
      const run_vpn $ metrics_arg $ metrics_out_arg $ health_arg $ duration
      $ transform $ key_rate $ pps)

(* -- network subcommand -- *)

let run_network metrics metrics_out nodes degree p_fail trials =
  let mesh = Topology.random_mesh ~nodes ~degree ~seed:5L ~fiber_km:10.0 in
  let chain = Topology.chain ~n:(nodes - 2) ~kind:Topology.Trusted_relay ~fiber_km:10.0 in
  let am = Failure.availability ~trials mesh ~src:0 ~dst:(nodes - 1) ~p_fail in
  let ac = Failure.availability ~trials chain ~src:0 ~dst:(nodes - 1) ~p_fail in
  Format.printf
    "@[<v>%d nodes, link failure probability %.2f:@ mesh (avg degree %.1f): \
     availability %.4f@ point-to-point chain: availability %.4f@]@."
    nodes p_fail degree am ac;
  finish ~metrics ~metrics_out ~monitor:None ~now:0.0 0

let network_cmd =
  let nodes = Arg.(value & opt int 10 & info [ "nodes" ] ~doc:"Relay count.") in
  let degree =
    Arg.(value & opt float 3.5 & info [ "degree" ] ~doc:"Average mesh degree.")
  in
  let p_fail =
    Arg.(value & opt float 0.1 & info [ "p-fail" ] ~doc:"Per-link failure probability.")
  in
  let trials = Arg.(value & opt int 10_000 & info [ "trials" ] ~doc:"Monte Carlo trials.") in
  Cmd.v
    (Cmd.info "network" ~doc:"Compare meshed and point-to-point availability")
    Term.(
      const run_network $ metrics_arg $ metrics_out_arg $ nodes $ degree
      $ p_fail $ trials)

(* -- chain subcommand: the section-8 link-encryption variant -- *)

let run_chain metrics metrics_out health hops duration transform key_rate =
  let transform, qkd =
    match transform with
    | "aes" -> (Sa.Aes128_cbc, Spd.Reseed)
    | "otp" -> (Sa.Otp, Spd.Otp_mode)
    | other -> failwith (Printf.sprintf "unknown transform %S" other)
  in
  let config =
    {
      Qkd_ipsec.Link_encryption.default_config with
      Qkd_ipsec.Link_encryption.hops;
      transform;
      qkd;
      qblock_bits = (match qkd with Spd.Otp_mode -> 65_536 | _ -> 1024);
      per_link_key_rate_bps = key_rate;
    }
  in
  let t = Qkd_ipsec.Link_encryption.create config in
  let monitor = make_monitor health in
  tick_monitor monitor ~now:0.0;
  Qkd_ipsec.Link_encryption.advance t ~seconds:30.0;
  let now = ref 30.0 in
  let steps = int_of_float duration in
  for i = 1 to steps do
    now := !now +. 1.0;
    Qkd_ipsec.Link_encryption.advance t ~seconds:1.0;
    ignore (Qkd_ipsec.Link_encryption.send t ~now:!now (Bytes.make 256 (Char.chr (i land 0xFF))));
    tick_monitor monitor ~now:!now
  done;
  let s = Qkd_ipsec.Link_encryption.stats t in
  Format.printf
    "@[<v>%d hops, %d messages over %.0f s:@ delivered %d@ dropped (no key)      %d@ hop errors %d@ rekeys %d@ cleartext relays per message %d@]@."
    hops s.Qkd_ipsec.Link_encryption.sent duration
    s.Qkd_ipsec.Link_encryption.delivered
    s.Qkd_ipsec.Link_encryption.dropped_no_key
    s.Qkd_ipsec.Link_encryption.hop_errors s.Qkd_ipsec.Link_encryption.rekeys
    s.Qkd_ipsec.Link_encryption.cleartext_relays;
  finish ~metrics ~metrics_out ~monitor ~now:!now 0

let chain_cmd =
  let hops = Arg.(value & opt int 4 & info [ "hops" ] ~doc:"QKD links in the chain.") in
  let duration =
    Arg.(value & opt float 60.0 & info [ "duration" ] ~doc:"Seconds of traffic.")
  in
  let transform =
    Arg.(value & opt string "aes" & info [ "transform" ] ~doc:"aes or otp.")
  in
  let key_rate =
    Arg.(value & opt float 350.0 & info [ "key-rate" ] ~doc:"Per-link QKD rate (b/s).")
  in
  Cmd.v
    (Cmd.info "chain" ~doc:"Run traffic across a chain of QKD-encrypted links")
    Term.(
      const run_chain $ metrics_arg $ metrics_out_arg $ health_arg $ hops
      $ duration $ transform $ key_rate)

(* -- campaign subcommand -- *)

module Scenario = Qkd_scenario.Scenario
module Campaign = Qkd_scenario.Campaign
module Checkpoint = Qkd_scenario.Checkpoint

let print_campaign ?blackbox c =
  let r = Campaign.report ?blackbox c in
  Format.printf
    "@[<v>campaign %s: %d steps / %.0f s simulated@ rounds: %d ok, %d failed@ \
     sifted %d bits, distilled %d bits@ mean QBER %.4f@ alarms fired: %d%s@]@."
    r.Campaign.scenario r.Campaign.steps r.Campaign.duration_s
    r.Campaign.rounds_ok r.Campaign.rounds_failed r.Campaign.sifted_bits
    r.Campaign.distilled_bits r.Campaign.mean_qber r.Campaign.alerts_fired
    (match r.Campaign.fired_rules with
    | [] -> ""
    | rules -> Printf.sprintf " (%s)" (String.concat ", " rules));
  if r.Campaign.submitted > 0 then
    Format.printf "key delivery: %d/%d requests, %d link failures@."
      r.Campaign.delivered r.Campaign.submitted r.Campaign.link_failures;
  List.iter
    (fun (d : Campaign.detection) ->
      match d.latency_s with
      | Some l ->
          Format.printf "%s: detected %.0f s after injection (SLO %.0f s) — %s@."
            d.alarm l d.slo_s
            (if d.within_slo then "ok" else "MISSED")
      | None -> Format.printf "%s: NOT DETECTED (SLO %.0f s)@." d.alarm d.slo_s)
    r.Campaign.detections;
  r

(* Exit status is the campaign verdict: an attacked scenario must meet
   every detection-latency SLO; a clean control must stay silent. *)
let grade (spec : Scenario.t) (r : Campaign.report) =
  if spec.Scenario.injections = [] then
    if r.Campaign.alerts_fired = 0 then begin
      Format.printf "clean control: zero alarms — pass@.";
      0
    end
    else begin
      Format.printf "clean control: %d false alarms — FAIL@."
        r.Campaign.alerts_fired;
      1
    end
  else if
    List.for_all
      (fun (d : Campaign.detection) -> d.Campaign.within_slo)
      r.Campaign.detections
  then begin
    Format.printf "all detection-latency SLOs met@.";
    0
  end
  else begin
    Format.printf "detection-latency SLO MISSED@.";
    1
  end

let run_campaign metrics metrics_out list_scenarios name clean quick seed
    checkpoint checkpoint_at resume blackbox =
  if list_scenarios then begin
    List.iter print_endline (Scenario.names ());
    0
  end
  else
    let campaign =
      match resume with
      | Some file ->
          let c = Checkpoint.load file in
          Format.printf "resumed %s at t=%.0f s (step %d)@."
            (Campaign.spec c).Scenario.name (Campaign.now_s c)
            (Campaign.steps_done c);
          c
      | None ->
          let name =
            match name with
            | Some n -> n
            | None -> failwith "scenario NAME required (or --list / --resume)"
          in
          let spec =
            match Scenario.find ~quick name with
            | Some s -> s
            | None ->
                failwith (Printf.sprintf "unknown scenario %S; try --list" name)
          in
          let spec =
            match seed with
            | Some s -> Scenario.with_seed spec (Int64.of_int s)
            | None -> spec
          in
          let spec = if clean then Scenario.clean spec else spec in
          Campaign.create spec
    in
    match checkpoint with
    | Some file ->
        let at =
          match checkpoint_at with
          | Some s -> s
          | None -> (Campaign.spec campaign).Scenario.duration_s /. 2.0
        in
        Campaign.run_until campaign ~now:at;
        Checkpoint.save campaign file;
        Format.printf
          "checkpoint written to %s at t=%.0f s (step %d); continue with \
           --resume %s@."
          file (Campaign.now_s campaign)
          (Campaign.steps_done campaign)
          file;
        finish ~metrics ~metrics_out ~monitor:None
          ~now:(Campaign.now_s campaign) 0
    | None ->
        Campaign.run campaign;
        let r = print_campaign ?blackbox campaign in
        let rc = grade (Campaign.spec campaign) r in
        finish ~metrics ~metrics_out ~monitor:None
          ~now:(Campaign.now_s campaign) rc

let campaign_cmd =
  let scenario_name =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:"Built-in scenario name (see $(b,--list)).")
  in
  let list_scenarios =
    Arg.(value & flag & info [ "list" ] ~doc:"List the built-in scenarios.")
  in
  let clean =
    Arg.(
      value & flag
      & info [ "clean" ]
          ~doc:
            "Run the clean control twin: same seed and conditions, no \
             injections; exits non-zero if any alarm fires.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Shortened durations for smoke runs.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~doc:"Override the scenario seed.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Run to $(b,--checkpoint-at) (default: half the duration), save \
             the campaign state to $(docv) and stop.")
  in
  let checkpoint_at =
    Arg.(
      value
      & opt (some float) None
      & info [ "checkpoint-at" ] ~docv:"SECONDS"
          ~doc:"Simulated time at which to write the checkpoint.")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from a checkpoint file and run to completion — \
             bit-identical to the uninterrupted run.")
  in
  let blackbox =
    Arg.(
      value
      & opt (some string) None
      & info [ "blackbox" ] ~docv:"FILE"
          ~doc:
            "When any detection-latency SLO is missed, write the flight \
             recorder's event window to $(docv) for $(b,qkd_sim blackbox) \
             post-mortems.  Nothing is written on a clean grade.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run an adversarial campaign scenario graded against its \
          detection-latency SLOs")
    Term.(
      const run_campaign $ metrics_arg $ metrics_out_arg $ list_scenarios
      $ scenario_name $ clean $ quick $ seed $ checkpoint $ checkpoint_at
      $ resume $ blackbox)

(* -- blackbox subcommand: post-mortem queries over a flight dump -- *)

module Recorder = Qkd_obs.Recorder
module Query = Qkd_obs.Query
module Event = Qkd_obs.Event

(* The dump carries a flat span list, not a live tracer, so render the
   forest here: children under their parent, depth-first in recorded
   order, orphans (parent rotated out of the tracer ring) at the root. *)
let print_span_tree spans =
  let ids = List.fold_left (fun acc (s : Qkd_obs.Trace.span) ->
      s.Qkd_obs.Trace.id :: acc) [] spans in
  let known id = List.mem id ids in
  let children parent =
    List.filter
      (fun (s : Qkd_obs.Trace.span) -> s.Qkd_obs.Trace.parent = parent)
      spans
  in
  let rec print depth (s : Qkd_obs.Trace.span) =
    let open Qkd_obs.Trace in
    Format.printf "%s%s [%d] %.4f s%s%s@."
      (String.make (2 * depth) ' ')
      s.name s.id
      (if s.finished then s.end_s -. s.start_s else 0.0)
      (if s.finished then "" else " (unfinished)")
      (match s.notes with
      | [] -> ""
      | notes ->
          " " ^ String.concat " "
            (List.rev_map (fun (k, v) -> Printf.sprintf "%s=%s" k v) notes));
    List.iter (print (depth + 1)) (children (Some s.id))
  in
  List.iter
    (fun (s : Qkd_obs.Trace.span) ->
      match s.Qkd_obs.Trace.parent with
      | None -> print 0 s
      | Some p -> if not (known p) then print 0 s)
    spans

let run_blackbox file filters group_by field spans_flag events_n =
  let dump = Recorder.load file in
  let filters =
    List.map
      (fun spec ->
        match Query.parse_filter spec with
        | Ok f -> f
        | Error msg -> failwith msg)
      filters
  in
  let field =
    match Query.field_of_string field with
    | Some f -> f
    | None -> failwith (Printf.sprintf "unknown field %S" field)
  in
  let events = Query.apply filters dump.Recorder.events in
  Format.printf
    "@[<v>dump %s: reason %S, t=%.1f s, window %.0f s@ %d events retained \
     (%d matched, %d overwritten before capture), %d spans@]@."
    file dump.Recorder.reason dump.Recorder.at_s dump.Recorder.window_s
    (List.length dump.Recorder.events)
    (List.length events) dump.Recorder.dropped
    (List.length dump.Recorder.spans);
  Format.printf "@.%a@."
    (Query.pp_summaries ~field ~by:group_by)
    (Query.summarize ~field ~by:group_by events);
  if events_n > 0 then begin
    let tail =
      let n = List.length events in
      List.filteri (fun i _ -> i >= n - events_n) events
    in
    Format.printf "@.last %d matching events:@." (List.length tail);
    List.iter (fun ev -> Format.printf "  %a@." Event.pp ev) tail
  end;
  if spans_flag then begin
    Format.printf "@.spans:@.";
    print_span_tree dump.Recorder.spans
  end;
  0

let blackbox_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DUMP" ~doc:"Flight-recorder dump file (.bbox).")
  in
  let filters =
    Arg.(
      value & opt_all string []
      & info [ "filter"; "f" ] ~docv:"KEY=VALUE"
          ~doc:
            "Keep only matching events; repeatable (conjunction).  Keys \
             $(b,source), $(b,tenant), $(b,qos), $(b,verdict), $(b,trace), \
             $(b,since), $(b,until) hit schema fields; any other key \
             matches a label.")
  in
  let group_by =
    Arg.(
      value & opt string "source"
      & info [ "group-by" ] ~docv:"KEY"
          ~doc:"Grouping key for the summary table (same keys as filters).")
  in
  let field =
    Arg.(
      value & opt string "latency"
      & info [ "field" ] ~docv:"FIELD"
          ~doc:
            "Percentile field: $(b,latency), $(b,qber) or $(b,bits).")
  in
  let spans =
    Arg.(
      value & flag
      & info [ "spans" ] ~doc:"Print the captured causal span tree.")
  in
  let events_n =
    Arg.(
      value & opt int 0
      & info [ "events" ] ~docv:"N"
          ~doc:"Also print the last $(docv) matching events verbatim.")
  in
  Cmd.v
    (Cmd.info "blackbox"
       ~doc:
         "Query a flight-recorder dump post-mortem: filter the wide-event \
          stream, group it, and print p50/p95/p99 summaries")
    Term.(
      const run_blackbox $ file $ filters $ group_by $ field $ spans
      $ events_n)

(* -- dataplane subcommand: batched ESP forwarding throughput -- *)

module Gateway = Qkd_ipsec.Gateway
module Pktbuf = Qkd_ipsec.Pktbuf
module Traffic = Qkd_ipsec.Traffic
module Ip = Qkd_ipsec.Packet

let dataplane_gateways ~seed =
  let lifetime = { Sa.seconds = 1e9; kilobytes = max_int / 2048 } in
  let mk ~name ~wan ~lan ~peer ~lan_remote ~gw_seed =
    let gw =
      Gateway.create ~name ~wan ~lan ~lan_prefix:16
        ~psk:(Bytes.of_string "dataplane-cli")
        ~key_pool:(Qkd_protocol.Key_pool.create ())
        ~seed:gw_seed
    in
    Gateway.add_protect_policy gw ~lan_remote ~remote_prefix:16
      {
        Spd.transform = Sa.Aes128_cbc;
        lifetime;
        qkd = Spd.Reseed;
        peer = Ip.addr_of_string peer;
        qblock_bits = 1024;
      };
    gw
  in
  let a =
    mk ~name:"dpA" ~wan:"192.1.99.34" ~lan:"10.1.0.0" ~peer:"192.1.99.35"
      ~lan_remote:"10.2.0.0" ~gw_seed:(Int64.of_int seed)
  in
  let b =
    mk ~name:"dpB" ~wan:"192.1.99.35" ~lan:"10.2.0.0" ~peer:"192.1.99.34"
      ~lan_remote:"10.1.0.0" ~gw_seed:(Int64.of_int (seed + 2))
  in
  (* Both ends of each direction share key material, so draw it once
     and build mirrored SAs from the same bytes. *)
  let rng = Qkd_util.Rng.create (Int64.of_int (seed + 1)) in
  let mk_dir () =
    let enc_key = Qkd_util.Rng.bytes rng 16 in
    let auth_key = Qkd_util.Rng.bytes rng 20 in
    let mk () =
      Sa.create ~spi:0x7007l ~transform:Sa.Aes128_cbc ~enc_key ~auth_key
        ~lifetime ~now:0.0 ~keyed_from_qkd:true ()
    in
    (mk (), mk ())
  in
  let tx_a, rx_b = mk_dir () in
  let tx_b, rx_a = mk_dir () in
  Gateway.install_sas a
    ~peer:(Ip.addr_of_string "192.1.99.35")
    ~outbound:tx_a ~inbound:rx_a;
  Gateway.install_sas b
    ~peer:(Ip.addr_of_string "192.1.99.34")
    ~outbound:tx_b ~inbound:rx_b;
  (a, b)

let run_dataplane metrics metrics_out packets batch payload flows scalar seed =
  if batch < 1 then failwith "--batch must be >= 1";
  let a, b = dataplane_gateways ~seed in
  let traffic =
    Traffic.create
      ~seed:(Int64.of_int (seed + 10))
      ~src_net:"10.1.5.0" ~dst_net:"10.2.9.0" ~flows ~payload_len:payload ()
  in
  let forwarded = ref 0 in
  let report_every = 1.0 in
  let t_start = Unix.gettimeofday () in
  let t_mark = ref t_start and fwd_mark = ref 0 in
  let words_start = Gc.minor_words () in
  let tick () =
    let now = Unix.gettimeofday () in
    if now -. !t_mark >= report_every then begin
      let pps = float_of_int (!forwarded - !fwd_mark) /. (now -. !t_mark) in
      Format.printf "t=%5.1fs  %8d fwd  %10.0f pps@." (now -. t_start)
        !forwarded pps;
      t_mark := now;
      fwd_mark := !forwarded
    end
  in
  if scalar then
    while !forwarded < packets do
      let p = Traffic.next_packet traffic in
      (match Gateway.outbound a ~now:0.0 p with
      | Gateway.Tunnel outer -> (
          match Gateway.inbound b ~now:0.0 (Ip.parse (Ip.serialize outer)) with
          | Gateway.Deliver _ -> incr forwarded
          | _ -> failwith "dataplane: inbound did not deliver")
      | _ -> failwith "dataplane: outbound did not tunnel");
      if !forwarded land 0x3FF = 0 then tick ()
    done
  else begin
    let pool = Pktbuf.create ~capacity:2048 (3 * batch) in
    let src = Array.init batch (fun _ -> Pktbuf.alloc pool) in
    let mid = Array.init batch (fun _ -> Pktbuf.alloc pool) in
    let out = Array.init batch (fun _ -> Pktbuf.alloc pool) in
    while !forwarded < packets do
      for i = 0 to batch - 1 do
        ignore (Traffic.next_into traffic src.(i))
      done;
      let o = Gateway.outbound_batch a ~now:0.0 ~src ~dst:mid ~count:batch in
      let d = Gateway.inbound_batch b ~now:0.0 ~src:mid ~dst:out ~count:batch in
      if o <> batch || d <> batch then failwith "dataplane: batch dropped";
      forwarded := !forwarded + batch;
      tick ()
    done
  end;
  let dt = Unix.gettimeofday () -. t_start in
  let words = Gc.minor_words () -. words_start in
  Format.printf
    "%s path: %d packets in %.2f s — %.0f pps, %.1f minor words/packet@."
    (if scalar then "scalar" else "batched")
    !forwarded dt
    (float_of_int !forwarded /. dt)
    (words /. float_of_int !forwarded);
  finish ~metrics ~metrics_out ~monitor:None ~now:dt 0

let dataplane_cmd =
  let packets =
    Arg.(
      value & opt int 200_000
      & info [ "packets" ] ~doc:"Packets to forward through the tunnel.")
  in
  let batch =
    Arg.(value & opt int 64 & info [ "batch" ] ~doc:"Packets per batch.")
  in
  let payload =
    Arg.(
      value & opt int 256 & info [ "payload" ] ~doc:"Inner payload bytes.")
  in
  let flows =
    Arg.(value & opt int 4 & info [ "flows" ] ~doc:"Concurrent 5-tuples.")
  in
  let scalar =
    Arg.(
      value & flag
      & info [ "scalar" ]
          ~doc:"Use the per-packet reference path instead of the batch API.")
  in
  let seed = Arg.(value & opt int 700 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "dataplane"
       ~doc:
         "Forward synthetic traffic between two ESP gateways through the \
          batched zero-allocation fast path (or $(b,--scalar) reference \
          path), reporting throughput once per second")
    Term.(
      const run_dataplane $ metrics_arg $ metrics_out_arg $ packets $ batch
      $ payload $ flows $ scalar $ seed)

(* -- kms subcommand -- *)

let run_kms metrics metrics_out health topology tenants rps bits duration quick
    =
  let base = if quick then Qkd_kms.Load.quick else Qkd_kms.Load.default in
  let profile =
    {
      base with
      Qkd_kms.Load.topology =
        (match topology with
        | "ring" -> Qkd_kms.Load.Ring_of_rings
        | "hubspoke" -> Qkd_kms.Load.Hub_spoke
        | other -> failwith (Printf.sprintf "unknown topology %S" other));
      tenants = Option.value tenants ~default:base.Qkd_kms.Load.tenants;
      target_rps = Option.value rps ~default:base.Qkd_kms.Load.target_rps;
      bits = Option.value bits ~default:base.Qkd_kms.Load.bits;
      duration_s = Option.value duration ~default:base.Qkd_kms.Load.duration_s;
    }
  in
  let monitor = make_monitor health in
  let o = Qkd_kms.Load.run ?monitor profile in
  let s = o.Qkd_kms.Load.stats in
  Format.printf
    "metro %s: %d nodes, %d edges, %d endpoints, %d tenants@."
    topology o.Qkd_kms.Load.nodes o.Qkd_kms.Load.edges
    o.Qkd_kms.Load.endpoints s.Qkd_kms.Kms.tenants;
  Format.printf
    "offered %d req/s for %.0f s: %d submitted, %d delivered (%.0f req/s \
     simulated)@."
    profile.Qkd_kms.Load.target_rps profile.Qkd_kms.Load.duration_s
    s.Qkd_kms.Kms.submitted s.Qkd_kms.Kms.delivered o.Qkd_kms.Load.delivered_rps;
  Format.printf
    "rejected %d, shed %d, gave up %d, retries %d, released %d@."
    s.Qkd_kms.Kms.rejected s.Qkd_kms.Kms.shed s.Qkd_kms.Kms.gave_up
    s.Qkd_kms.Kms.retries s.Qkd_kms.Kms.released;
  List.iter
    (fun (c : Qkd_kms.Kms.class_stats) ->
      Format.printf "  %-8s %7d delivered, p50 %.4f s, p95 %.4f s@."
        (Qkd_kms.Qos.label c.Qkd_kms.Kms.klass)
        c.Qkd_kms.Kms.delivered c.Qkd_kms.Kms.p50_latency_s
        c.Qkd_kms.Kms.p95_latency_s)
    s.Qkd_kms.Kms.per_class;
  Format.printf
    "jain fairness %.4f, pad spend %d bits, accounting drift %d bits, %d \
     shards below watermark@."
    s.Qkd_kms.Kms.jain_fairness s.Qkd_kms.Kms.pad_spend_bits
    s.Qkd_kms.Kms.accounting_drift_bits s.Qkd_kms.Kms.shards_below_watermark;
  finish ~metrics ~metrics_out ~monitor
    ~now:(profile.Qkd_kms.Load.duration_s +. profile.Qkd_kms.Load.drain_grace_s)
    (if s.Qkd_kms.Kms.accounting_drift_bits = 0 then 0 else 1)

let kms_cmd =
  let topology =
    Arg.(
      value & opt string "ring"
      & info [ "topology" ] ~docv:"KIND"
          ~doc:"Metro preset: $(b,ring) (ring of rings) or $(b,hubspoke).")
  in
  let tenants =
    Arg.(
      value & opt (some int) None
      & info [ "tenants" ] ~doc:"Registered consumers.")
  in
  let rps =
    Arg.(
      value & opt (some int) None
      & info [ "rps" ] ~doc:"Offered key requests per simulated second.")
  in
  let bits =
    Arg.(
      value & opt (some int) None & info [ "bits" ] ~doc:"Key bits per request.")
  in
  let duration =
    Arg.(
      value & opt (some float) None
      & info [ "duration" ] ~doc:"Offered-load window, simulated seconds.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Use the smaller CI profile as the baseline.")
  in
  Cmd.v
    (Cmd.info "kms"
       ~doc:
         "Run key-distribution-as-a-service over a metro mesh: tens of \
          thousands of tenants drawing keys through weighted-fair admission \
          with per-class QoS, reported with fairness and exact accounting")
    Term.(
      const run_kms $ metrics_arg $ metrics_out_arg $ health_arg $ topology
      $ tenants $ rps $ bits $ duration $ quick)

(* -- system subcommand -- *)

let run_system metrics metrics_out health duration =
  let sys = System.create System.default_config in
  let monitor = make_monitor health in
  tick_monitor monitor ~now:0.0;
  (* Advance in 1 s slices so the monitor gets a time axis to window
     over; a single big advance would give it only two samples. *)
  let whole = int_of_float duration in
  for i = 1 to whole do
    System.advance sys ~seconds:1.0;
    tick_monitor monitor ~now:(float_of_int i)
  done;
  let rest = duration -. float_of_int whole in
  if rest > 0.0 then System.advance sys ~seconds:rest;
  Format.printf "%a@." System.pp_report (System.report sys);
  finish ~metrics ~metrics_out ~monitor ~now:duration 0

let system_cmd =
  let duration =
    Arg.(value & opt float 60.0 & info [ "duration" ] ~doc:"Simulated seconds.")
  in
  Cmd.v
    (Cmd.info "system" ~doc:"Run the full stack: QKD engine feeding an IPsec VPN")
    Term.(const run_system $ metrics_arg $ metrics_out_arg $ health_arg $ duration)

let () =
  let info =
    Cmd.info "qkd_sim" ~version:"1.0.0"
      ~doc:"Simulator for the DARPA Quantum Network (SIGCOMM 2003)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            link_cmd;
            vpn_cmd;
            chain_cmd;
            network_cmd;
            system_cmd;
            campaign_cmd;
            blackbox_cmd;
            dataplane_cmd;
            kms_cmd;
          ]))
