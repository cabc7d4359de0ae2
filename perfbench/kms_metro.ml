(* Workload [kms_metro]: the 104-node metro ring of rings with 10k
   tenants spread over the three QoS classes, fed three kinds of
   traffic at once:

   - an open loop of queued [Kms.submit] at 10k requests per simulated
     second ([Load.default]'s rate), driven through [Sim.run] in 10 ms
     dispatch slices with [Kms.advance] refreshes every 0.5 s;
   - a closed-loop caller of the synchronous lease API that commits nine
     leases in ten and releases the tenth ([consume] against [restore]);
   - one core-edge outage ([Topology.set_edge]) so rerouting runs.

   Why: Dijkstra is most of KMS wall time, so this is where a route
   cache will show.  Supply comes from the analytic [Link_model]: no
   photonics, IKE or ESP runs. *)

open Common
module Kms = Qkd_kms.Kms
module Load = Qkd_kms.Load
module Qos = Qkd_kms.Qos
module Sim = Qkd_net.Sim
module Topology = Qkd_net.Topology
module Relay = Qkd_net.Relay
module Routing = Qkd_net.Routing
module Link = Qkd_photonics.Link
module Rng = Qkd_util.Rng
module Registry = Qkd_obs.Registry

let profile = Load.default
let slice_s = 0.01
let per_slice = profile.Load.target_rps / 100
let leases_per_slice = 25
let release_every = 10

(* Route computations the traced run replays after each spanned slice. *)
let routes_per_slice = 10

(* The outage: one core span down from 1 s to 3 s of simulated time. *)
let outage = (1.0, 3.0)
let core_rings = 8

type state = {
  topo : Topology.t;
  relay : Relay.t;
  sim : Sim.t;
  kms : Kms.t;
  ids : int array;
  pairs : (int * int) array;
  rng : Rng.t;  (** lease tenants *)
  core_edge : int * int;
}

(* Tenant endpoints are drawn from the seed; classes cycle so each
   holds a third of the tenants. *)
let build ?(tenants = profile.Load.tenants) seed () =
  let rng = Rng.create (Int64.of_int seed) in
  let topo = Topology.metro_ring_of_rings ~fiber_km:profile.Load.fiber_km () in
  let relay =
    Relay.create
      ~base_config:
        { Link.darpa_default with Link.pulse_rate_hz = profile.Load.pulse_rate_hz }
      ~low_watermark:profile.Load.low_watermark
      ~high_watermark:profile.Load.high_watermark topo
  in
  Relay.advance relay ~seconds:profile.Load.prefill_s;
  let sim = Sim.create () in
  let kms = Kms.create ~sim relay in
  let eps =
    Topology.nodes topo
    |> List.filter (fun (n : Topology.node) -> n.Topology.kind = Topology.Endpoint)
    |> List.map (fun (n : Topology.node) -> n.Topology.id)
    |> Array.of_list
  in
  let ne = Array.length eps in
  let pairs =
    Array.init tenants (fun _ ->
        let src = Rng.int rng ne in
        let dst = (src + 1 + Rng.int rng (ne - 1)) mod ne in
        (eps.(src), eps.(dst)))
  in
  let ids =
    Array.mapi
      (fun i (src, dst) ->
        let klass =
          match i mod 3 with 0 -> Qos.Realtime | 1 -> Qos.Standard | _ -> Qos.Bulk
        in
        Kms.register kms ~name:(Printf.sprintf "tenant%d" i) ~klass ~src ~dst ())
      pairs
  in
  (* hubs are the first [core_rings] nodes of the preset *)
  let hub = Rng.int rng core_rings in
  { topo; relay; sim; kms; ids; pairs; rng; core_edge = (hub, (hub + 1) mod core_rings) }

let counter ?labels name = Qkd_obs.Counter.value (Registry.counter ?labels name)

type tally = {
  ticks : samples;  (** loaded slices *)
  traced_ticks : samples;
  leases : samples;  (** lease plus commit or release *)
  mutable busy_s : float;  (** submit and Sim.run time, drain included *)
  mutable lease_s : float;  (** every lease call, refused ones included *)
  mutable lease_words : float;  (** minor words of the spanned [Kms.lease] calls *)
  mutable leased : int;
  mutable committed : int;
  mutable refused : int;  (** leases refused for lack of capacity *)
  mutable queue_depth_max : float;
}

let tally () =
  {
    ticks = samples ();
    traced_ticks = samples ();
    leases = samples ();
    busy_s = 0.0;
    lease_s = 0.0;
    lease_words = 0.0;
    leased = 0;
    committed = 0;
    refused = 0;
    queue_depth_max = 0.0;
  }

(* Runs the service until [stop ()] says so, then drains it to
   quiescence.  [between] runs before every slice.  With a tracer, two
   slices in three are spanned, the third gives the untraced baseline,
   and [on_spanned] runs after each spanned slice.  (Three, not two:
   the 0.5 s refresh falls every 50 slices, so with two it would always
   land on the same side.) *)
let drive ?(outage = outage) ?(between = ignore) ?(on_spanned = ignore) st ~tr ~stop t =
  let n = Array.length st.ids in
  let cur_tr = ref None in
  let rec refresh () =
    span !cur_tr "kms.advance" (fun _ -> Kms.advance st.kms ~seconds:profile.Load.advance_every_s);
    Sim.schedule_in st.sim ~delay:profile.Load.advance_every_s refresh
  in
  Sim.schedule st.sim ~at:profile.Load.advance_every_s refresh;
  let a, b = st.core_edge in
  Sim.schedule st.sim ~at:(fst outage) (fun () -> Topology.set_edge st.topo a b ~up:false);
  Sim.schedule st.sim ~at:(snd outage) (fun () -> Topology.set_edge st.topo a b ~up:true);
  let depth = Registry.gauge "kms_queue_depth" in
  (* Slice ends are accumulated with the same float addition the
     service uses to schedule its dispatch tick ([Sim.schedule_in] from
     the submit time), so a slice's dispatch lands exactly on the slice
     end and runs inside it; [float k *. slice_s] would differ by an ulp
     now and then, moving dispatches to the next slice and making tick
     times bimodal. *)
  let cursor = ref 0 and k = ref 0 and until = ref (Sim.now st.sim) in
  let tick () =
    incr k;
    until := !until +. slice_s;
    let until = !until in
    let (), dt = timed (fun () -> span !cur_tr "kms.tick" (fun _ -> Sim.run st.sim ~until)) in
    t.busy_s <- t.busy_s +. dt;
    dt
  in
  while not (stop ()) do
    between ();
    let spanned =
      match tr with
      | Some tr -> !k mod 3 <> 0 && room tr (4 + (2 * leases_per_slice) + (4 * routes_per_slice))
      | None -> false
    in
    cur_tr := if spanned then tr else None;
    let (), dt =
      timed (fun () ->
          span !cur_tr "kms.submit" (fun _ ->
              for _ = 1 to per_slice do
                Kms.submit st.kms ~tenant:st.ids.(!cursor mod n) ~bits:profile.Load.bits;
                incr cursor
              done))
    in
    t.busy_s <- t.busy_s +. dt;
    (* the queue is deepest between the arrivals and their dispatch *)
    if tr <> None then
      t.queue_depth_max <- Float.max t.queue_depth_max (Qkd_obs.Gauge.value depth);
    add (if spanned then t.traced_ticks else t.ticks) (tick ());
    for _ = 1 to leases_per_slice do
      let tenant = st.ids.(Rng.int st.rng n) in
      t.leased <- t.leased + 1;
      let ok, dt =
        timed (fun () ->
            let lease =
              span !cur_tr "kms.lease" (fun _ ->
                  let l, w = minor_words (fun () -> Kms.lease st.kms ~tenant ~bits:profile.Load.bits) in
                  if spanned then t.lease_words <- t.lease_words +. w;
                  l)
            in
            match lease with
            | Error _ -> false
            | Ok l ->
                if t.leased mod release_every = 0 then
                  span !cur_tr "kms.release" (fun _ -> Kms.release_lease st.kms l)
                else begin
                  t.committed <- t.committed + 1;
                  ignore (span !cur_tr "kms.commit" (fun _ -> Kms.commit_lease st.kms l))
                end;
                true)
      in
      t.lease_s <- t.lease_s +. dt;
      if ok then add t.leases dt else t.refused <- t.refused + 1
    done;
    if spanned then on_spanned ()
  done;
  cur_tr := None;
  (* Drain past the longest class deadline at most. *)
  let drain_until = Sim.now st.sim +. profile.Load.drain_grace_s in
  while (Kms.stats st.kms).Kms.in_flight > 0 && Sim.now st.sim < drain_until do
    ignore (tick ())
  done

let fingerprint seed =
  let st = build ~tenants:300 seed () in
  let t = tally () in
  let slices = ref 0 in
  drive ~outage:(0.2, 0.4) st ~tr:None ~stop:(fun () -> incr slices; !slices > 60) t;
  let s = Kms.stats st.kms in
  [
    ("delivered", s.Kms.delivered);
    ("delivered_bits", s.Kms.delivered_bits);
    ("retries", s.Kms.retries);
    ("gave_up", s.Kms.gave_up);
    ("reroutes", Relay.reroutes st.relay);
    ("pad_spend_bits", s.Kms.pad_spend_bits);
    ("refused_leases", t.refused);
  ]

let run r ~seed ~seconds =
  determinism r fingerprint ~seed;
  let st, su = setup ~seconds (build seed) in
  let tr = if r.traced then Some (tracer 200_000) else None in
  let t = tally () in
  let hops0 = counter "net_relay_hops_total"
  and delivered0 = counter ~labels:[ ("result", "delivered") ] "net_relay_requests_total"
  and events0 = counter "net_sim_events_total" in
  (* The benchmark's own route computations over the workload's tenant
     pairs, the three a resilient reservation makes: the hop-shortest
     path, a path weighted by pool depth, and the edge-disjoint set.
     They run beside the spanned slices, so they see the same load. *)
  let key_aware (e : Topology.edge) =
    if not e.Topology.up then infinity
    else 1.0 +. (1.0 /. Float.max 1.0 (Relay.pool_bits st.relay e.Topology.a e.Topology.b))
  in
  let pair = ref 0 and route_words = ref 0.0 in
  let routes () =
    for _ = 1 to routes_per_slice do
      let src, dst = st.pairs.(!pair mod Array.length st.pairs) in
      incr pair;
      (* minor words of the three calls alone, not of their spans *)
      let words f = route_words := !route_words +. snd (minor_words f) in
      span tr "net.route" (fun parent ->
          span tr ~parent "net.shortest_path" (fun _ ->
              words (fun () -> Routing.shortest_path st.topo ~src ~dst ~weight:Routing.Hops));
          span tr ~parent "net.key_aware_path" (fun _ ->
              words (fun () ->
                  Routing.shortest_path st.topo ~src ~dst ~weight:(Routing.Custom key_aware)));
          span tr ~parent "net.edge_disjoint" (fun _ ->
              words (fun () -> Routing.edge_disjoint_paths st.topo ~src ~dst)))
    done
  in
  let deadline = now () +. seconds in
  drive ~between:(fun () -> setup_due su) ~on_spanned:routes st ~tr
    ~stop:(fun () -> now () >= deadline) t;
  setup_done r su;
  let s = Kms.stats st.kms in
  (* Kms counts leases among its submissions, and a refused lease as a
     give-up (no tenant has a quota here). *)
  r.attempted <- s.Kms.submitted;
  r.failed <- s.Kms.shed + s.Kms.rejected + s.Kms.gave_up;
  let queued_resolved = s.Kms.delivered - t.committed + s.Kms.gave_up - t.refused in
  check r "quiescent" (s.Kms.in_flight = 0);
  check r "accounting_drift_zero" (s.Kms.accounting_drift_bits = 0);
  check r "jain_at_least_0.9" (s.Kms.jain_fairness >= 0.9);
  Printf.printf "note kms submitted=%d delivered=%d gave_up=%d leases=%d refused=%d jain=%.4f sim_s=%.2f\n"
    s.Kms.submitted s.Kms.delivered s.Kms.gave_up t.leased t.refused s.Kms.jain_fairness
    (Sim.now st.sim);
  match tr with
  | None ->
      metric r ~n:(count t.ticks) "throughput_per_s" "1/s"
        (float_of_int queued_resolved /. t.busy_s);
      metric r ~n:t.leased "goodput_bits_per_s" "bit/s"
        (float_of_int s.Kms.delivered_bits /. (t.busy_s +. t.lease_s));
      metric r ~n:(count t.leases) "op_p50_s" "s" (quantile t.leases 50);
      latency r ~p50:"tick_p50_s" ~p99:"tick_p99_s" t.ticks;
      latency r ~p50:"lease_p50_s" ~p99:"lease_p99_s" t.leases
  | Some tracer ->
      layer_metrics r tracer ~target:"net.route" ~target_words:!route_words ~op:"kms.lease"
        ~op_words:t.lease_words;
      ignore (span_detail r tracer ~span:"kms.submit" "kms.submit_s");
      ignore (span_detail r tracer ~span:"kms.tick" "kms.tick_s");
      ignore (span_detail r tracer ~span:"kms.advance" "kms.advance_s");
      let lease = span_detail r tracer ~span:"kms.lease" "kms.lease_s" in
      ignore (span_detail r tracer ~span:"kms.commit" "kms.commit_s");
      ignore (span_detail r tracer ~span:"kms.release" "kms.release_s");
      ignore (span_detail r tracer ~span:"net.shortest_path" "net.shortest_path_s");
      let route = span_detail r tracer ~span:"net.route" "net.route_s" in
      detail r "net.route_share_of_lease" "ratio" (quantile route 50 /. quantile lease 50);
      detail r "kms.queue_depth_max" "count" t.queue_depth_max;
      detail r "kms.retries_per_request" "ratio" (ratio s.Kms.retries s.Kms.submitted);
      let delivered = counter ~labels:[ ("result", "delivered") ] "net_relay_requests_total" - delivered0 in
      detail r "net.reroutes_per_request" "ratio" (ratio (Relay.reroutes st.relay) delivered);
      detail r "net.hops_per_request" "ratio" (ratio (counter "net_relay_hops_total" - hops0) delivered);
      detail r "net.sim_events" "count" (float_of_int (counter "net_sim_events_total" - events0));
      overhead r ~untraced:t.ticks ~traced:t.traced_ticks;
      trace_totals r tracer
