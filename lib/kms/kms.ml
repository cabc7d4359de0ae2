module Relay = Qkd_net.Relay
module Sim = Qkd_net.Sim

type config = {
  dispatch_interval_s : float;
  dispatch_budget : int;
  max_in_flight : int;
  shard_low_watermark : int;
  realtime : Qos.policy;
  standard : Qos.policy;
  bulk : Qos.policy;
}

let default_config =
  {
    dispatch_interval_s = 0.01;
    dispatch_budget = 256;
    max_in_flight = 65_536;
    shard_low_watermark = 1024;
    realtime = Qos.default_policy Qos.Realtime;
    standard = Qos.default_policy Qos.Standard;
    bulk = Qos.default_policy Qos.Bulk;
  }

let policy_for config = function
  | Qos.Realtime -> config.realtime
  | Qos.Standard -> config.standard
  | Qos.Bulk -> config.bulk

(* A queued request travelling through admission -> WFQ -> dispatch ->
   (retry loop) -> resolution.  [rq_id] is the submission ordinal —
   the id the request's wide events and exemplars carry, so a p95
   bucket witness leads straight back to the request. *)
type request = {
  rq_id : int;
  rq_tenant : Tenant.t;
  rq_bits : int;
  rq_submitted_s : float;
  mutable rq_attempts : int;
  mutable rq_backoff_s : float;
}

let class_index = function Qos.Realtime -> 0 | Qos.Standard -> 1 | Qos.Bulk -> 2

type t = {
  sim : Sim.t;
  relay : Relay.t;
  config : config;
  tenants : (int, Tenant.t) Hashtbl.t;
  mutable rev_tenant_ids : int list;  (** newest first *)
  queue : request Heap.t;
  shards : Shard.t;
  mutable vtime : float;  (** WFQ virtual time *)
  mutable dispatch_scheduled : bool;
  baseline_consumed_bits : int;
  watched : (int, unit) Hashtbl.t;  (** tenants with per-tenant gauges *)
  mutable submitted : int;
  mutable delivered : int;
  mutable rejected : int;
  mutable shed : int;
  mutable gave_up : int;
  mutable released : int;
  mutable retries : int;
  mutable in_flight : int;
  mutable delivered_bits : int;
  mutable pad_spend_bits : int;
  lat : Qkd_obs.Histogram.t array;
      (** per-class delivery latency, indexed by [class_index]; stats
          read bucket-interpolated {!Qkd_obs.Histogram.quantile}s, so
          memory is a fixed bucket ladder instead of a sample ring *)
}

let create ?(config = default_config) ~sim relay =
  if config.dispatch_interval_s <= 0.0 then
    invalid_arg "Kms.create: dispatch interval must be positive";
  if config.dispatch_budget < 1 then invalid_arg "Kms.create: dispatch_budget < 1";
  if config.max_in_flight < 1 then invalid_arg "Kms.create: max_in_flight < 1";
  List.iter
    (fun k -> Qos.validate_policy ~who:"Kms.create" (policy_for config k))
    Qos.all;
  {
    sim;
    relay;
    config;
    tenants = Hashtbl.create 1024;
    rev_tenant_ids = [];
    queue = Heap.create ();
    shards = Shard.create ~low_watermark:config.shard_low_watermark relay;
    vtime = 0.0;
    dispatch_scheduled = false;
    baseline_consumed_bits = Relay.total_consumed_bits relay;
    watched = Hashtbl.create 8;
    submitted = 0;
    delivered = 0;
    rejected = 0;
    shed = 0;
    gave_up = 0;
    released = 0;
    retries = 0;
    in_flight = 0;
    delivered_bits = 0;
    pad_spend_bits = 0;
    lat =
      Array.init 3 (fun _ ->
          Qkd_obs.Histogram.make ~buckets:Qkd_obs.Histogram.default_sim_buckets);
  }

let relay t = t.relay
let shards t = t.shards

(* -- Registry handles ---------------------------------------------- *)

let submitted_counter () =
  Qkd_obs.Registry.counter "kms_submitted_total"
    ~help:"Key requests submitted to the KMS, including rejected and shed"

(* Class-agnostic delivered counter: the SLO burn-rate rule needs one
   "good" series, not one per class. *)
let delivered_counter () =
  Qkd_obs.Registry.counter "kms_requests_total"
    ~labels:[ ("result", "delivered") ]
    ~help:"KMS key requests delivered, across all QoS classes"

let result_counter ~klass result =
  Qkd_obs.Registry.counter "kms_requests_total"
    ~labels:[ ("class", Qos.label klass); ("result", result) ]
    ~help:"KMS key requests by QoS class and final outcome"

let retry_counter () =
  Qkd_obs.Registry.counter "kms_retries_total"
    ~help:"Backoff retries of queued KMS requests"

let bits_counter () =
  Qkd_obs.Registry.counter "kms_bits_delivered_total"
    ~help:"End-to-end key bits delivered to KMS tenants"

let queue_gauge () =
  Qkd_obs.Registry.gauge "kms_queue_depth"
    ~help:"Requests in the KMS admission queue"

let shards_gauge () =
  Qkd_obs.Registry.gauge "kms_shards_below_watermark"
    ~help:"Relay-edge pool shards below the KMS low watermark"

let latency_histogram () =
  Qkd_obs.Registry.histogram "kms_latency_seconds"
    ~buckets:Qkd_obs.Histogram.default_sim_buckets
    ~help:"Simulated submit-to-delivery latency of queued KMS requests"

let set_queue_gauge t =
  Qkd_obs.Gauge.set (queue_gauge ()) (float_of_int (Heap.size t.queue))

(* One wide event per request resolution (and per admission
   rejection), into the flight recorder's KMS lane.  [at_s] is
   simulated time, so seeded-run dumps fingerprint deterministically;
   [id] is the submission ordinal. *)
let emit_event t (tn : Tenant.t) ~id ?(stage_s = [||]) ?(bits = 0)
    ?(labels = []) verdict =
  Qkd_obs.Recorder.record ~lane:Qkd_obs.Recorder.lane_kms
    (Qkd_obs.Event.make ~source:Qkd_obs.Event.Kms ~id ~at_s:(Sim.now t.sim)
       ~tenant:tn.Tenant.name
       ~qos:(Qos.label tn.Tenant.klass)
       ~stage_s ~bits ~labels ~verdict ())

let tenant_watch_gauges (tn : Tenant.t) =
  ( Qkd_obs.Registry.gauge "kms_tenant_delivered_bits"
      ~labels:[ ("tenant", tn.Tenant.name) ]
      ~help:"End-to-end key bits delivered, per watched tenant",
    Qkd_obs.Registry.gauge "kms_tenant_pad_spend_bits"
      ~labels:[ ("tenant", tn.Tenant.name) ]
      ~help:"Mesh pad bits spent, per watched tenant" )

let note_tenant_gauges t (tn : Tenant.t) =
  if Hashtbl.mem t.watched tn.Tenant.id then begin
    let d, p = tenant_watch_gauges tn in
    Qkd_obs.Gauge.set d (float_of_int tn.Tenant.delivered_bits);
    Qkd_obs.Gauge.set p (float_of_int tn.Tenant.pad_spend_bits)
  end

(* -- Tenant registry ----------------------------------------------- *)

let register t ~name ~klass ?(weight = 1.0) ?(quota_bits = max_int) ~src ~dst () =
  let n = Qkd_net.Topology.node_count (Relay.topology t.relay) in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Kms.register: unknown endpoint node";
  if src = dst then invalid_arg "Kms.register: tenant src = dst";
  let id = Hashtbl.length t.tenants in
  let tn = Tenant.make ~id ~name ~klass ~weight ~src ~dst ~quota_bits in
  Hashtbl.replace t.tenants id tn;
  t.rev_tenant_ids <- id :: t.rev_tenant_ids;
  id

let tenant t id =
  match Hashtbl.find_opt t.tenants id with
  | Some tn -> tn
  | None -> invalid_arg "Kms: unknown tenant id"

let tenants t = List.rev_map (fun id -> tenant t id) t.rev_tenant_ids
let tenant_count t = Hashtbl.length t.tenants

let watch_tenant t monitor id =
  let tn = tenant t id in
  Hashtbl.replace t.watched id ();
  ignore
    (Qkd_obs.Health.watch_gauge monitor "kms_tenant_delivered_bits"
       ~labels:[ ("tenant", tn.Tenant.name) ]);
  ignore
    (Qkd_obs.Health.watch_gauge monitor "kms_tenant_pad_spend_bits"
       ~labels:[ ("tenant", tn.Tenant.name) ]);
  note_tenant_gauges t tn

(* -- Accounting transitions ---------------------------------------- *)

let resolve_in_flight t (tn : Tenant.t) ~bits =
  tn.Tenant.reserved_bits <- tn.Tenant.reserved_bits - bits;
  tn.Tenant.in_flight <- tn.Tenant.in_flight - 1;
  t.in_flight <- t.in_flight - 1

let record_delivery t (tn : Tenant.t) (d : Relay.delivery) ~latency_s ~event_id
    =
  let bits = d.Relay.bits in
  let hops = List.length d.Relay.path - 1 in
  resolve_in_flight t tn ~bits;
  tn.Tenant.delivered <- tn.Tenant.delivered + 1;
  tn.Tenant.delivered_bits <- tn.Tenant.delivered_bits + bits;
  tn.Tenant.pad_spend_bits <- tn.Tenant.pad_spend_bits + (bits * hops);
  t.delivered <- t.delivered + 1;
  t.delivered_bits <- t.delivered_bits + bits;
  t.pad_spend_bits <- t.pad_spend_bits + (bits * hops);
  Shard.note_spend t.shards ~path:d.Relay.path ~bits;
  (match latency_s with
  | Some l ->
      Qkd_obs.Histogram.observe t.lat.(class_index tn.Tenant.klass) l;
      (* observe_ex: the bucket keeps this request's id as its
         exemplar, so an exported p95 bucket names a concrete
         request. *)
      Qkd_obs.Histogram.observe_ex (latency_histogram ()) ~event_id l;
      emit_event t tn ~id:event_id ~stage_s:[| l |] ~bits "ok"
  | None -> emit_event t tn ~id:event_id ~bits "ok");
  Qkd_obs.Counter.incr (result_counter ~klass:tn.Tenant.klass "delivered");
  Qkd_obs.Counter.incr (delivered_counter ());
  Qkd_obs.Counter.add (bits_counter ()) bits;
  note_tenant_gauges t tn

let record_gave_up t (tn : Tenant.t) ~bits ~event_id reason =
  resolve_in_flight t tn ~bits;
  tn.Tenant.gave_up <- tn.Tenant.gave_up + 1;
  t.gave_up <- t.gave_up + 1;
  emit_event t tn ~id:event_id ~bits reason;
  Qkd_obs.Counter.incr (result_counter ~klass:tn.Tenant.klass reason)

(* -- Leases --------------------------------------------------------- *)

type lease = {
  ls_id : int;  (** submission ordinal, for the lease's wide events *)
  ls_tenant : Tenant.t;
  ls_bits : int;
  ls_reservation : Relay.reservation;
  mutable ls_open : bool;
}

type lease_error = Over_quota | No_capacity of Relay.delivery_error

let lease_bits l = l.ls_bits
let lease_tenant l = l.ls_tenant.Tenant.id

let lease t ~tenant:id ~bits =
  if bits <= 0 then invalid_arg "Kms.lease: bits must be positive";
  let tn = tenant t id in
  t.submitted <- t.submitted + 1;
  tn.Tenant.requested <- tn.Tenant.requested + 1;
  Qkd_obs.Counter.incr (submitted_counter ());
  if Tenant.would_exceed_quota tn ~bits then begin
    tn.Tenant.rejected <- tn.Tenant.rejected + 1;
    t.rejected <- t.rejected + 1;
    emit_event t tn ~id:t.submitted ~bits "over_quota";
    Qkd_obs.Counter.incr (result_counter ~klass:tn.Tenant.klass "over_quota");
    Error Over_quota
  end
  else
    match
      Relay.reserve_key t.relay ~src:tn.Tenant.src ~dst:tn.Tenant.dst ~bits
    with
    | Error e ->
        tn.Tenant.gave_up <- tn.Tenant.gave_up + 1;
        t.gave_up <- t.gave_up + 1;
        emit_event t tn ~id:t.submitted ~bits "no_capacity";
        Qkd_obs.Counter.incr (result_counter ~klass:tn.Tenant.klass "no_capacity");
        Error (No_capacity e)
    | Ok resv ->
        tn.Tenant.reserved_bits <- tn.Tenant.reserved_bits + bits;
        tn.Tenant.in_flight <- tn.Tenant.in_flight + 1;
        t.in_flight <- t.in_flight + 1;
        Ok
          {
            ls_id = t.submitted;
            ls_tenant = tn;
            ls_bits = bits;
            ls_reservation = resv;
            ls_open = true;
          }

let commit_lease t l =
  if not l.ls_open then invalid_arg "Kms.commit_lease: lease already resolved";
  l.ls_open <- false;
  let d = Relay.commit_reservation t.relay l.ls_reservation in
  record_delivery t l.ls_tenant d ~latency_s:None ~event_id:l.ls_id;
  d

let release_lease t l =
  if not l.ls_open then invalid_arg "Kms.release_lease: lease already resolved";
  l.ls_open <- false;
  Relay.release_reservation t.relay l.ls_reservation;
  let tn = l.ls_tenant in
  resolve_in_flight t tn ~bits:l.ls_bits;
  tn.Tenant.released <- tn.Tenant.released + 1;
  t.released <- t.released + 1;
  emit_event t tn ~id:l.ls_id ~bits:l.ls_bits "released";
  Qkd_obs.Counter.incr (result_counter ~klass:tn.Tenant.klass "released")

(* -- WFQ admission and dispatch ------------------------------------- *)

(* Weighted-fair finish tag (start-time fair queueing): a tenant's
   requests finish [cost / weight] apart in virtual time, so over any
   contended interval each tenant's granted share is proportional to
   its weight — class weight x tenant weight — regardless of arrival
   pattern. *)
let enqueue t (rq : request) =
  let tn = rq.rq_tenant in
  let w = (policy_for t.config tn.Tenant.klass).Qos.weight *. tn.Tenant.weight in
  let f =
    Float.max t.vtime tn.Tenant.finish_tag +. (float_of_int rq.rq_bits /. w)
  in
  tn.Tenant.finish_tag <- f;
  Heap.push t.queue ~key:f rq;
  set_queue_gauge t

(* Dispatch runs as a periodic tick, not inline with [submit]: an
   admitted request waits for the next tick, so delivery latency
   reflects the service's cadence and queueing rather than collapsing
   to zero whenever supply is ample. *)
let rec ensure_dispatch t =
  if not t.dispatch_scheduled then begin
    t.dispatch_scheduled <- true;
    Sim.schedule_in t.sim ~delay:t.config.dispatch_interval_s (fun () ->
        dispatch t)
  end

and dispatch t =
  t.dispatch_scheduled <- false;
  let budget = ref t.config.dispatch_budget in
  let continue = ref true in
  while !continue && !budget > 0 do
    match Heap.pop_min t.queue with
    | None -> continue := false
    | Some (f, rq) ->
        decr budget;
        t.vtime <- Float.max t.vtime f;
        attempt t rq
  done;
  set_queue_gauge t;
  if not (Heap.is_empty t.queue) then ensure_dispatch t

and attempt t (rq : request) =
  let tn = rq.rq_tenant in
  rq.rq_attempts <- rq.rq_attempts + 1;
  match
    Relay.reserve_key t.relay ~src:tn.Tenant.src ~dst:tn.Tenant.dst
      ~bits:rq.rq_bits
  with
  | Ok resv ->
      let d = Relay.commit_reservation t.relay resv in
      record_delivery t tn d
        ~latency_s:(Some (Sim.now t.sim -. rq.rq_submitted_s))
        ~event_id:rq.rq_id
  | Error _ ->
      let p = policy_for t.config tn.Tenant.klass in
      if rq.rq_attempts >= p.Qos.max_attempts then
        record_gave_up t tn ~bits:rq.rq_bits ~event_id:rq.rq_id
          "attempts_exhausted"
      else begin
        let backoff = rq.rq_backoff_s in
        rq.rq_backoff_s <-
          Float.min (backoff *. p.Qos.backoff_factor) p.Qos.max_backoff_s;
        if Sim.now t.sim +. backoff -. rq.rq_submitted_s > p.Qos.deadline_s then
          record_gave_up t tn ~bits:rq.rq_bits ~event_id:rq.rq_id
            "deadline_exceeded"
        else begin
          t.retries <- t.retries + 1;
          Qkd_obs.Counter.incr (retry_counter ());
          Sim.schedule_in t.sim ~delay:backoff (fun () ->
              enqueue t rq;
              ensure_dispatch t)
        end
      end

let submit t ~tenant:id ~bits =
  if bits <= 0 then invalid_arg "Kms.submit: bits must be positive";
  let tn = tenant t id in
  t.submitted <- t.submitted + 1;
  tn.Tenant.requested <- tn.Tenant.requested + 1;
  Qkd_obs.Counter.incr (submitted_counter ());
  if Tenant.would_exceed_quota tn ~bits then begin
    tn.Tenant.rejected <- tn.Tenant.rejected + 1;
    t.rejected <- t.rejected + 1;
    emit_event t tn ~id:t.submitted ~bits "over_quota";
    Qkd_obs.Counter.incr (result_counter ~klass:tn.Tenant.klass "over_quota")
  end
  else if t.in_flight >= t.config.max_in_flight then begin
    (* Bounded service: shedding at admission beats an unbounded
       backlog that nobody's deadline survives. *)
    tn.Tenant.shed <- tn.Tenant.shed + 1;
    t.shed <- t.shed + 1;
    emit_event t tn ~id:t.submitted ~bits "shed";
    Qkd_obs.Counter.incr (result_counter ~klass:tn.Tenant.klass "shed")
  end
  else begin
    tn.Tenant.reserved_bits <- tn.Tenant.reserved_bits + bits;
    tn.Tenant.in_flight <- tn.Tenant.in_flight + 1;
    t.in_flight <- t.in_flight + 1;
    enqueue t
      {
        rq_id = t.submitted;
        rq_tenant = tn;
        rq_bits = bits;
        rq_submitted_s = Sim.now t.sim;
        rq_attempts = 0;
        rq_backoff_s =
          (policy_for t.config tn.Tenant.klass).Qos.base_backoff_s;
      };
    ensure_dispatch t
  end

(* -- Replenishment -------------------------------------------------- *)

let advance t ~seconds =
  Relay.advance t.relay ~seconds;
  Shard.refresh t.shards t.relay;
  Qkd_obs.Gauge.set (shards_gauge ())
    (float_of_int (Shard.below_watermark_count t.shards));
  set_queue_gauge t

(* -- Stats ----------------------------------------------------------- *)

type class_stats = {
  klass : Qos.klass;
  delivered : int;
  p50_latency_s : float;
  p95_latency_s : float;
}

type stats = {
  tenants : int;
  submitted : int;
  delivered : int;
  rejected : int;
  shed : int;
  gave_up : int;
  released : int;
  retries : int;
  in_flight : int;
  queue_depth : int;
  delivered_bits : int;
  pad_spend_bits : int;
  jain_fairness : float;
  accounting_drift_bits : int;
  shards_below_watermark : int;
  per_class : class_stats list;
}

(* Jain's index over per-tenant delivered bits: 1.0 = perfectly even,
   1/n = one tenant got everything.  An empty or idle tenant set is
   vacuously fair. *)
let jain_fairness (t : t) =
  let n = Hashtbl.length t.tenants in
  if n = 0 then 1.0
  else begin
    let sum = ref 0.0 and sum_sq = ref 0.0 in
    Hashtbl.iter
      (fun _ (tn : Tenant.t) ->
        let x = float_of_int tn.Tenant.delivered_bits in
        sum := !sum +. x;
        sum_sq := !sum_sq +. (x *. x))
      t.tenants;
    if !sum = 0.0 then 1.0
    else !sum *. !sum /. (float_of_int n *. !sum_sq)
  end

(* Conservation: everything the mesh's pools net-spent since this KMS
   was created must be accounted to some tenant's pad spend.  Exactly
   0 at quiescence (open leases hold consumed-but-uncommitted pads;
   they cancel once committed or released). *)
let accounting_drift_bits (t : t) =
  Relay.total_consumed_bits t.relay - t.baseline_consumed_bits
  - t.pad_spend_bits

let per_class_delivered (t : t) k =
  Hashtbl.fold
    (fun _ (tn : Tenant.t) acc ->
      if tn.Tenant.klass = k then acc + tn.Tenant.delivered else acc)
    t.tenants 0

let stats (t : t) =
  {
    tenants = Hashtbl.length t.tenants;
    submitted = t.submitted;
    delivered = t.delivered;
    rejected = t.rejected;
    shed = t.shed;
    gave_up = t.gave_up;
    released = t.released;
    retries = t.retries;
    in_flight = t.in_flight;
    queue_depth = Heap.size t.queue;
    delivered_bits = t.delivered_bits;
    pad_spend_bits = t.pad_spend_bits;
    jain_fairness = jain_fairness t;
    accounting_drift_bits = accounting_drift_bits t;
    shards_below_watermark = Shard.below_watermark_count t.shards;
    per_class =
      List.map
        (fun k ->
          let h = t.lat.(class_index k) in
          (* Bucket-interpolated quantiles (0.0 before any delivery). *)
          let q p =
            let v = Qkd_obs.Histogram.quantile h p in
            if Float.is_nan v then 0.0 else v
          in
          {
            klass = k;
            delivered = per_class_delivered t k;
            p50_latency_s = q 0.50;
            p95_latency_s = q 0.95;
          })
        Qos.all;
  }

(* -- Monitoring ------------------------------------------------------ *)

let install_monitor t monitor =
  ignore (Qkd_obs.Health.watch_counter monitor "kms_submitted_total");
  List.iter
    (fun k ->
      ignore
        (Qkd_obs.Health.watch_counter monitor "kms_requests_total"
           ~labels:[ ("class", Qos.label k); ("result", "delivered") ]))
    Qos.all;
  ignore
    (Qkd_obs.Health.watch_counter monitor "kms_requests_total"
       ~labels:[ ("result", "delivered") ]);
  ignore (Qkd_obs.Health.watch_counter monitor "kms_bits_delivered_total");
  ignore (Qkd_obs.Health.watch_gauge monitor "kms_queue_depth");
  ignore (Qkd_obs.Health.watch_gauge monitor "kms_shards_below_watermark");
  Qkd_obs.Health.add_rule monitor
    (Qkd_obs.Alert.kms_backlog ~max_depth:(t.config.max_in_flight / 2) ());
  Qkd_obs.Health.add_rule monitor (Qkd_obs.Alert.kms_delivery_slo_burn ())
