(** Key-distribution-as-a-service over a metro-scale trusted-relay
    mesh.

    The paper's endgame is QKD as shared infrastructure: many
    cryptographic consumers drawing keys from one metro network rather
    than one point-to-point link per pair.  This service multiplexes a
    {!Qkd_net.Relay} mesh across registered tenants:

    - a tenant registry with QoS classes ({!Qos.klass}), per-tenant
      weights and lifetime key-bit quotas;
    - an admission/dispatch core doing weighted-fair queueing across
      classes over an O(log n) priority queue ({!Heap}), with
      per-class retry/backoff/deadline policies driven by the event
      simulator;
    - a synchronous lease API ([lease] / [commit_lease] /
      [release_lease]) over [Relay]'s reservations, so aborted leases
      restore their pads and conserve bits exactly;
    - a per-edge shard view ({!Shard}) decomposing pad spend and
      scarcity edge by edge.

    The conservation law the test suite pins: at quiescence,
    [accounting_drift_bits] — mesh pool spend minus the sum of tenant
    pad spend — is exactly 0 bits. *)

type config = {
  dispatch_interval_s : float;  (** WFQ dispatch tick period *)
  dispatch_budget : int;  (** requests served per tick *)
  max_in_flight : int;  (** admission bound; excess is shed *)
  shard_low_watermark : int;  (** per-edge scarcity threshold, bits *)
  realtime : Qos.policy;
  standard : Qos.policy;
  bulk : Qos.policy;
}

val default_config : config
val policy_for : config -> Qos.klass -> Qos.policy

type t

(** [create ~sim relay] starts an empty service over [relay],
    snapshotting its consumed-bits counter as the accounting baseline.
    @raise Invalid_argument on a non-positive interval/budget/window
    or an invalid class policy. *)
val create : ?config:config -> sim:Qkd_net.Sim.t -> Qkd_net.Relay.t -> t

val relay : t -> Qkd_net.Relay.t
val shards : t -> Shard.t

(** {2 Tenants} *)

(** Registers a consumer between mesh nodes [src] and [dst]; returns
    its tenant id.  [weight] defaults to 1.0, [quota_bits] to
    unlimited.
    @raise Invalid_argument on unknown nodes or [src = dst]. *)
val register :
  t ->
  name:string ->
  klass:Qos.klass ->
  ?weight:float ->
  ?quota_bits:int ->
  src:int ->
  dst:int ->
  unit ->
  int

(** @raise Invalid_argument on an unknown id. *)
val tenant : t -> int -> Tenant.t

(** In registration order. *)
val tenants : t -> Tenant.t list

val tenant_count : t -> int

(** {2 Queued requests}

    [submit] runs the admission pipeline: quota gate (rejected), load
    gate (shed), then WFQ enqueue.  Dispatch, retries with per-class
    backoff, and deadline give-ups all happen as simulator events —
    drive them with [Qkd_net.Sim.run].  Outcomes land in {!stats} and
    the tenant's counters. *)

(** @raise Invalid_argument if [bits <= 0] or the tenant is unknown. *)
val submit : t -> tenant:int -> bits:int -> unit

(** {2 Leases}

    The synchronous path: reserve now, then commit or release exactly
    once.  A released lease restores every reserved pad, so it spends
    0 bits — [Relay]'s restore semantics make abort conservation
    exact, not approximate. *)

type lease
type lease_error = Over_quota | No_capacity of Qkd_net.Relay.delivery_error

val lease_bits : lease -> int
val lease_tenant : lease -> int

(** @raise Invalid_argument if [bits <= 0] or the tenant is unknown. *)
val lease : t -> tenant:int -> bits:int -> (lease, lease_error) result

(** @raise Invalid_argument if the lease was already resolved. *)
val commit_lease : t -> lease -> Qkd_net.Relay.delivery

(** @raise Invalid_argument if the lease was already resolved. *)
val release_lease : t -> lease -> unit

(** {2 Replenishment} *)

(** [advance t ~seconds] runs mesh distillation and watermark-driven
    rebalancing ([Relay.advance]), then refreshes the shard view and
    scarcity gauges. *)
val advance : t -> seconds:float -> unit

(** {2 Stats} *)

type class_stats = {
  klass : Qos.klass;
  delivered : int;
  p50_latency_s : float;  (** over the retained latency window *)
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
  pad_spend_bits : int;  (** bits x traversed edges, committed only *)
  jain_fairness : float;
      (** Jain's index over per-tenant delivered bits; 1.0 = even *)
  accounting_drift_bits : int;
      (** mesh pool spend since [create] minus Σ tenant pad spend;
          exactly 0 at quiescence *)
  shards_below_watermark : int;
  per_class : class_stats list;  (** in {!Qos.all} order *)
}

val stats : t -> stats
val jain_fairness : t -> float
val accounting_drift_bits : t -> int

(** {2 Monitoring} *)

(** Watches the service's registry metrics (submissions, per-class
    deliveries, queue depth, shard scarcity) and installs the KMS
    alert rules ({!Qkd_obs.Alert.kms_backlog},
    {!Qkd_obs.Alert.kms_delivery_slo_burn}). *)
val install_monitor : t -> Qkd_obs.Health.monitor -> unit

(** Opt a tenant into per-tenant gauges (delivered bits, pad spend) on
    the given monitor.  Opt-in keeps the label space bounded with tens
    of thousands of tenants. *)
val watch_tenant : t -> Qkd_obs.Health.monitor -> int -> unit
