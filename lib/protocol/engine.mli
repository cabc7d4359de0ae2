(** The QKD protocol engine: the full pipeline of Fig 9.

    One [run_round] call plays a batch of pulses through the optical
    link and drives the raw detections through sifting, Cascade error
    correction, entropy estimation, privacy amplification and
    Wegman–Carter authentication, delivering distilled bits into the
    two ends' mirrored key pools.  Every public-channel message is
    metered and authenticated; authentication key is consumed per
    protocol transaction and replenished from each round's distilled
    output before the remainder is handed to the consumers. *)

module Bitstring = Qkd_util.Bitstring

(** Which reconciliation protocol runs (Appendix): the BBN Cascade
    variant, or the conventional parity-check baseline whose weak
    confirmation can let even-weight residual errors through —
    producing the silently diverged key pools of §7. *)
type ec_algorithm = Ec_cascade | Ec_parity_checks

type config = {
  link : Qkd_photonics.Link.config;
  link_mode : Qkd_photonics.Link.mode;
      (** execution strategy for the photonics hot path
          ([Link.default_mode] = batched, single domain); raise the
          domain count to shard frame simulation across cores with
          bit-identical output *)
  cascade : Cascade.config;
  ec : ec_algorithm;
  defense : Entropy.defense;
  accounting : Entropy.multiphoton_accounting;
  confidence : float;  (** paper's c; 5 ≈ 10⁻⁶ failure *)
  nonrandom_measure : int;  (** static extra r charge (usually 0) *)
  randomness_testing : bool;
      (** run the [Randomness] battery on each round's error-corrected
          bits and fold the measured shortening into r — the testing §6
          leaves as "a placeholder at the moment", implemented *)
  auth_prepositioned_bits : int;  (** out-of-band bootstrap secret *)
}

(** Paper-faithful defaults: DARPA link, 64-subset Cascade, Bennett
    defense at c = 5 (the estimate whose confidence treatment includes
    the multi-photon standard deviation, per the Appendix),
    beamsplit-only multi-photon accounting, 4096 pre-positioned
    authentication bits.  Slutsky is selectable; at c = 5 it is so
    conservative on metro-scale blocks that it usually yields no key —
    exactly the finite-block criticism §6 levels at it. *)
val default_config : config

type failure =
  | Auth_exhausted  (** pool could not pay for a tag — the DoS of §2 *)
  | Auth_tampered  (** a tag failed to verify; round discarded *)
  | Ec_not_verified  (** Cascade's confirmation parities disagreed *)

val pp_failure : Format.formatter -> failure -> unit

val failure_reason : failure -> string
(** The [reason] label value used on [engine_rounds_failed]. *)

type round_metrics = {
  pulses : int;
  gated_pulses : int;  (** pulses in frames Bob actually gated *)
  detections : int;
  double_clicks : int;
  frames_lost : int;
  sifted_bits : int;
  qber : float;  (** errors found / sifted *)
  errors_corrected : int;
  disclosed_bits : int;
  entropy : Entropy.estimate;
  distilled_bits : int;  (** after PA, minus auth replenishment *)
  auth_bits_consumed : int;
  channel_bytes : int;  (** total public-channel traffic *)
  elapsed_s : float;  (** simulated time for the batch *)
  sifted_bps : float;
  distilled_bps : float;
  eve_known_sifted_bits : int;  (** ground truth from the Eve model *)
}

val pp_round_metrics : Format.formatter -> round_metrics -> unit

type t

(** [create ?seed config] builds both endpoints with mirrored
    authentication pools. *)
val create : ?seed:int64 -> config -> t

val config : t -> config

val set_link : t -> Qkd_photonics.Link.config -> unit
(** Swap the optical-link conditions for subsequent rounds while the
    protocol state (auth pools, key pools, RNG lineage) persists —
    how campaign harnesses turn attacks and drift on and off
    mid-run. *)

(** [run_round ?tamper ?trace t ~pulses] plays one batch.  [tamper]
    simulates Eve forging a public-channel message: authentication
    must catch it and the round is discarded.  [trace] is a causal
    parent span: when non-null, the round records an [engine_round]
    child span annotated with its QBER and distilled bits (or failure
    reason).

    Reproducibility: the round's randomness comes from one draw on the
    engine RNG fanned out with [Rng.derive], so for a given seed every
    [round_metrics] field, both key pools, both auth pools and the
    running QBER estimate are bit-identical for any [link_mode] domain
    count. *)
val run_round :
  ?tamper:bool -> ?trace:Qkd_obs.Trace.id -> t -> pulses:int ->
  (round_metrics, failure) result

(** Distilled key delivered so far, per end.  The two pools always
    hold identical bits (that is the point of the system); they are
    distinct objects so consumers model the two gateways honestly. *)
val alice_pool : t -> Key_pool.t

val bob_pool : t -> Key_pool.t

(** Authentication state, for E12's exhaustion studies. *)
val alice_auth : t -> Auth.t

val bob_auth : t -> Auth.t

(** Round accounting.  A round either completes (its side effects
    committed, its metrics fed to the throughput series) or fails with
    a {!failure} (no side effects beyond the authentication bits
    already spent); [rounds_attempted] is always the sum of the two. *)
val rounds_completed : t -> int

val rounds_failed : t -> int
val rounds_attempted : t -> int

(** The running QBER estimate that sizes the next round's first
    Cascade pass — [None] until a round has verified, and updated only
    by rounds whose error correction verified (a failed round's error
    count is untrustworthy and must not skew the chain). *)
val last_qber : t -> float option
