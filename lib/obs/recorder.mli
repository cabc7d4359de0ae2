(** The flight recorder: bounded per-domain rings of wide {!Event}s,
    merged by sequence number into one stream, dumped to CRC-framed
    files on demand or the moment an alert fires.

    Each instrumented subsystem owns one lane and is its only writer;
    emission is lock-free (one array store, two atomic operations) and
    draws no randomness, so seeded runs are bit-identical with
    recording on or off.  Rings drop-oldest past [capacity]; memory is
    fixed at creation.  Reading the merged stream is a quiescence-time
    operation: a read racing an active writer may observe a torn
    lane. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 2048) events {e per lane}.
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int

(** {1 Lanes} — fixed single-writer slots. *)

val lane_count : int
val lane_engine : int  (** round commits, in commit order *)

val lane_net : int  (** scheduler delivery attempts *)

val lane_kms : int
val lane_esp : int  (** sampled gateway batches *)

val lane_scenario : int
val lane_label : int -> string

(** {1 Global recorder} — process-global but swappable, like
    {!Registry} and {!Trace}'s tracer. *)

val default : unit -> t
val use : t -> unit
val with_recorder : t -> (unit -> 'a) -> 'a

val set_recording : bool -> unit
(** Pause/resume emission process-wide without touching
    {!Control.enabled} (default on; ANDed with it). *)

val recording : unit -> bool

(** {1 Emission and reading} *)

val emit : t -> lane:int -> Event.t -> unit
(** Stamp [ev] with the next global sequence number and write it into
    [lane]'s ring.  Single writer per lane; no-op when recording is
    paused or {!Control} is disabled. *)

val record : lane:int -> Event.t -> unit
(** {!emit} into the current global recorder. *)

val events : t -> Event.t list
(** All retained events across lanes, merged in sequence order.
    Quiescence-time only. *)

val lane_events : t -> int -> Event.t list
(** One lane's retained events, oldest first. *)

val emitted : t -> int
(** Events ever emitted (including those since overwritten). *)

val retained : t -> int
val dropped : t -> int
(** Ring overwrites: [emitted - retained]. *)

val reset : t -> unit

(** {1 Dumps} — the black box itself: a merged event window plus the
    bounded tracer's spans, CRC-framed like a campaign checkpoint. *)

type dump = {
  reason : string;
  at_s : float;  (** simulated "now" at capture; 0.0 if unknown *)
  window_s : float;  (** 0.0 = everything retained *)
  events : Event.t list;  (** seq order *)
  spans : Trace.span list;
  dropped : int;  (** ring overwrites before capture *)
}

val snapshot : ?window_s:float -> ?now:float -> ?reason:string -> t -> dump
(** Capture the last [window_s] simulated seconds before [now]
    ([window_s <= 0] keeps everything retained).  Events stamped
    [at_s = 0.0] (no simulated clock) always survive the window. *)

val to_bytes : dump -> bytes
val of_bytes : bytes -> dump
(** @raise Invalid_argument on bad magic, truncation or CRC mismatch. *)

val save : dump -> string -> unit
val load : string -> dump

val fingerprint : dump -> string
(** Hex digest of the dump with wall-clock fields ([stage_s], spans)
    canonicalized away — deterministic for a seeded run. *)

(** {1 Dump on alarm} *)

val default_window_s : float
(** 60 simulated seconds. *)

val dump_path : dir:string -> string -> string
(** [dir]/blackbox_<rule>.bbox *)

val arm_alerts : ?window_s:float -> ?dir:string -> unit -> unit
(** Install the {!Alert.set_fired_hook} that snapshots the current
    global recorder to {!dump_path} whenever any rule fires, windowed
    to the [window_s] seconds before the transition. *)

val disarm_alerts : unit -> unit
