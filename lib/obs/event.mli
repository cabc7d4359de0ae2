(** The wide event: one canonical, Marshal-friendly record per unit of
    work (engine round, KMS request, scheduler delivery, sampled ESP
    batch, campaign step).  Emitted into the flight {!Recorder}'s
    per-site rings; the fixed schema keeps post-mortem queries uniform
    across subsystems. *)

type source = Round | Kms | Sched | Esp | Mark

type t = {
  seq : int;  (** global commit order, assigned by the recorder *)
  source : source;
  id : int;  (** per-source id: round number, request id, batch number *)
  at_s : float;  (** simulated seconds; 0.0 = no simulated clock *)
  tenant : string;
  qos : string;
  trace : int;  (** causal {!Trace.id}; 0 = none *)
  stage_s : float array;  (** per-stage wall latencies, source-defined *)
  qber : float;  (** [nan] = not applicable *)
  bits : int;
  verdict : string;
  labels : (string * string) list;
}

val make :
  ?at_s:float -> ?tenant:string -> ?qos:string -> ?trace:int ->
  ?stage_s:float array -> ?qber:float -> ?bits:int -> ?verdict:string ->
  ?labels:(string * string) list -> source:source -> id:int -> unit -> t
(** [seq] is 0 until the recorder stamps it at emission. *)

val empty : t
(** The neutral event rings are pre-filled with. *)

val source_label : source -> string
val source_of_label : string -> source option

val latency_s : t -> float
(** Sum of [stage_s]. *)

val pp : Format.formatter -> t -> unit
