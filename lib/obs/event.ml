(* The wide event: one canonical record per unit of work — an engine
   round, a KMS request resolution, a scheduler delivery attempt, a
   (sampled) ESP batch, a campaign step.  Metrics aggregate these away;
   the flight recorder keeps the last N of them verbatim so a
   post-mortem can reconstruct the seconds before an alarm rather than
   just the counter totals after it.

   The schema is deliberately flat and Marshal-friendly (no closures,
   no custom blocks) so dumps survive the CRC-framed Checkpoint idiom.
   Fields a source doesn't use take cheap neutral defaults — the empty
   string, 0, nan — rather than options, keeping construction
   allocation-light on hot paths. *)

type source = Round | Kms | Sched | Esp | Mark

type t = {
  seq : int;  (** global commit order across all rings *)
  source : source;
  id : int;  (** per-source id: round number, request id, batch number *)
  at_s : float;  (** simulated seconds; 0.0 = no simulated clock *)
  tenant : string;
  qos : string;
  trace : int;  (** causal {!Trace.id}; 0 = none *)
  stage_s : float array;  (** per-stage wall latencies, source-defined *)
  qber : float;  (** nan = not applicable *)
  bits : int;
  verdict : string;
  labels : (string * string) list;
}

let source_label = function
  | Round -> "round"
  | Kms -> "kms"
  | Sched -> "sched"
  | Esp -> "esp"
  | Mark -> "mark"

let source_of_label = function
  | "round" -> Some Round
  | "kms" -> Some Kms
  | "sched" -> Some Sched
  | "esp" -> Some Esp
  | "mark" -> Some Mark
  | _ -> None

let empty =
  {
    seq = 0;
    source = Mark;
    id = 0;
    at_s = 0.0;
    tenant = "";
    qos = "";
    trace = 0;
    stage_s = [||];
    qber = Float.nan;
    bits = 0;
    verdict = "";
    labels = [];
  }

let make ?(at_s = 0.0) ?(tenant = "") ?(qos = "") ?(trace = 0)
    ?(stage_s = [||]) ?(qber = Float.nan) ?(bits = 0) ?(verdict = "ok")
    ?(labels = []) ~source ~id () =
  { seq = 0; source; id; at_s; tenant; qos; trace; stage_s; qber; bits;
    verdict; labels }

let latency_s t = Array.fold_left ( +. ) 0.0 t.stage_s

let pp ppf t =
  Format.fprintf ppf "#%d %s id=%d at=%.3f" t.seq (source_label t.source) t.id
    t.at_s;
  if t.tenant <> "" then Format.fprintf ppf " tenant=%s" t.tenant;
  if t.qos <> "" then Format.fprintf ppf " qos=%s" t.qos;
  if t.trace <> 0 then Format.fprintf ppf " trace=%d" t.trace;
  if not (Float.is_nan t.qber) then Format.fprintf ppf " qber=%.4f" t.qber;
  if t.bits <> 0 then Format.fprintf ppf " bits=%d" t.bits;
  if Array.length t.stage_s > 0 then
    Format.fprintf ppf " latency=%.6fs" (latency_s t);
  Format.fprintf ppf " verdict=%s" t.verdict;
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%s" k v) t.labels
