(* The flight recorder: bounded per-domain rings of wide events.

   Each instrumented subsystem owns one lane — a preallocated
   [Event.t array] plus an atomic head — and is that lane's only
   writer, so emission is a single array store and two atomic ops with
   no locks and no allocation beyond the event itself.  A global
   atomic sequence number stamps every event at emission; the merged
   view sorts on it, which makes cross-lane ordering exact for events
   emitted from the committing domain and best-effort (emission order,
   not observation order) for concurrent writers.

   Rings drop-oldest: a lane past capacity overwrites its oldest slot
   and the loss is counted, never allocated around.  Memory is fixed
   at creation: lanes x capacity event slots, full stop.

   Reading ([events], [snapshot]) is a quiescence-time operation — the
   merging reader assumes lane writers are parked (end of run, dump on
   alarm from the evaluating domain, bench teardown).  A read racing a
   writer can observe a torn lane (head advanced, slot not yet
   visible); this is the documented price of the lock-free hot path.

   Determinism contract: the recorder itself draws no randomness and
   the emission path never perturbs caller state, so seeded runs are
   bit-identical with recording on or off.  Events carry simulated
   time in [at_s] (0.0 where no simulated clock exists) and wall-clock
   only inside [stage_s]; [fingerprint] canonicalizes the latter away,
   so a seeded run's dump fingerprint is reproducible. *)

type lane = { ring : Event.t array; head : int Atomic.t }

type t = {
  capacity : int;  (** per lane *)
  lanes : lane array;
  seq : int Atomic.t;
}

(* Fixed lane map: one lane per single-writer instrumentation site.
   Every current site writes from the coordinating domain; separate
   lanes keep one busy site from evicting another's trail. *)
let lane_count = 5
let lane_engine = 0  (* round commits, in commit order *)
let lane_net = 1  (* scheduler delivery attempts *)
let lane_kms = 2
let lane_esp = 3  (* sampled gateway batches *)
let lane_scenario = 4

let lane_label = function
  | 0 -> "engine"
  | 1 -> "net"
  | 2 -> "kms"
  | 3 -> "esp"
  | 4 -> "scenario"
  | n -> string_of_int n

let default_capacity = 2048

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then
    invalid_arg "Recorder.create: capacity must be positive";
  {
    capacity;
    lanes =
      Array.init lane_count (fun _ ->
          { ring = Array.make capacity Event.empty; head = Atomic.make 0 });
    seq = Atomic.make 0;
  }

let capacity t = t.capacity

(* Process-global but swappable, like Registry and Trace's tracer, so
   benches and tests isolate their streams. *)
let global = create ()
let current = ref global
let default () = !current
let use t = current := t

let with_recorder t f =
  let previous = !current in
  current := t;
  Fun.protect ~finally:(fun () -> current := previous) f

(* A separate recording switch so the recorder can be paused (e.g.
   while measuring its own overhead) without disabling the rest of the
   Qkd_obs stack.  Atomic: read from every lane's writer domain. *)
let recording_flag = Atomic.make true
let set_recording b = Atomic.set recording_flag b
let recording () = Atomic.get recording_flag

let emit t ~lane ev =
  if Control.enabled () && Atomic.get recording_flag then begin
    let l = t.lanes.(lane) in
    let h = Atomic.get l.head in
    l.ring.(h mod t.capacity) <-
      { ev with Event.seq = Atomic.fetch_and_add t.seq 1 };
    Atomic.set l.head (h + 1)
  end

let record ~lane ev = emit !current ~lane ev

let lane_events t lane =
  let l = t.lanes.(lane) in
  let h = Atomic.get l.head in
  let n = min h t.capacity in
  List.init n (fun i -> l.ring.((h - n + i) mod t.capacity))

let events t =
  Array.to_list t.lanes
  |> List.mapi (fun lane _ -> lane_events t lane)
  |> List.concat
  |> List.sort (fun a b -> compare a.Event.seq b.Event.seq)

let emitted t = Atomic.get t.seq

let dropped t =
  Array.fold_left
    (fun acc l -> acc + max 0 (Atomic.get l.head - t.capacity))
    0 t.lanes

let retained t =
  Array.fold_left
    (fun acc l -> acc + min (Atomic.get l.head) t.capacity)
    0 t.lanes

let reset t =
  Array.iter (fun l -> Atomic.set l.head 0) t.lanes;
  Atomic.set t.seq 0

(* -- dumps: the black box itself.  A dump is the merged event window
   plus the bounded tracer's causal spans, CRC-framed exactly like a
   campaign checkpoint so truncated or corrupted files fail loudly
   instead of feeding garbage to Marshal. -- *)

type dump = {
  reason : string;
  at_s : float;  (** simulated "now" at capture; 0.0 if unknown *)
  window_s : float;  (** 0.0 = everything retained *)
  events : Event.t list;  (** seq order *)
  spans : Trace.span list;
  dropped : int;  (** ring overwrites before capture *)
}

let snapshot ?(window_s = 0.0) ?(now = 0.0) ?(reason = "manual") t =
  let all = events t in
  let events =
    if window_s <= 0.0 then all
    else
      (* Events stamped 0.0 have no simulated clock (engine rounds in
         wall-clock-only runs); they are kept — a window should never
         hide the engine's own trail. *)
      List.filter
        (fun e -> e.Event.at_s = 0.0 || e.Event.at_s >= now -. window_s)
        all
  in
  { reason; at_s = now; window_s; events; spans = Trace.spans ();
    dropped = dropped t }

(* Bumped whenever [Event.t]'s Marshal layout changes, so an old dump
   fails loudly instead of decoding one source as another. *)
let magic = "QKDBBOX\x02"

let to_bytes d =
  let payload = Marshal.to_bytes d [] in
  let crc = Qkd_util.Crc32.digest payload in
  let b = Buffer.create (Bytes.length payload + 16) in
  Buffer.add_string b magic;
  Buffer.add_int32_be b crc;
  Buffer.add_int64_be b (Int64.of_int (Bytes.length payload));
  Buffer.add_bytes b payload;
  Buffer.to_bytes b

let of_bytes b =
  let fail msg = invalid_arg ("Recorder.of_bytes: " ^ msg) in
  let mlen = String.length magic in
  if Bytes.length b < mlen + 12 then fail "truncated header";
  if Bytes.sub_string b 0 mlen <> magic then fail "bad magic or version";
  let crc = Bytes.get_int32_be b mlen in
  let len = Int64.to_int (Bytes.get_int64_be b (mlen + 4)) in
  if len < 0 || Bytes.length b <> mlen + 12 + len then fail "bad payload length";
  let payload = Bytes.sub b (mlen + 12) len in
  if Qkd_util.Crc32.digest payload <> crc then fail "CRC mismatch";
  (Marshal.from_bytes payload 0 : dump)

let save d path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (to_bytes d))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let b = Bytes.create len in
      really_input ic b 0 len;
      of_bytes b)

(* The deterministic identity of a dump: everything except wall-clock.
   [stage_s] latencies are host timings and spans run on the host
   clock, so both are canonicalized away; what remains — sequence,
   sources, ids, simulated times, QBER, bits, verdicts, labels — is a
   pure function of the seed on a seeded run. *)
let fingerprint d =
  let canonical =
    ( d.reason,
      d.at_s,
      d.window_s,
      d.dropped,
      List.map
        (fun (e : Event.t) ->
          ( e.Event.seq, Event.source_label e.Event.source, e.Event.id,
            e.Event.at_s, e.Event.tenant, e.Event.qos, e.Event.trace,
            e.Event.qber, e.Event.bits, e.Event.verdict, e.Event.labels ))
        d.events )
  in
  Digest.to_hex (Digest.bytes (Marshal.to_bytes canonical [ Marshal.No_sharing ]))

(* -- dump on alarm: the reason the recorder exists.  [arm_alerts]
   hooks Alert's Fired transitions; when any rule fires, the last
   [window_s] seconds of events (plus spans) are written to
   [dir]/blackbox_<rule>.bbox before the evidence ages out of the
   rings.  The hook runs on the domain evaluating the alert engine —
   the same domain committing engine rounds in every current driver —
   so the quiescence assumption of the merging reader holds. -- *)

let default_window_s = 60.0

let dump_path ~dir rule = Filename.concat dir ("blackbox_" ^ rule ^ ".bbox")

let arm_alerts ?(window_s = default_window_s) ?(dir = ".") () =
  Alert.set_fired_hook (fun (ev : Alert.event) ->
      let d =
        snapshot ~window_s ~now:ev.Alert.at
          ~reason:("alert:" ^ ev.Alert.rule)
          !current
      in
      save d (dump_path ~dir ev.Alert.rule))

let disarm_alerts () = Alert.clear_fired_hook ()
