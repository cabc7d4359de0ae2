(* Plumbing shared by the three workloads: the wall clock, raw sample
   buffers with exact quantiles, the bench-owned span tracer, set-up
   timing, and the report each run prints. *)

module Trace = Qkd_obs.Trace

(* Monotonic, nanosecond resolution: gettimeofday's microseconds would
   quantize the few-microsecond lease commits and releases. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* {1 Raw samples and exact quantiles} *)

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 256 0.0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len

let total s =
  let acc = ref 0.0 in
  for i = 0 to s.len - 1 do
    acc := !acc +. s.data.(i)
  done;
  !acc

(* Nearest rank over the raw samples: the smallest sample with at least
   [pct] percent of all samples at or below it.  Always an observed
   value; no bucket interpolation, which is what turns ~10 ms KMS
   latencies into a 52 ms p50 in [Histogram.quantile]. *)
let rank s pct = max 1 (((pct * s.len) + 99) / 100)

let quantile s pct =
  if s.len = 0 then invalid_arg "quantile: no samples";
  if pct < 0 || pct > 100 then invalid_arg "quantile: pct outside [0, 100]";
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a.(rank s pct - 1)

(* A tail quantile is reported only with at least ten samples beyond it. *)
let tail_resolved s pct = s.len - rank s pct >= 10

let quantile_selfcheck () =
  let s = samples () in
  for i = 100 downto 1 do
    add s (float_of_int i)
  done;
  let odd = samples () in
  List.iter (add odd) [ 3.0; 1.0; 2.0 ];
  quantile s 50 = 50.0
  && quantile s 99 = 99.0
  && quantile s 100 = 100.0
  && quantile s 0 = 1.0
  && quantile odd 50 = 2.0
  && tail_resolved s 90
  && not (tail_resolved s 99)

(* {1 Report}

   The JSON line carries exactly the metrics BENCHMARK.json lists, the
   same on every workload: [end_to_end] with --trace 0, [per_layer]
   with --trace 1.  Each workload fills them from its own layers (the
   README maps them); its finer figures, named after the layer they
   come from, are printed as [detail] lines above the JSON line. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
    ("throughput_per_s", "1/s");
    ("goodput_bits_per_s", "bit/s");
    ("op_p50_s", "s");
  ]

let per_layer =
  [
    ("target.call_s", "s");
    ("target.minor_words", "words");
    ("target.share", "ratio");
    ("op.call_s", "s");
    ("op.minor_words", "words");
    ("trace.overhead", "ratio");
    ("trace.spans", "count");
    ("trace.dropped_spans", "count");
  ]

type metric = { name : string; value : float; unit_ : string; n : int }

type report = {
  traced : bool;
  trace_file : string;  (** where a traced run writes its spans *)
  mutable checks : (string * bool) list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : metric list;  (** newest first *)
  mutable details : metric list;  (** newest first *)
}

let report ~traced ~trace_file =
  { traced; trace_file; checks = []; attempted = 0; failed = 0; metrics = []; details = [] }

let check r name ok = r.checks <- (name, ok) :: r.checks

(* [n] is the number of raw samples behind the value (1 for a count). *)
let metric r ?(n = 1) name unit_ value =
  r.metrics <- { name; value; unit_; n } :: r.metrics

let detail r ?(n = 1) name unit_ value =
  r.details <- { name; value; unit_; n } :: r.details

(* Median always; the tail quantile only where it is resolved. *)
let latency r ~p50 ?p99 s =
  detail r ~n:(count s) p50 "s" (quantile s 50);
  match p99 with
  | Some name when tail_resolved s 99 -> detail r ~n:(count s) name "s" (quantile s 99)
  | Some name ->
      Printf.printf "note %s unresolved: %d samples, fewer than 10 beyond p99\n"
        name (count s)
  | None -> ()

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* [top_heap_words]: the largest the major heap got in the run, which
   includes one spaced set-up's state on top of the measured one. *)
let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

(* Prints the report; exits 1 without the JSON line when the metrics
   are not exactly the manifest's, in its units. *)
let print r =
  let checks = List.rev r.checks and metrics = List.rev r.metrics in
  List.iter
    (fun (name, ok) ->
      Printf.printf "check %-28s %s\n" name (if ok then "ok" else "FAILED"))
    checks;
  let line kind m =
    Printf.printf "%s %-36s %14.6g %-6s n=%d\n" kind m.name m.value m.unit_ m.n
  in
  List.iter (line "detail") (List.rev r.details);
  List.iter (line "metric") metrics;
  let expected = if r.traced then per_layer else end_to_end in
  let sorted l = List.sort compare l in
  if sorted (List.map (fun m -> (m.name, m.unit_)) metrics) <> sorted expected then begin
    prerr_endline "metrics differ from the manifest's";
    exit 1
  end;
  let correct =
    List.for_all snd checks
    && List.for_all (fun m -> Float.is_finite m.value) metrics
  in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.attempted r.failed
    (String.concat ", " fields)

(* {1 Set-up}

   A run sets up [setup_reps] times.  The first set-up builds the state
   the run measures; the others are spaced evenly over the measured
   window and their states dropped at once, so the median samples the
   host's load across the whole run, as the measured operations do,
   rather than in its first second.  Every set-up starts after a full
   collection ([Gc.compact]), and a dropped state is collected before
   measuring resumes. *)

let setup_reps = 9

type 'a setup = {
  build : unit -> 'a;
  times : samples;
  period : float;
  mutable next_at : float;
}

let setup_once s =
  Gc.compact ();
  let v, dt = timed s.build in
  add s.times dt;
  v

let setup ~seconds build =
  let s =
    { build; times = samples (); period = seconds /. float_of_int setup_reps; next_at = 0.0 }
  in
  let v = setup_once s in
  s.next_at <- now () +. s.period;
  (v, s)

let drop_setup s =
  ignore (setup_once s);
  Gc.compact ()

(* Called between measured operations: runs the next spaced set-up
   when it is due. *)
let setup_due s =
  if count s.times < setup_reps && now () >= s.next_at then begin
    drop_setup s;
    s.next_at <- now () +. s.period
  end

(* Runs any set-ups a short run left out and reports the median. *)
let setup_done r s =
  while count s.times < setup_reps do
    drop_setup s
  done;
  Printf.printf "note setup samples: %s\n"
    (String.concat " "
       (List.init s.times.len (fun i -> Printf.sprintf "%.6f" s.times.data.(i))));
  if not r.traced then metric r ~n:setup_reps "setup_s" "s" (quantile s.times 50)

(* {1 Bench-owned tracer}

   Spans are recorded by the benchmark around its calls into each
   layer, never inside the library.  [used] tracks the spans opened so
   loops can stop before the capacity is reached: a traced run never
   drops a span. *)

type tracer = { t : Trace.tracer; capacity : int; mutable used : int }

let tracer capacity = { t = Trace.tracer_create ~capacity (); capacity; used = 0 }
let room tr k = tr.used + k <= tr.capacity

(* [span tr name f] runs [f] inside a span named [name]; [f] receives
   the span id so children can name it as their parent.  With no
   tracer it is a plain call. *)
let span tr ?(parent = Trace.null_id) name f =
  match tr with
  | None -> f Trace.null_id
  | Some tr ->
      let id = Trace.span_begin ~tracer:tr.t ~parent name in
      tr.used <- tr.used + 1;
      let r = f id in
      Trace.span_end ~tracer:tr.t id;
      r

let span_samples tr name =
  let s = samples () in
  List.iter
    (fun (sp : Trace.span) ->
      if sp.Trace.finished && String.equal sp.Trace.name name then
        add s (sp.Trace.end_s -. sp.Trace.start_s))
    (Trace.spans ~tracer:tr.t ());
  s

(* Per-call median of a span, printed with its sample count. *)
let span_detail r tr ~span:name detail_name =
  let s = span_samples tr name in
  if count s > 0 then detail r ~n:(count s) detail_name "s" (quantile s 50);
  s

(* The per-layer metrics every workload reports: one call into the
   layer its ROADMAP item targets, the user-facing operation that layer
   serves, and the minor words of each per call.  [target_words] and
   [op_words] are totals over the spanned calls. *)
let layer_metrics r tr ~target ~target_words ~op ~op_words =
  let t = span_samples tr target and o = span_samples tr op in
  metric r ~n:(count t) "target.call_s" "s" (quantile t 50);
  metric r ~n:(count t) "target.minor_words" "words" (target_words /. float_of_int (count t));
  metric r "target.share" "ratio" (quantile t 50 /. quantile o 50);
  metric r ~n:(count o) "op.call_s" "s" (quantile o 50);
  metric r ~n:(count o) "op.minor_words" "words" (op_words /. float_of_int (count o))

(* Tracing overhead: the same operation timed alternately with and
   without spans inside the traced run, median against median. *)
let overhead r ~untraced ~traced =
  metric r ~n:(count traced) "trace.overhead" "ratio"
    ((quantile traced 50 /. quantile untraced 50) -. 1.0)

(* Spans are kept in memory and written out once, at the end of the
   traced run, as Chrome trace_event JSON (chrome://tracing, Perfetto). *)
let trace_dir = ".perfbench"

let write_trace r tr =
  if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
  let path = Filename.concat trace_dir r.trace_file in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Trace.export_chrome ~tracer:tr.t ()));
  Printf.printf "note spans written to %s\n" path

let trace_totals r tr =
  metric r "trace.spans" "count" (float_of_int tr.used);
  metric r "trace.dropped_spans" "count"
    (float_of_int (Trace.dropped_spans tr.t));
  check r "no_dropped_spans" (Trace.dropped_spans tr.t = 0);
  write_trace r tr

(* Allocation of one call, in minor-heap words. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* Determinism self-test: [fingerprint seed] returns named counts of a
   tiny run.  The other seed runs first and also absorbs first-use
   allocation (registry metrics, lazily built tables); after it, two
   calls with [seed] must agree exactly, and differ from the other
   seed's counts. *)
let determinism r fingerprint ~seed =
  let other = fingerprint (seed + 1) in
  let a = fingerprint seed in
  let b = fingerprint seed in
  List.iter2
    (fun (k, x) (_, y) ->
      if x <> y then Printf.printf "note determinism %s: %d vs %d\n" k x y)
    a b;
  check r "determinism_same_seed" (a = b);
  check r "determinism_other_seed_differs" (a <> other)
