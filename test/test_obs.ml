(* Tests for Qkd_obs: metric primitives, registry identity/validation,
   exporter formats (property-tested for determinism), span tracing,
   the engine's failure-path accounting, and the golden registry
   snapshot that pins the line-protocol format.

   Regenerate the golden file after an intentional metric change with:

     QKD_OBS_GOLDEN_WRITE=test/golden_round_metrics.expected \
       ./_build/default/test/test_obs.exe test golden *)

module Obs = Qkd_obs
module Series = Qkd_obs.Series
module Alert = Qkd_obs.Alert
module Counter = Qkd_obs.Counter
module Gauge = Qkd_obs.Gauge
module Histogram = Qkd_obs.Histogram
module Registry = Qkd_obs.Registry
module Trace = Qkd_obs.Trace
module Export = Qkd_obs.Export
module Control = Qkd_obs.Control
module Engine = Qkd_protocol.Engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let qcheck = QCheck_alcotest.to_alcotest

let contains hay needle =
  let len = String.length hay and n = String.length needle in
  let rec scan i = i + n <= len && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let counter_value r ?(labels = []) name =
  Counter.value (Registry.counter ~registry:r ~labels name)

let hist_count r ?(labels = []) name =
  Histogram.count (Registry.histogram ~registry:r ~labels name)

(* -- primitives -- *)

let test_counter_basics () =
  let c = Counter.make () in
  Counter.incr c;
  Counter.add c 41;
  check_int "value" 42 (Counter.value c);
  Alcotest.check_raises "negative add"
    (Invalid_argument "Counter.add: counters are monotone") (fun () ->
      Counter.add c (-1))

let test_gauge_basics () =
  let g = Gauge.make () in
  Gauge.set g 3.5;
  Gauge.add g 1.0;
  check "value" true (Gauge.value g = 4.5)

let test_histogram_placement () =
  let h = Histogram.make ~buckets:[| 1.0; 2.0; 4.0 |] in
  List.iter (Histogram.observe h) [ 0.5; 1.0; 1.5; 3.0; 100.0 ];
  check_int "count" 5 (Histogram.count h);
  check "sum" true (Histogram.sum h = 106.0);
  (* <=1 catches 0.5 and the boundary 1.0; +Inf catches 100 *)
  check "per-bucket" true
    (Histogram.bucket_counts h
    = [ (1.0, 2); (2.0, 1); (4.0, 1); (infinity, 1) ]);
  check "cumulative" true
    (Histogram.cumulative h = [ (1.0, 2); (2.0, 3); (4.0, 4); (infinity, 5) ])

let test_histogram_bad_buckets () =
  List.iter
    (fun buckets ->
      try
        ignore (Histogram.make ~buckets);
        Alcotest.fail "should raise"
      with Invalid_argument _ -> ())
    [ [||]; [| 2.0; 1.0 |]; [| 1.0; 1.0 |]; [| 0.0; infinity |] ]

(* -- registry -- *)

let test_registry_identity () =
  let r = Registry.create () in
  let a = Registry.counter ~registry:r "x_total" ~labels:[ ("k", "v"); ("a", "b") ] in
  (* label order must not matter *)
  let b = Registry.counter ~registry:r "x_total" ~labels:[ ("a", "b"); ("k", "v") ] in
  check "same handle" true (a == b);
  let c = Registry.counter ~registry:r "x_total" ~labels:[ ("a", "b") ] in
  check "different labels, different series" true (a != c);
  check_int "cardinality" 2 (Registry.cardinality r)

let test_registry_validation () =
  let r = Registry.create () in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "bad name" true (raises (fun () -> Registry.counter ~registry:r "1bad"));
  check "empty name" true (raises (fun () -> Registry.counter ~registry:r ""));
  check "bad label key" true
    (raises (fun () -> Registry.counter ~registry:r "ok" ~labels:[ ("0k", "v") ]));
  check "reserved le" true
    (raises (fun () -> Registry.counter ~registry:r "ok" ~labels:[ ("le", "v") ]));
  check "duplicate label" true
    (raises (fun () ->
         Registry.counter ~registry:r "ok" ~labels:[ ("a", "1"); ("a", "2") ]));
  ignore (Registry.counter ~registry:r "typed_total");
  check "type clash" true
    (raises (fun () -> Registry.gauge ~registry:r "typed_total"));
  check "type clash across labels" true
    (raises (fun () ->
         Registry.histogram ~registry:r "typed_total" ~labels:[ ("a", "b") ]))

let test_registry_with_registry_restores () =
  let outer = Registry.default () in
  let r = Registry.create () in
  Registry.with_registry r (fun () ->
      check "swapped" true (Registry.default () == r));
  check "restored" true (Registry.default () == outer);
  (try
     Registry.with_registry r (fun () -> raise Exit)
   with Exit -> ());
  check "restored after raise" true (Registry.default () == outer)

(* -- control switch -- *)

let test_control_disables_mutation () =
  let r = Registry.create () in
  let c = Registry.counter ~registry:r "c_total" in
  let g = Registry.gauge ~registry:r "g" in
  let h = Registry.histogram ~registry:r "h_seconds" in
  Control.set_enabled false;
  Fun.protect ~finally:(fun () -> Control.set_enabled true) @@ fun () ->
  Counter.incr c;
  Counter.add c 7;
  Gauge.set g 9.0;
  Histogram.observe h 1.0;
  let v = Trace.with_span ~registry:r "off" (fun () -> 11) in
  check_int "span value" 11 v;
  check_int "counter untouched" 0 (Counter.value c);
  check "gauge untouched" true (Gauge.value g = 0.0);
  check_int "histogram untouched" 0 (Histogram.count h);
  check_int "no span series" 0 (Registry.cardinality r - 3)

(* -- tracing -- *)

let test_trace_with_span () =
  let r = Registry.create () in
  let v = Trace.with_span ~registry:r "work" (fun () -> 7) in
  check_int "result" 7 v;
  check_int "recorded" 1
    (hist_count r ~labels:[ ("span", "work") ] Trace.wall_metric);
  (try
     Trace.with_span ~registry:r "work" (fun () -> raise Exit)
   with Exit -> ());
  check_int "recorded on raise" 2
    (hist_count r ~labels:[ ("span", "work") ] Trace.wall_metric)

let test_trace_record_sim () =
  let r = Registry.create () in
  Trace.record_sim ~registry:r "round" 2.0;
  Trace.record_sim ~registry:r "round" 3.0;
  let h =
    Registry.histogram ~registry:r ~labels:[ ("span", "round") ] Trace.sim_metric
  in
  check_int "count" 2 (Histogram.count h);
  check "sum" true (Histogram.sum h = 5.0)

(* -- exporters -- *)

let test_snapshot_format () =
  let r = Registry.create () in
  Counter.add (Registry.counter ~registry:r "a_total") 3;
  Gauge.set (Registry.gauge ~registry:r "g_bits" ~labels:[ ("pool", "a") ]) 7.5;
  let h = Registry.histogram ~registry:r "h_seconds" ~buckets:[| 1.0; 2.0 |] in
  Histogram.observe h 0.5;
  Histogram.observe h 3.0;
  check_string "line protocol"
    "a_total 3\n\
     g_bits{pool=\"a\"} 7.5\n\
     h_seconds_bucket{le=\"1\"} 1\n\
     h_seconds_bucket{le=\"2\"} 1\n\
     h_seconds_bucket{le=\"+Inf\"} 2\n\
     h_seconds_sum 3.5\n\
     h_seconds_count 2\n"
    (Export.snapshot ~registry:r ())

let test_snapshot_label_escaping () =
  let r = Registry.create () in
  Counter.incr
    (Registry.counter ~registry:r "esc_total"
       ~labels:[ ("l", "a\"b\\c\nd") ]);
  check_string "escaped" "esc_total{l=\"a\\\"b\\\\c\\nd\"} 1\n"
    (Export.snapshot ~registry:r ())

let test_dump_mentions_every_series () =
  let r = Registry.create () in
  Counter.incr (Registry.counter ~registry:r "one_total");
  Gauge.set (Registry.gauge ~registry:r "two_bits") 5.0;
  ignore (Registry.histogram ~registry:r "three_seconds");
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Export.pp_dump ~registry:r () ppf;
  Format.pp_print_flush ppf ();
  let dump = Buffer.contents buf in
  List.iter
    (fun name ->
      check (name ^ " in dump") true
        (let len = String.length dump and n = String.length name in
         let rec scan i =
           i + n <= len && (String.sub dump i n = name || scan (i + 1))
         in
         scan 0))
    [ "one_total"; "two_bits"; "three_seconds" ]

(* -- qcheck properties -- *)

let prop_counter_adds_commute =
  QCheck.Test.make ~name:"counter adds commute" ~count:200
    QCheck.(list small_nat)
    (fun ns ->
      let c1 = Counter.make () and c2 = Counter.make () in
      List.iter (Counter.add c1) ns;
      List.iter (Counter.add c2) (List.rev ns);
      Counter.value c1 = Counter.value c2
      && Counter.value c1 = List.fold_left ( + ) 0 ns)

let prop_histogram_buckets_sum_to_count =
  QCheck.Test.make ~name:"histogram buckets sum to count" ~count:200
    QCheck.(list float)
    (fun vs ->
      let h = Histogram.make ~buckets:[| -1.0; 0.0; 1.0; 100.0 |] in
      List.iter (Histogram.observe h) vs;
      let per_bucket = List.fold_left (fun a (_, c) -> a + c) 0
          (Histogram.bucket_counts h)
      in
      per_bucket = List.length vs
      && Histogram.count h = List.length vs
      && snd (List.nth (Histogram.cumulative h)
                (List.length (Histogram.cumulative h) - 1))
         = List.length vs)

(* A registry spec: each (kind, name#, label#, value) creates/updates
   one series.  Kind picks the metric type so names never clash. *)
let registry_of_spec spec =
  let r = Registry.create () in
  List.iter
    (fun (kind, name_i, label_i, v) ->
      let labels =
        if label_i mod 3 = 0 then []
        else [ ("l", string_of_int (label_i mod 3)) ]
      in
      match kind mod 3 with
      | 0 ->
          Counter.add
            (Registry.counter ~registry:r ~labels
               (Printf.sprintf "c%d_total" (name_i mod 4)))
            v
      | 1 ->
          Gauge.set
            (Registry.gauge ~registry:r ~labels
               (Printf.sprintf "g%d_bits" (name_i mod 4)))
            (float_of_int v)
      | _ ->
          Histogram.observe
            (Registry.histogram ~registry:r ~labels
               ~buckets:[| 1.0; 10.0; 100.0 |]
               (Printf.sprintf "h%d_seconds" (name_i mod 4)))
            (float_of_int v))
    spec;
  r

let spec_gen =
  QCheck.(list (quad small_nat small_nat small_nat small_nat))

let prop_snapshot_deterministic =
  QCheck.Test.make ~name:"snapshot deterministic" ~count:100 spec_gen
    (fun spec ->
      let r = registry_of_spec spec in
      String.equal (Export.snapshot ~registry:r ()) (Export.snapshot ~registry:r ()))

let prop_snapshot_sorted =
  QCheck.Test.make ~name:"snapshot sorted by (name, labels)" ~count:100 spec_gen
    (fun spec ->
      let r = registry_of_spec spec in
      let keys =
        List.map
          (fun ((k : Registry.key), _) -> (k.Registry.name, k.Registry.labels))
          (Registry.to_list r)
      in
      keys = List.sort_uniq compare keys)

let prop_counter_registry_order_independent =
  QCheck.Test.make ~name:"registry counter order independent" ~count:100
    QCheck.(list (pair small_nat small_nat))
    (fun ops ->
      let build ops =
        let r = Registry.create () in
        List.iter
          (fun (name_i, v) ->
            Counter.add
              (Registry.counter ~registry:r
                 (Printf.sprintf "c%d_total" (name_i mod 5)))
              v)
          ops;
        Export.snapshot ~registry:r ()
      in
      String.equal (build ops) (build (List.rev ops)))

(* -- domain safety: counters and gauges are Atomic-backed, so
   concurrent mutation from several domains must never lose an
   update -- *)

let prop_metrics_domain_safe =
  QCheck.Test.make ~name:"counter/gauge safe across domains" ~count:10
    QCheck.(pair (int_range 1 4) (int_range 0 2_000))
    (fun (doms, n) ->
      let c = Counter.make () in
      let g = Gauge.make () in
      let ds =
        List.init doms (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to n do
                  Counter.incr c;
                  Gauge.add g 1.0
                done))
      in
      List.iter Domain.join ds;
      Counter.value c = doms * n && Gauge.value g = float_of_int (doms * n))

(* -- windowed series -- *)

let test_series_ring () =
  let s = Series.create ~capacity:4 "s" in
  for i = 1 to 6 do
    Series.push s ~t:(float_of_int i) (float_of_int (10 * i))
  done;
  check_int "length" 4 (Series.length s);
  check "oldest evicted" true (Series.nth s 0 = (3.0, 30.0));
  check "last" true (Series.last s = Some (6.0, 60.0));
  check_int "window" 3 (Array.length (Series.window s ~seconds:2.0));
  check "delta" true (Series.delta s ~seconds:10.0 = 30.0);
  check "rate" true (Series.rate s ~seconds:10.0 = 10.0);
  check "mean" true (Series.windowed_mean s ~seconds:10.0 = 45.0);
  check "ewma alpha=1 is last" true (Series.ewma s ~alpha:1.0 = 60.0)

let test_series_ratio () =
  let num = Series.create "n" and den = Series.create "d" in
  Series.push num ~t:0.0 0.0;
  Series.push den ~t:0.0 0.0;
  check "no traffic" true (Series.ratio ~num ~den ~seconds:10.0 = None);
  Series.push num ~t:1.0 25.0;
  Series.push den ~t:1.0 100.0;
  check "ratio" true (Series.ratio ~num ~den ~seconds:10.0 = Some 0.25);
  match Series.wilson_ratio_ci ~num ~den ~seconds:10.0 ~z:2.0 with
  | Some (lo, hi) -> check "ci brackets ratio" true (0.0 < lo && lo < 0.25 && 0.25 < hi)
  | None -> Alcotest.fail "wilson undecidable with 100 trials"

let test_labelled_name () =
  check_string "sorted" "m{a=\"1\",b=\"2\"}"
    (Series.labelled_name "m" [ ("b", "2"); ("a", "1") ]);
  check_string "no labels" "m" (Series.labelled_name "m" [])

let test_series_set_tick () =
  let set = Series.create_set ~capacity:8 () in
  let v = ref 0.0 in
  let s = Series.watch set "x" (fun () -> !v) in
  let s2 = Series.watch set "x" (fun () -> 99.0) in
  check "first registration wins" true (s == s2);
  v := 1.0;
  Series.tick set ~now:0.0;
  v := 2.0;
  Series.tick set ~now:1.0;
  check "sampled at ticks" true
    (Series.samples s = [| (0.0, 1.0); (1.0, 2.0) |]);
  check "find" true
    (match Series.find set "x" with Some s' -> s' == s | None -> false);
  check_int "one series" 1 (List.length (Series.all set))

let test_series_control_gated () =
  let s = Series.create "c" in
  Control.set_enabled false;
  Fun.protect ~finally:(fun () -> Control.set_enabled true) (fun () ->
      Series.push s ~t:0.0 1.0);
  check_int "no sample while disabled" 0 (Series.length s)

let prop_series_eviction =
  QCheck.Test.make ~name:"series evicts oldest first" ~count:200
    QCheck.(pair (int_range 1 16) (int_range 0 64))
    (fun (cap, n) ->
      let s = Series.create ~capacity:cap "p" in
      for i = 0 to n - 1 do
        Series.push s ~t:(float_of_int i) (float_of_int i)
      done;
      Series.length s = min n cap
      && (n = 0
         || fst (Series.nth s 0) = float_of_int (max 0 (n - cap))
            && Series.last s
               = Some (float_of_int (n - 1), float_of_int (n - 1))))

(* -- alert engine -- *)

let test_alert_threshold_lifecycle () =
  let set = Series.create_set () in
  let v = ref 0.0 in
  ignore (Series.watch set "g" (fun () -> !v));
  let e = Alert.create set in
  Alert.add_rule e
    {
      Alert.name = "hot";
      severity = Alert.Warning;
      message = "too hot";
      for_s = 1.5;
      kind =
        Alert.Threshold
          { series = "g"; window_s = 1.0; condition = Alert.Above 10.0 };
    };
  let step now value =
    v := value;
    Series.tick set ~now;
    Alert.evaluate e ~now
  in
  step 0.0 5.0;
  check "ok" true (Alert.state e "hot" = Some Alert.Ok);
  step 1.0 20.0;
  check "pending on first breach" true
    (match Alert.state e "hot" with Some (Alert.Pending _) -> true | _ -> false);
  check "not firing before for_s" false (Alert.is_firing e "hot");
  step 2.0 20.0;
  step 3.0 20.0;
  check "firing after hold" true (Alert.is_firing e "hot");
  check_int "fired once" 1 (Alert.fired_count e);
  check "listed as firing" true
    (List.exists (fun (r : Alert.rule) -> r.Alert.name = "hot") (Alert.firing e));
  (* the 1 s window at t=4 still averages the t=3 breach sample, so
     recovery needs a second healthy tick *)
  step 4.0 5.0;
  step 5.0 5.0;
  check "resolved" true (Alert.state e "hot" = Some Alert.Ok);
  match Alert.log e with
  | [ f; r ] ->
      check "fired then resolved" true
        (f.Alert.transition = Alert.Fired
        && r.Alert.transition = Alert.Resolved
        && f.Alert.rule = "hot")
  | l -> Alcotest.failf "expected 2 log events, got %d" (List.length l)

let test_alert_duplicate_name_rejected () =
  let set = Series.create_set () in
  let e = Alert.create set in
  let rule =
    {
      Alert.name = "dup";
      severity = Alert.Info;
      message = "";
      for_s = 0.0;
      kind =
        Alert.Threshold
          { series = "g"; window_s = 1.0; condition = Alert.Above 0.0 };
    }
  in
  Alert.add_rule e rule;
  check "duplicate raises" true
    (try
       Alert.add_rule e rule;
       false
     with Invalid_argument _ -> true)

let test_alert_undecidable_keeps_state () =
  let set = Series.create_set () in
  let e = Alert.create set in
  Alert.add_rule e
    {
      Alert.name = "r";
      severity = Alert.Critical;
      message = "";
      for_s = 0.0;
      kind =
        Alert.Ratio
          {
            num = "n";
            den = "d";
            window_s = 10.0;
            condition = Alert.Above 0.5;
            min_den = 4.0;
            z = None;
          };
    };
  (* missing series: undecidable, state untouched *)
  Alert.evaluate e ~now:0.0;
  check "ok with missing series" true (Alert.state e "r" = Some Alert.Ok);
  check "no observation" true (Alert.last_value e "r" = None);
  let nv = ref 0.0 and dv = ref 0.0 in
  ignore (Series.watch set "n" (fun () -> !nv));
  ignore (Series.watch set "d" (fun () -> !dv));
  Series.tick set ~now:1.0;
  nv := 2.0;
  dv := 2.0;
  Series.tick set ~now:2.0;
  Alert.evaluate e ~now:2.0;
  (* Δden = 2 below min_den 4: still undecidable *)
  check "below min_den keeps ok" true
    (Alert.state e "r" = Some Alert.Ok && Alert.last_value e "r" = None);
  nv := 6.0;
  dv := 8.0;
  Series.tick set ~now:3.0;
  Alert.evaluate e ~now:3.0;
  (* Δnum/Δden = 6/8 over the limit, for_s 0 fires at once *)
  check "fires once decidable" true (Alert.is_firing e "r");
  check "observed value" true (Alert.last_value e "r" = Some 0.75)

let test_alert_burn_rate_slo () =
  let set = Series.create_set () in
  let good = ref 0.0 and total = ref 0.0 in
  ignore (Series.watch set "good" (fun () -> !good));
  ignore (Series.watch set "total" (fun () -> !total));
  let e = Alert.create set in
  Alert.add_rule e
    {
      Alert.name = "slo";
      severity = Alert.Warning;
      message = "";
      for_s = 0.0;
      kind =
        Alert.Burn_rate
          {
            good = "good";
            total = "total";
            objective = 0.9;
            window_s = 10.0;
            max_burn = 1.0;
          };
    };
  Series.tick set ~now:0.0;
  Alert.evaluate e ~now:0.0;
  check "no attainment before traffic" true (Alert.slo_attainment e "slo" = None);
  good := 8.0;
  total := 10.0;
  Series.tick set ~now:1.0;
  Alert.evaluate e ~now:1.0;
  (* attainment 0.8 burns at 2x budget *)
  check "burning fires" true (Alert.is_firing e "slo");
  check "attainment 0.8" true (Alert.slo_attainment e "slo" = Some 0.8);
  check "attainment is None for other kinds" true
    (Alert.slo_attainment e "nope" = None)

(* -- causal spans -- *)

let test_causal_spans () =
  let tr = Trace.tracer_create () in
  let root = Trace.span_begin ~tracer:tr ~at:1.0 "root" in
  check "root id live" true (root <> Trace.null_id);
  let child = Trace.span_begin ~tracer:tr ~parent:root ~at:2.0 "child" in
  Trace.span_note ~tracer:tr child "k" "v";
  (* end time before start clamps to the start *)
  Trace.span_end ~tracer:tr child ~at:1.5;
  Trace.span_end ~tracer:tr root ~at:5.0;
  (* the null id is accepted and ignored everywhere *)
  Trace.span_note ~tracer:tr Trace.null_id "a" "b";
  Trace.span_end ~tracer:tr Trace.null_id;
  let spans = Trace.spans ~tracer:tr () in
  check_int "two spans" 2 (List.length spans);
  let c = List.find (fun s -> s.Trace.name = "child") spans in
  check "parent link" true (c.Trace.parent = Some root);
  check "finished" true c.Trace.finished;
  check "clamped duration" true (c.Trace.end_s = c.Trace.start_s);
  check "note kept" true (List.assoc_opt "k" c.Trace.notes = Some "v");
  let json = Trace.export_chrome ~tracer:tr () in
  check "chrome export has both spans" true
    (contains json "root" && contains json "child");
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Trace.pp_tree ~tracer:tr () ppf;
  Format.pp_print_flush ppf ();
  let tree = Buffer.contents buf in
  check "tree has both spans" true (contains tree "root" && contains tree "child")

let test_tracer_bounded () =
  let tr = Trace.tracer_create ~capacity:2 () in
  let a = Trace.span_begin ~tracer:tr "a" in
  let b = Trace.span_begin ~tracer:tr "b" in
  let c = Trace.span_begin ~tracer:tr "c" in
  check "within capacity live" true (a <> Trace.null_id && b <> Trace.null_id);
  check "over capacity dropped" true (c = Trace.null_id);
  check_int "dropped counted" 1 (Trace.dropped_spans tr);
  Trace.tracer_reset tr;
  check_int "reset clears" 0 (List.length (Trace.spans ~tracer:tr ()));
  check "usable after reset" true (Trace.span_begin ~tracer:tr "d" <> Trace.null_id)

let test_trace_control_disabled () =
  let tr = Trace.tracer_create () in
  Control.set_enabled false;
  Fun.protect ~finally:(fun () -> Control.set_enabled true) (fun () ->
      check "null id when disabled" true
        (Trace.span_begin ~tracer:tr "x" = Trace.null_id));
  check_int "nothing recorded" 0 (List.length (Trace.spans ~tracer:tr ()))

let test_with_span_clamps_backwards_clock () =
  let r = Registry.create () in
  (* a clock that steps backwards mid-span: start 100, end 50 *)
  let times = ref [ 100.0; 50.0 ] in
  Trace.set_clock (fun () ->
      match !times with
      | [ t ] -> t
      | t :: rest ->
          times := rest;
          t
      | [] -> 0.0);
  Fun.protect ~finally:Trace.reset_clock (fun () ->
      Trace.with_span ~registry:r "clamp" (fun () -> ()));
  let h =
    Registry.histogram ~registry:r ~labels:[ ("span", "clamp") ]
      Trace.wall_metric
  in
  check_int "recorded" 1 (Histogram.count h);
  check "negative duration clamped to zero" true (Histogram.sum h = 0.0)

(* -- exporter round-trips -- *)

let test_escaping_golden () =
  let r = Registry.create () in
  Counter.incr
    (Registry.counter ~registry:r "esc_total"
       ~labels:[ ("l", "sp ace,comma\"quote\\back\nnl\ttab\rcr") ]);
  (* spaces and commas pass through; quote, backslash, newline, tab and
     carriage return are escaped — pinned exactly *)
  check_string "escaping golden"
    "esc_total{l=\"sp ace,comma\\\"quote\\\\back\\nnl\\ttab\\rcr\"} 1\n"
    (Export.snapshot ~registry:r ())

let test_export_write_file () =
  let r = Registry.create () in
  Counter.add (Registry.counter ~registry:r "f_total") 2;
  let path = Filename.temp_file "qkd_obs" ".prom" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Export.write_file ~registry:r path;
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check_string "file holds the snapshot" "f_total 2\n" s)

(* -- engine failure paths -- *)

let run_isolated ?(seed = 2003L) ?(tamper = false) ?config ~pulses () =
  let config = Option.value config ~default:Engine.default_config in
  let r = Registry.create () in
  let result =
    Registry.with_registry r (fun () ->
        let engine = Engine.create ~seed config in
        Engine.run_round ~tamper engine ~pulses)
  in
  (r, result)

let test_engine_tamper_counted () =
  let r, result = run_isolated ~tamper:true ~pulses:100_000 () in
  (match result with
  | Error Engine.Auth_tampered -> ()
  | Ok _ -> Alcotest.fail "tampered round accepted"
  | Error f -> Alcotest.failf "unexpected failure: %a" Engine.pp_failure f);
  check_int "rounds total" 1 (counter_value r "engine_rounds_total");
  check_int "failed{auth_tampered}" 1
    (counter_value r "engine_rounds_failed"
       ~labels:[ ("reason", "auth_tampered") ]);
  check_int "failed{auth_exhausted} untouched" 0
    (counter_value r "engine_rounds_failed"
       ~labels:[ ("reason", "auth_exhausted") ])

let test_engine_exhaustion_counted () =
  let config =
    { Engine.default_config with Engine.auth_prepositioned_bits = 32 }
  in
  let r, result = run_isolated ~config ~pulses:100_000 () in
  (match result with
  | Error Engine.Auth_exhausted -> ()
  | Ok _ -> Alcotest.fail "round succeeded on an empty auth pool"
  | Error f -> Alcotest.failf "unexpected failure: %a" Engine.pp_failure f);
  check_int "failed{auth_exhausted}" 1
    (counter_value r "engine_rounds_failed"
       ~labels:[ ("reason", "auth_exhausted") ])

let test_engine_failure_does_not_leak () =
  let r, result = run_isolated ~tamper:true ~pulses:100_000 () in
  check "round failed" true (Result.is_error result);
  (* quality/throughput series are success-only *)
  check_int "qber histogram empty" 0 (hist_count r "protocol_qber_ratio");
  check_int "sifted bps empty" 0 (hist_count r "protocol_sifted_bps");
  check_int "distilled bps empty" 0 (hist_count r "protocol_distilled_bps");
  check_int "distilled counter zero" 0
    (counter_value r "protocol_distilled_bits_total");
  check_int "sim round span empty" 0
    (hist_count r ~labels:[ ("span", "engine_round") ] Trace.sim_metric);
  (* ...while the layers below still report what physically happened *)
  check "photonics still counted" true
    (counter_value r "photonics_pulses_total" = 100_000)

let test_engine_success_observes () =
  let r, result = run_isolated ~pulses:200_000 () in
  (match result with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "round failed: %a" Engine.pp_failure f);
  check_int "qber histogram" 1 (hist_count r "protocol_qber_ratio");
  check_int "distilled bps" 1 (hist_count r "protocol_distilled_bps");
  check "sifted counted" true (counter_value r "protocol_sifted_bits_total" > 0);
  check "cascade ran" true (counter_value r "cascade_reconciliations_total" = 1);
  check "pa ran" true (counter_value r "pa_amplifications_total" = 1);
  check_int "no failures" 0
    (counter_value r "engine_rounds_failed"
       ~labels:[ ("reason", "auth_tampered") ])

(* -- golden snapshot -- *)

let golden_file = "golden_round_metrics.expected"

(* Wall-clock spans are the one nondeterministic series; everything
   else in a seeded round is reproducible and pinned. *)
let filtered_snapshot r =
  Export.snapshot ~registry:r ()
  |> String.split_on_char '\n'
  |> List.filter (fun l ->
         not (String.length l >= String.length Trace.wall_metric
             && String.sub l 0 (String.length Trace.wall_metric)
                = Trace.wall_metric))
  |> String.concat "\n"

let test_golden_snapshot () =
  let r, result = run_isolated ~seed:2003L ~pulses:500_000 () in
  (match result with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "golden round failed: %a" Engine.pp_failure f);
  let actual = filtered_snapshot r in
  match Sys.getenv_opt "QKD_OBS_GOLDEN_WRITE" with
  | Some path ->
      let oc = open_out path in
      output_string oc actual;
      close_out oc
  | None ->
      let ic = open_in golden_file in
      let expected = really_input_string ic (in_channel_length ic) in
      close_in ic;
      if not (String.equal expected actual) then
        Alcotest.failf
          "registry snapshot drifted from %s (metric renamed/dropped?).\n\
           -- expected --\n%s\n-- actual --\n%s"
          golden_file expected actual

(* -- histogram quantiles and exemplars -- *)

module Exemplar = Qkd_obs.Exemplar

let close msg a b = check msg true (Float.abs (a -. b) < 1e-9)

let test_histogram_quantile () =
  let h = Histogram.make ~buckets:[| 1.0; 2.0; 4.0 |] in
  check "empty is nan" true (Float.is_nan (Histogram.quantile h 0.5));
  for _ = 1 to 4 do
    Histogram.observe h 0.5
  done;
  (* all mass in the first bucket: interpolate from 0 *)
  close "median in first bucket" 0.5 (Histogram.quantile h 0.5);
  close "q=0.25" 0.25 (Histogram.quantile h 0.25);
  check "nan q is nan" true (Float.is_nan (Histogram.quantile h Float.nan));
  Histogram.observe h 100.0;
  (* rank lands in the +Inf overflow: clamp to the last finite bound *)
  close "overflow clamps" 4.0 (Histogram.quantile h 1.0);
  let h2 = Histogram.make ~buckets:[| 1.0; 2.0; 4.0 |] in
  Histogram.observe h2 1.5;
  Histogram.observe h2 1.5;
  Histogram.observe h2 3.0;
  Histogram.observe h2 3.0;
  close "median at bucket boundary" 2.0 (Histogram.quantile h2 0.5);
  close "clamped q>1" 4.0 (Histogram.quantile h2 2.0)

let test_histogram_exemplar () =
  let h = Histogram.make ~buckets:[| 1.0; 2.0 |] in
  check "unset exemplar" true (Histogram.exemplar h 0 = None);
  Histogram.observe_ex h ~event_id:7 ~trace_id:3 0.5;
  (match Histogram.exemplar h 0 with
  | Some e ->
      check_int "event id" 7 e.Exemplar.event_id;
      check_int "trace id" 3 e.Exemplar.trace_id;
      close "value" 0.5 e.Exemplar.value
  | None -> Alcotest.fail "exemplar not recorded");
  check "other bucket untouched" true (Histogram.exemplar h 1 = None);
  check "out of range" true (Histogram.exemplar h 99 = None);
  (* later witness replaces the earlier one in the same bucket *)
  Histogram.observe_ex h ~event_id:9 0.8;
  (match Histogram.exemplar h 0 with
  | Some e -> check_int "replaced" 9 e.Exemplar.event_id
  | None -> Alcotest.fail "exemplar lost");
  check_int "counts track observe_ex" 2 (Histogram.count h)

let test_export_exemplar_suffix () =
  let r = Registry.create () in
  let h =
    Registry.histogram ~registry:r "latency" ~buckets:[| 1.0; 2.0 |]
      ~help:"h"
  in
  Histogram.observe_ex h ~event_id:7 ~trace_id:3 0.5;
  let s = Export.snapshot ~registry:r () in
  check "bucket line carries exemplar" true
    (contains s "# {event_id=\"7\",trace_id=\"3\"}");
  let r2 = Registry.create () in
  let h2 =
    Registry.histogram ~registry:r2 "latency" ~buckets:[| 1.0; 2.0 |]
      ~help:"h"
  in
  Histogram.observe h2 0.5;
  check "plain histogram exports without exemplars" false
    (contains (Export.snapshot ~registry:r2 ()) "# {")

let test_spans_dropped_counter () =
  let r = Registry.create () in
  Registry.with_registry r (fun () ->
      let tracer = Trace.tracer_create ~capacity:1 () in
      Trace.with_tracer tracer (fun () ->
          ignore (Trace.span_begin "a");
          ignore (Trace.span_begin "b");
          ignore (Trace.span_begin "c")));
  check_int "dropped spans exported" 2
    (counter_value r "trace_spans_dropped_total")

(* Drive a rule through Fired inside [r]; returns the alert engine. *)
let fire_alert_in () =
  let set = Series.create_set () in
  let v = ref 0.0 in
  ignore (Series.watch set "g" (fun () -> !v));
  let e = Alert.create set in
  Alert.add_rule e
    {
      Alert.name = "hot";
      severity = Alert.Warning;
      message = "too hot";
      for_s = 0.0;
      kind =
        Alert.Threshold
          { series = "g"; window_s = 1.0; condition = Alert.Above 10.0 };
    };
  let step now value =
    v := value;
    Series.tick set ~now;
    Alert.evaluate e ~now
  in
  step 0.0 5.0;
  step 1.0 20.0;
  step 2.0 20.0;
  e

let test_alert_fired_counter () =
  let r = Registry.create () in
  let e = Registry.with_registry r (fun () -> fire_alert_in ()) in
  check "rule is firing" true (Alert.is_firing e "hot");
  check_int "labelled fired counter" 1
    (counter_value r "alert_fired_total" ~labels:[ ("rule", "hot") ])

let test_alert_fired_hook () =
  let r = Registry.create () in
  let seen = ref [] in
  Alert.set_fired_hook (fun ev -> seen := ev.Alert.rule :: !seen);
  Fun.protect ~finally:Alert.clear_fired_hook (fun () ->
      ignore (Registry.with_registry r (fun () -> fire_alert_in ())));
  check "hook saw the transition" true (!seen = [ "hot" ]);
  (* a raising hook must not leak into the evaluation path *)
  let r2 = Registry.create () in
  Alert.set_fired_hook (fun _ -> failwith "boom");
  let e =
    Fun.protect ~finally:Alert.clear_fired_hook (fun () ->
        Registry.with_registry r2 (fun () -> fire_alert_in ()))
  in
  check "fired despite raising hook" true (Alert.is_firing e "hot")

(* -- flight recorder -- *)

module Recorder = Qkd_obs.Recorder
module Event = Qkd_obs.Event
module Query = Qkd_obs.Query

let mk_event ?(at_s = 0.0) ?(verdict = "ok") ?stage_s ?(bits = 0)
    ?(labels = []) ~source ~id () =
  Event.make ?stage_s ~at_s ~verdict ~bits ~labels ~source ~id ()

let test_recorder_merge_order () =
  let r = Recorder.create ~capacity:8 () in
  Recorder.emit r ~lane:Recorder.lane_engine
    (mk_event ~source:Event.Round ~id:1 ());
  Recorder.emit r ~lane:Recorder.lane_kms (mk_event ~source:Event.Kms ~id:2 ());
  Recorder.emit r ~lane:Recorder.lane_engine
    (mk_event ~source:Event.Round ~id:3 ());
  let evs = Recorder.events r in
  check_int "all retained" 3 (List.length evs);
  check "merged in emission order" true
    (List.map (fun (e : Event.t) -> e.Event.id) evs = [ 1; 2; 3 ]);
  let seqs = List.map (fun (e : Event.t) -> e.Event.seq) evs in
  check "seq strictly increasing" true
    (List.sort_uniq compare seqs = seqs);
  check_int "emitted" 3 (Recorder.emitted r);
  check_int "dropped" 0 (Recorder.dropped r);
  Recorder.reset r;
  check_int "reset empties" 0 (List.length (Recorder.events r))

let test_recorder_drop_oldest () =
  let r = Recorder.create ~capacity:2 () in
  for i = 1 to 5 do
    Recorder.emit r ~lane:Recorder.lane_net
      (mk_event ~source:Event.Sched ~id:i ())
  done;
  check_int "retained bounded" 2 (Recorder.retained r);
  check_int "dropped" 3 (Recorder.dropped r);
  check "newest survive" true
    (List.map
       (fun (e : Event.t) -> e.Event.id)
       (Recorder.lane_events r Recorder.lane_net)
    = [ 4; 5 ])

let test_recorder_pause () =
  let r = Recorder.create () in
  Recorder.with_recorder r (fun () ->
      Recorder.set_recording false;
      Recorder.record ~lane:Recorder.lane_esp
        (mk_event ~source:Event.Esp ~id:1 ());
      Recorder.set_recording true;
      Recorder.record ~lane:Recorder.lane_esp
        (mk_event ~source:Event.Esp ~id:2 ()));
  check "paused emission dropped" true
    (List.map
       (fun (e : Event.t) -> e.Event.id)
       (Recorder.lane_events r Recorder.lane_esp)
    = [ 2 ])

let test_recorder_snapshot_window () =
  let r = Recorder.create () in
  Recorder.emit r ~lane:Recorder.lane_engine
    (mk_event ~at_s:5.0 ~source:Event.Round ~id:1 ());
  Recorder.emit r ~lane:Recorder.lane_engine
    (mk_event ~at_s:50.0 ~source:Event.Round ~id:2 ());
  Recorder.emit r ~lane:Recorder.lane_esp
    (mk_event ~at_s:0.0 ~source:Event.Esp ~id:3 ());
  let d = Recorder.snapshot ~window_s:10.0 ~now:55.0 ~reason:"test" r in
  check "window keeps recent and clockless" true
    (List.sort compare (List.map (fun (e : Event.t) -> e.Event.id) d.Recorder.events)
    = [ 2; 3 ]);
  check_string "reason" "test" d.Recorder.reason;
  let all = Recorder.snapshot r in
  check_int "no window keeps everything" 3 (List.length all.Recorder.events)

let test_dump_roundtrip_and_crc () =
  let r = Recorder.create () in
  Recorder.emit r ~lane:Recorder.lane_kms
    (mk_event ~at_s:1.0 ~verdict:"shed" ~bits:128 ~source:Event.Kms ~id:9 ());
  let d = Recorder.snapshot ~reason:"rt" r in
  let b = Recorder.to_bytes d in
  check "round trip preserves dump" true
    (compare (Recorder.of_bytes b) d = 0);
  (* flip one payload byte: the CRC must catch it *)
  let corrupt = Bytes.copy b in
  let i = Bytes.length corrupt - 1 in
  Bytes.set corrupt i (Char.chr (Char.code (Bytes.get corrupt i) lxor 0xFF));
  check "corrupted payload rejected" true
    (match Recorder.of_bytes corrupt with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "truncated rejected" true
    (match Recorder.of_bytes (Bytes.sub b 0 8) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* a v1 dump (from before the Stage source was dropped) has a different
     Marshal layout: its header must be refused, not decoded *)
  let v1 = Bytes.copy b in
  Bytes.blit_string "QKDBBOX\x01" 0 v1 0 8;
  Alcotest.check_raises "v1 header rejected"
    (Invalid_argument "Recorder.of_bytes: bad magic or version") (fun () ->
      ignore (Recorder.of_bytes v1 : Recorder.dump))

let test_fingerprint_canonicalizes_wall_clock () =
  let dump_with ~stage ~verdict =
    let r = Recorder.create () in
    Recorder.emit r ~lane:Recorder.lane_engine
      (mk_event ~stage_s:[| stage |] ~verdict ~source:Event.Round ~id:1 ());
    Recorder.snapshot ~reason:"fp" r
  in
  check "stage latencies are canonicalized away" true
    (Recorder.fingerprint (dump_with ~stage:0.1 ~verdict:"ok")
    = Recorder.fingerprint (dump_with ~stage:0.9 ~verdict:"ok"));
  check "semantic fields are not" false
    (Recorder.fingerprint (dump_with ~stage:0.1 ~verdict:"ok")
    = Recorder.fingerprint (dump_with ~stage:0.1 ~verdict:"bad"))

let test_arm_alerts_writes_dump () =
  let dir = Filename.temp_file "qkd_bbox" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Recorder.dump_path ~dir "hot" in
  let r = Recorder.create () in
  let reg = Registry.create () in
  Recorder.with_recorder r (fun () ->
      Recorder.record ~lane:Recorder.lane_engine
        (mk_event ~at_s:1.5 ~source:Event.Round ~id:1 ());
      Recorder.arm_alerts ~dir ();
      Fun.protect ~finally:Recorder.disarm_alerts (fun () ->
          ignore (Registry.with_registry reg (fun () -> fire_alert_in ()))));
  check "dump written on Fired" true (Sys.file_exists path);
  let d = Recorder.load path in
  check_string "reason names the rule" "alert:hot" d.Recorder.reason;
  check_int "window holds the event" 1 (List.length d.Recorder.events);
  Sys.remove path;
  Unix.rmdir dir

let prop_dump_crc_roundtrip =
  QCheck.Test.make ~name:"dump survives to_bytes/of_bytes" ~count:100
    QCheck.(
      list (triple (int_range 0 1000) (int_range 0 100_000) printable_string))
    (fun specs ->
      let r = Recorder.create ~capacity:(max 1 (List.length specs)) () in
      List.iter
        (fun (id, bits, verdict) ->
          Recorder.emit r ~lane:Recorder.lane_scenario
            (mk_event ~source:Event.Mark ~id ~bits ~verdict
               ~labels:[ ("v", verdict) ]
               ()))
        specs;
      let d = Recorder.snapshot ~reason:"prop" r in
      compare (Recorder.of_bytes (Recorder.to_bytes d)) d = 0)

(* -- post-mortem queries -- *)

let test_query_parse_filter () =
  check "source" true (Query.parse_filter "source=round" = Ok (Query.Source Event.Round));
  check "tenant" true (Query.parse_filter "tenant=t1" = Ok (Query.Tenant "t1"));
  check "verdict" true (Query.parse_filter "verdict=ok" = Ok (Query.Verdict "ok"));
  check "since" true (Query.parse_filter "since=5" = Ok (Query.Since 5.0));
  check "label fallthrough" true
    (Query.parse_filter "stage=ec" = Ok (Query.Label ("stage", "ec")));
  check "missing =" true
    (match Query.parse_filter "qos" with Error _ -> true | Ok _ -> false);
  check "bad source" true
    (match Query.parse_filter "source=warp" with Error _ -> true | Ok _ -> false)

let query_fixture () =
  [
    mk_event ~at_s:1.0 ~stage_s:[| 0.5 |] ~source:Event.Round ~id:1 ();
    mk_event ~at_s:2.0 ~stage_s:[| 1.5 |] ~source:Event.Round ~id:2 ();
    mk_event ~at_s:3.0 ~verdict:"shed" ~source:Event.Kms ~id:3
      ~labels:[ ("stage", "admit") ] ();
    mk_event ~at_s:9.0 ~stage_s:[| 2.5 |] ~source:Event.Round ~id:4 ();
  ]

let test_query_apply_and_group () =
  let evs = query_fixture () in
  let only_rounds = Query.apply [ Query.Source Event.Round ] evs in
  check_int "source filter" 3 (List.length only_rounds);
  check_int "conjunction" 1
    (List.length (Query.apply [ Query.Source Event.Round; Query.Since 2.0; Query.Until 3.0 ] evs));
  check_int "label filter" 1
    (List.length (Query.apply [ Query.Label ("stage", "admit") ] evs));
  (match Query.group_by ~by:"source" evs with
  | [ ("round", rs); ("kms", ks) ] ->
      check_int "rounds grouped" 3 (List.length rs);
      check_int "kms grouped" 1 (List.length ks)
  | gs -> Alcotest.failf "unexpected grouping (%d groups)" (List.length gs));
  match Query.summarize ~field:Query.Latency ~by:"source" evs with
  | [ s_round; s_kms ] ->
      check_int "round count" 3 s_round.Query.count;
      check_int "round samples" 3 s_round.Query.samples;
      check "p50 within sample range" true
        (s_round.Query.p50 >= 0.5 && s_round.Query.p50 <= 2.5);
      check_int "kms has no latency samples" 0 s_kms.Query.samples;
      check "empty percentiles are nan" true (Float.is_nan s_kms.Query.p50)
  | ss -> Alcotest.failf "unexpected summaries (%d)" (List.length ss)

(* -- round stream integrity --

   The engine lane's Round events must be exactly rounds 1..N in commit
   order — nothing lost, duplicated or reordered — and a seeded run
   must record the same stream in two fresh recorders. *)

let round_digest ~rounds ~pulses =
  let r = Recorder.create () in
  let reg = Registry.create () in
  Registry.with_registry reg (fun () ->
      Recorder.with_recorder r (fun () ->
          let engine = Engine.create ~seed:2003L Engine.default_config in
          for _ = 1 to rounds do
            ignore (Engine.run_round engine ~pulses)
          done));
  List.map
    (fun (e : Event.t) -> (e.Event.id, e.Event.verdict, e.Event.qber, e.Event.bits))
    (Recorder.lane_events r Recorder.lane_engine)

let test_round_events_intact () =
  let rounds = 4 and pulses = 10_000 in
  let d = round_digest ~rounds ~pulses in
  check "ids 1..N in commit order" true
    (List.map (fun (id, _, _, _) -> id) d = List.init rounds (fun i -> i + 1));
  check "same stream in a fresh recorder" true
    (compare d (round_digest ~rounds ~pulses) = 0)

let () =
  Alcotest.run "qkd_obs"
    [
      ( "primitives",
        [
          Alcotest.test_case "counter" `Quick test_counter_basics;
          Alcotest.test_case "gauge" `Quick test_gauge_basics;
          Alcotest.test_case "histogram placement" `Quick test_histogram_placement;
          Alcotest.test_case "bad buckets" `Quick test_histogram_bad_buckets;
          qcheck prop_counter_adds_commute;
          qcheck prop_histogram_buckets_sum_to_count;
          qcheck prop_metrics_domain_safe;
        ] );
      ( "series",
        [
          Alcotest.test_case "ring window stats" `Quick test_series_ring;
          Alcotest.test_case "ratio and wilson" `Quick test_series_ratio;
          Alcotest.test_case "labelled name" `Quick test_labelled_name;
          Alcotest.test_case "set tick sampling" `Quick test_series_set_tick;
          Alcotest.test_case "control gates push" `Quick
            test_series_control_gated;
          qcheck prop_series_eviction;
        ] );
      ( "alerts",
        [
          Alcotest.test_case "threshold lifecycle" `Quick
            test_alert_threshold_lifecycle;
          Alcotest.test_case "duplicate name rejected" `Quick
            test_alert_duplicate_name_rejected;
          Alcotest.test_case "undecidable keeps state" `Quick
            test_alert_undecidable_keeps_state;
          Alcotest.test_case "burn rate slo" `Quick test_alert_burn_rate_slo;
        ] );
      ( "registry",
        [
          Alcotest.test_case "identity" `Quick test_registry_identity;
          Alcotest.test_case "validation" `Quick test_registry_validation;
          Alcotest.test_case "with_registry restores" `Quick
            test_registry_with_registry_restores;
          Alcotest.test_case "control switch" `Quick test_control_disables_mutation;
          qcheck prop_counter_registry_order_independent;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "with_span" `Quick test_trace_with_span;
          Alcotest.test_case "record_sim" `Quick test_trace_record_sim;
          Alcotest.test_case "causal spans" `Quick test_causal_spans;
          Alcotest.test_case "bounded tracer" `Quick test_tracer_bounded;
          Alcotest.test_case "control disables spans" `Quick
            test_trace_control_disabled;
          Alcotest.test_case "backwards clock clamps" `Quick
            test_with_span_clamps_backwards_clock;
        ] );
      ( "export",
        [
          Alcotest.test_case "snapshot format" `Quick test_snapshot_format;
          Alcotest.test_case "label escaping" `Quick test_snapshot_label_escaping;
          Alcotest.test_case "escaping golden" `Quick test_escaping_golden;
          Alcotest.test_case "write_file" `Quick test_export_write_file;
          Alcotest.test_case "dump covers series" `Quick
            test_dump_mentions_every_series;
          qcheck prop_snapshot_deterministic;
          qcheck prop_snapshot_sorted;
        ] );
      ( "engine failure paths",
        [
          Alcotest.test_case "tamper counted" `Slow test_engine_tamper_counted;
          Alcotest.test_case "exhaustion counted" `Quick
            test_engine_exhaustion_counted;
          Alcotest.test_case "failure does not leak" `Slow
            test_engine_failure_does_not_leak;
          Alcotest.test_case "success observes" `Slow test_engine_success_observes;
        ] );
      ( "quantiles and exemplars",
        [
          Alcotest.test_case "bucket quantile" `Quick test_histogram_quantile;
          Alcotest.test_case "exemplar witnesses" `Quick test_histogram_exemplar;
          Alcotest.test_case "export exemplar suffix" `Quick
            test_export_exemplar_suffix;
        ] );
      ( "alert counters and hook",
        [
          Alcotest.test_case "spans dropped counter" `Quick
            test_spans_dropped_counter;
          Alcotest.test_case "fired counter" `Quick test_alert_fired_counter;
          Alcotest.test_case "fired hook" `Quick test_alert_fired_hook;
        ] );
      ( "flight recorder",
        [
          Alcotest.test_case "merge order" `Quick test_recorder_merge_order;
          Alcotest.test_case "drop oldest" `Quick test_recorder_drop_oldest;
          Alcotest.test_case "pause" `Quick test_recorder_pause;
          Alcotest.test_case "snapshot window" `Quick
            test_recorder_snapshot_window;
          Alcotest.test_case "dump round trip and crc" `Quick
            test_dump_roundtrip_and_crc;
          Alcotest.test_case "fingerprint canonical" `Quick
            test_fingerprint_canonicalizes_wall_clock;
          Alcotest.test_case "arm alerts dumps" `Quick
            test_arm_alerts_writes_dump;
          qcheck prop_dump_crc_roundtrip;
        ] );
      ( "queries",
        [
          Alcotest.test_case "parse filter" `Quick test_query_parse_filter;
          Alcotest.test_case "apply group summarize" `Quick
            test_query_apply_and_group;
        ] );
      ( "pipeline stream integrity",
        [
          Alcotest.test_case "round events complete and in commit order"
            `Quick test_round_events_intact;
        ] );
      ( "golden",
        [ Alcotest.test_case "golden" `Slow test_golden_snapshot ] );
    ]
