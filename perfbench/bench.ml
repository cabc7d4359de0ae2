(* The repository's benchmark.

     bench.exe --workload distill|kms_metro|vpn_tunnel --seed N
               --seconds S --trace 0|1

   Builds the workload's inputs from the seed, measures for about S
   seconds, checks the program's outputs, and prints a human-readable
   report followed by one JSON line: end-to-end metrics with --trace 0,
   per-layer metrics from bench-owned spans with --trace 1.  See
   README.md in this directory. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "distill | kms_metro | vpn_tunnel");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "distill" -> Distill.run
    | "kms_metro" -> Kms_metro.run
    | "vpn_tunnel" -> Vpn_tunnel.run
    | w ->
        prerr_endline ("unknown workload: " ^ w);
        exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  (* Spans on the benchmark's clock: the library's default is CPU time. *)
  Qkd_obs.Trace.set_clock Common.now;
  let r =
    Common.report ~traced:(!trace = 1)
      ~trace_file:(Printf.sprintf "%s-seed%d.trace.json" !workload !seed)
  in
  Common.check r "quantile_selfcheck" (Common.quantile_selfcheck ());
  run r ~seed:!seed ~seconds:!seconds;
  if not r.Common.traced then
    Common.metric r "heap_peak_mb" "MB" (Common.heap_peak_mb ());
  Common.print r
