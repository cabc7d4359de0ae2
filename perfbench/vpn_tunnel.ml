(* Workload [vpn_tunnel]: IKE and ESP between two gateways whose key
   pools are mirrored and pre-filled with seeded bits.

   - Phase-1 bring-ups, each on fresh endpoints ([Ike.phase1] is
     idempotent once a pair is established); the first is the
     gateways' own.
   - Phase-2 Reseed rekeys drawing 1024-bit qblocks, each checked for
     mirrored keys; the last pair is installed on the gateways.
   - [Gateway.outbound_batch]/[inbound_batch] at 64 B (per-packet cost)
     and 1400 B (per-byte cost), every packet checked byte for byte.

   The phases take turns in short cycles, so a burst of contention on
   the host lands on all of them rather than on one.

   Why: one Phase 1 is almost all [Dh] modexp, and batched ESP is the
   per-packet path, so this is where Montgomery modexp will show.
   Neither photonics nor routing runs. *)

open Common
module Ike = Qkd_ipsec.Ike
module Gateway = Qkd_ipsec.Gateway
module Sa = Qkd_ipsec.Sa
module Spd = Qkd_ipsec.Spd
module Pktbuf = Qkd_ipsec.Pktbuf
module Traffic = Qkd_ipsec.Traffic
module Packet = Qkd_ipsec.Packet
module Key_pool = Qkd_protocol.Key_pool
module Dh = Qkd_crypto.Dh
module Bignum = Qkd_crypto.Bignum
module Rng = Qkd_util.Rng
module Bitstring = Qkd_util.Bitstring

let qblock_bits = 1024
let max_rekeys = 50_000
let batch = 64
let cycle_s = 2.5

(* Long enough that no SA expires mid-run. *)
let lifetime = { Sa.seconds = 1e9; kilobytes = max_int / 2048 }
let psk = Bytes.of_string "vpn-tunnel-bench"
let wan_a = "192.1.99.34" and wan_b = "192.1.99.35"

let protect peer =
  { Spd.transform = Sa.Aes128_cbc; lifetime; qkd = Spd.Reseed; peer = Packet.addr_of_string peer; qblock_bits }

type leg = {
  payload : int;
  out_span : string;
  in_span : string;
  traffic : Traffic.t;
  src : Pktbuf.buf array;
  mid : Pktbuf.buf array;
  out : Pktbuf.buf array;
}

type state = {
  a : Gateway.t;
  b : Gateway.t;
  seed : int;
  legs : leg array;  (** 64 B, then 1400 B *)
  dh_rng : Rng.t;  (** the traced run's direct DH calls *)
}

let leg ~seed payload =
  let pool = Pktbuf.create ~capacity:2048 (3 * batch) in
  let bufs () = Array.init batch (fun _ -> Pktbuf.alloc pool) in
  {
    payload;
    out_span = Printf.sprintf "ipsec.outbound_batch_%d" payload;
    in_span = Printf.sprintf "ipsec.inbound_batch_%d" payload;
    traffic =
      Traffic.create ~seed:(Int64.of_int seed) ~src_net:"10.1.5.0" ~dst_net:"10.2.9.0" ~flows:64
        ~payload_len:payload ();
    src = bufs ();
    mid = bufs ();
    out = bufs ();
  }

let build ?(rekeys = max_rekeys) seed () =
  let bits = Rng.bits (Rng.create (Int64.of_int seed)) (qblock_bits * rekeys) in
  let gw ~name ~wan ~lan ~peer ~lan_remote ~pool seed =
    let g =
      Gateway.create ~name ~wan ~lan ~lan_prefix:16 ~psk ~key_pool:pool ~seed:(Int64.of_int seed)
    in
    Gateway.add_protect_policy g ~lan_remote ~remote_prefix:16 (protect peer);
    g
  in
  let a =
    gw ~name:"gwA" ~wan:wan_a ~lan:"10.1.0.0" ~peer:wan_b ~lan_remote:"10.2.0.0"
      ~pool:(Key_pool.create ~initial:(Bitstring.copy bits) ()) (seed + 1)
  in
  let b =
    gw ~name:"gwB" ~wan:wan_b ~lan:"10.2.0.0" ~peer:wan_a ~lan_remote:"10.1.0.0"
      ~pool:(Key_pool.create ~initial:bits ()) (seed + 2)
  in
  {
    a;
    b;
    seed;
    legs = [| leg ~seed 64; leg ~seed 1400 |];
    dh_rng = Rng.create (Int64.of_int (seed + 3));
  }

type tally = {
  bringups : samples;
  rekeys : samples;
  traced_rekeys : samples;
  packet_s : float array;  (** per leg: outbound plus inbound time *)
  packets : int array;
  words : float array;
  mutable ike_errors : int;
  mutable phase1s : int;
  mutable phase2s : int;
  mutable bad_packets : int;  (** not delivered byte-identical to the sent packet *)
  mutable phase1_words : float;
  mutable dh_words : float;  (** minor words of the traced run's direct DH calls *)
  mutable key_digest : int;  (** hash of the last negotiated keys *)
  mutable key_mismatches : int;
}

let tally () =
  {
    bringups = samples ();
    rekeys = samples ();
    traced_rekeys = samples ();
    packet_s = [| 0.0; 0.0 |];
    packets = [| 0; 0 |];
    words = [| 0.0; 0.0 |];
    ike_errors = 0;
    phase1s = 0;
    phase2s = 0;
    bad_packets = 0;
    phase1_words = 0.0;
    dh_words = 0.0;
    key_digest = 0;
    key_mismatches = 0;
  }

let fresh_endpoint ~seed ~name ~addr =
  Ike.create_endpoint
    ~identity:{ Ike.name; addr = Packet.addr_of_string addr }
    ~psk ~key_pool:(Key_pool.create ()) ~seed:(Int64.of_int seed)

let bringup st t tr =
  let initiator, responder =
    if t.phase1s = 0 then (Gateway.ike st.a, Gateway.ike st.b)
    else
      let s = st.seed + (1000 * t.phase1s) in
      ( fresh_endpoint ~seed:s ~name:"peerA" ~addr:wan_a,
        fresh_endpoint ~seed:(s + 1) ~name:"peerB" ~addr:wan_b )
  in
  let (res, words), dt =
    timed (fun () ->
        span tr "ipsec.phase1" (fun _ ->
            minor_words (fun () -> Ike.phase1 ~initiator ~responder ~now:0.0 ())))
  in
  t.phase1s <- t.phase1s + 1;
  t.phase1_words <- t.phase1_words +. words;
  match res with Ok () -> add t.bringups dt | Error _ -> t.ike_errors <- t.ike_errors + 1

let same_keys (x : Sa.t) (y : Sa.t) =
  Bytes.equal x.Sa.enc_key y.Sa.enc_key && Bytes.equal x.Sa.auth_key y.Sa.auth_key

(* One rekey; [Some pairs] when it succeeded. *)
let rekey st t tr =
  let ia = Gateway.ike st.a and ib = Gateway.ike st.b in
  let res, dt =
    timed (fun () ->
        span tr "ipsec.phase2" (fun _ ->
            Ike.phase2 ~initiator:ia ~responder:ib ~now:0.0 ~protect:(protect wan_b) ()))
  in
  t.phase2s <- t.phase2s + 1;
  (* drain the racoon-style log as a daemon would, so it cannot pile up *)
  ignore (Ike.log ia);
  ignore (Ike.log ib);
  match res with
  | Error _ ->
      t.ike_errors <- t.ike_errors + 1;
      None
  | Ok ((init : Ike.sa_pair), (resp : Ike.sa_pair)) ->
      if not (same_keys init.Ike.outbound resp.Ike.inbound && same_keys init.Ike.inbound resp.Ike.outbound)
      then t.key_mismatches <- t.key_mismatches + 1;
      t.key_digest <- Hashtbl.hash (init.Ike.outbound.Sa.enc_key, init.Ike.inbound.Sa.auth_key);
      add (if tr = None then t.rekeys else t.traced_rekeys) dt;
      Some (init, resp)

let install st ((init : Ike.sa_pair), (resp : Ike.sa_pair)) =
  Gateway.install_sas st.a ~peer:(Packet.addr_of_string wan_b) ~outbound:init.Ike.outbound
    ~inbound:init.Ike.inbound;
  Gateway.install_sas st.b ~peer:(Packet.addr_of_string wan_a) ~outbound:resp.Ike.outbound
    ~inbound:resp.Ike.inbound

let equal_buf (x : Pktbuf.buf) (y : Pktbuf.buf) =
  x.Pktbuf.len = y.Pktbuf.len
  && Bytes.equal (Bytes.sub x.Pktbuf.data 0 x.Pktbuf.len) (Bytes.sub y.Pktbuf.data 0 y.Pktbuf.len)

(* One batch through A's outbound and B's inbound; only the two
   gateway calls are timed. *)
let packets st t tr i =
  let l = st.legs.(i) in
  for j = 0 to batch - 1 do
    ignore (Traffic.next_into l.traffic l.src.(j))
  done;
  let (), words =
    minor_words (fun () ->
        let t0 = now () in
        span tr l.out_span (fun _ ->
            ignore (Gateway.outbound_batch st.a ~now:0.0 ~src:l.src ~dst:l.mid ~count:batch));
        span tr l.in_span (fun _ ->
            ignore (Gateway.inbound_batch st.b ~now:0.0 ~src:l.mid ~dst:l.out ~count:batch));
        t.packet_s.(i) <- t.packet_s.(i) +. (now () -. t0))
  in
  t.words.(i) <- t.words.(i) +. words;
  t.packets.(i) <- t.packets.(i) + batch;
  (* a packet not produced has length 0, so it fails the comparison *)
  for j = 0 to batch - 1 do
    if not (equal_buf l.src.(j) l.out.(j)) then t.bad_packets <- t.bad_packets + 1
  done

(* The Diffie-Hellman work of one bring-up, as the benchmark's own
   direct calls on the group Phase 1 uses: two key pairs, two shared
   secrets, under one [crypto.dh] span. *)
let dh_calls st t tr =
  let words f =
    let r, w = minor_words f in
    t.dh_words <- t.dh_words +. w;
    r
  in
  span tr "crypto.dh" @@ fun parent ->
  let gen () =
    span tr ~parent "crypto.dh_generate" (fun _ ->
        words (fun () -> Dh.generate st.dh_rng Dh.Oakley2))
  in
  let x = gen () in
  let y = gen () in
  (* Phase 1 reads the peer's public value off the wire, as here. *)
  let wire (k : Dh.keypair) =
    Bignum.of_bytes_be (Bignum.to_bytes_be ~len:(Dh.modp_bytes Dh.Oakley2) k.Dh.public)
  in
  List.iter
    (fun ((a : Dh.keypair), b) ->
      let peer_public = wire b in
      ignore
        (span tr ~parent "crypto.dh_shared" (fun _ ->
             words (fun () -> Dh.shared_secret Dh.Oakley2 ~secret:a.Dh.secret ~peer_public))))
    [ (x, y); (y, x) ]

(* The measured body: one cycle every [cycle_s] seconds, each a Phase-1
   bring-up followed by rekeys, 64 B batches and 1400 B batches sharing
   what is left of the cycle (a phase that ends early leaves its time
   to the next).  Short cycles spread every metric's samples over the
   whole run, so each sees the host's load across it rather than in one
   stretch.  A phase does not start a step that the previous step's
   duration says would end past its share. *)
let body ?(between = ignore) st t ~tr ~seconds =
  let cycles = max 1 (int_of_float (seconds /. cycle_s)) in
  let for_time budget f =
    (* each phase starts from a collected heap, so no phase pays for
       collecting the garbage of the one before (a bring-up allocates
       about 3 GB of bignum temporaries) *)
    Gc.full_major ();
    let deadline = now () +. budget in
    let k = ref 0 and last = ref 0.0 and go = ref true in
    while !go && (!k = 0 || now () +. !last <= deadline) do
      between ();
      let t0 = now () in
      go := f ();
      last := now () -. t0;
      incr k
    done
  in
  let start = now () in
  for c = 1 to cycles do
    between ();
    Gc.full_major ();
    bringup st t tr;
    (* the traced run adds direct DH calls every other cycle, from a
       collected heap like the bring-up's *)
    if tr <> None && c mod 2 = 0 then begin
      Gc.full_major ();
      dh_calls st t tr
    end;
    let cycle_end = start +. (float_of_int c *. seconds /. float_of_int cycles) in
    let share parts = Float.max 0.0 ((cycle_end -. now ()) /. parts) in
    let last = ref None in
    (* the pools hold [max_rekeys] qblocks: an equal part per cycle *)
    let rekey_cap = c * max_rekeys / cycles in
    for_time (share 3.0) (fun () ->
        t.phase2s < rekey_cap
        &&
        (* the traced run alternates spanned and bare rekeys *)
        let tr = if t.phase2s mod 2 = 1 then tr else None in
        (match rekey st t tr with Some p -> last := Some p | None -> ());
        true);
    Option.iter (install st) !last;
    for_time (share 2.0) (fun () ->
        packets st t tr 0;
        true);
    for_time (share 1.0) (fun () ->
        packets st t tr 1;
        true)
  done

let fingerprint seed =
  let st = build ~rekeys:16 seed () in
  let t = tally () in
  bringup st t None;
  let last = ref None in
  for _ = 1 to 8 do
    last := rekey st t None
  done;
  Option.iter (install st) !last;
  for i = 0 to 1 do
    packets st t None i
  done;
  let ia = Gateway.ike st.a in
  [
    ("ike_errors", t.ike_errors);
    ("qbits_consumed", Ike.qbits_consumed ia);
    ("wire_bytes", Ike.bytes_on_wire ia);
    ("key_digest", t.key_digest);
    ("phase1_minor_words", int_of_float t.phase1_words);
    ("minor_words_64", int_of_float t.words.(0));
    ("minor_words_1400", int_of_float t.words.(1));
    ("bad_packets", t.bad_packets);
  ]

let run r ~seed ~seconds =
  determinism r fingerprint ~seed;
  let st, su = setup ~seconds (build seed) in
  let t = tally () in
  let tr = if r.traced then Some (tracer 200_000) else None in
  let ia = Gateway.ike st.a and ib = Gateway.ike st.b in
  let wire0 = Ike.bytes_on_wire ia + Ike.bytes_on_wire ib in
  body ~between:(fun () -> setup_due su) st t ~tr ~seconds;
  setup_done r su;
  let sa = Gateway.stats st.a and sb = Gateway.stats st.b in
  let dropped = sa.Gateway.dropped + sb.Gateway.dropped in
  let sent = t.packets.(0) + t.packets.(1) in
  r.attempted <- t.phase1s + t.phase2s + sent;
  r.failed <- t.ike_errors + t.bad_packets;
  check r "decap_encap_identity" (t.bad_packets = 0);
  check r "mirrored_sa_keys" (t.key_mismatches = 0);
  Printf.printf "note vpn phase1=%d phase2=%d packets64=%d packets1400=%d dropped=%d\n"
    t.phase1s t.phase2s t.packets.(0) t.packets.(1) dropped;
  match tr with
  | None ->
      metric r ~n:t.packets.(0) "throughput_per_s" "1/s"
        (float_of_int t.packets.(0) /. t.packet_s.(0));
      metric r ~n:t.packets.(1) "goodput_bits_per_s" "bit/s"
        (float_of_int (8 * t.packets.(1) * st.legs.(1).payload) /. t.packet_s.(1));
      metric r ~n:(count t.bringups) "op_p50_s" "s" (quantile t.bringups 50);
      latency r ~p50:"rekey_p50_s" ~p99:"rekey_p99_s" t.rekeys
  | Some tracer ->
      layer_metrics r tracer ~target:"crypto.dh" ~target_words:t.dh_words ~op:"ipsec.phase1"
        ~op_words:t.phase1_words;
      ignore (span_detail r tracer ~span:"crypto.dh_generate" "crypto.dh_generate_s");
      ignore (span_detail r tracer ~span:"crypto.dh_shared" "crypto.dh_shared_s");
      ignore (span_detail r tracer ~span:"ipsec.phase1" "ipsec.phase1_s");
      ignore (span_detail r tracer ~span:"ipsec.phase2" "ipsec.phase2_s");
      detail r ~n:t.phase2s "ipsec.qbits_per_rekey" "bit"
        (float_of_int (Ike.qbits_consumed ia) /. float_of_int t.phase2s);
      detail r ~n:t.phase2s "ipsec.wire_bytes_per_rekey" "B"
        (float_of_int (Ike.bytes_on_wire ia + Ike.bytes_on_wire ib - wire0) /. float_of_int t.phase2s);
      Array.iteri
        (fun i l ->
          let sfx = Printf.sprintf "_%d" l.payload in
          ignore (span_detail r tracer ~span:l.out_span ("ipsec.outbound_batch_s" ^ sfx));
          ignore (span_detail r tracer ~span:l.in_span ("ipsec.inbound_batch_s" ^ sfx));
          detail r ~n:t.packets.(i) ("ipsec.minor_words_per_packet" ^ sfx) "words"
            (t.words.(i) /. float_of_int t.packets.(i)))
        st.legs;
      detail r ~n:sent "ipsec.drop_ratio" "ratio" (ratio dropped sent);
      overhead r ~untraced:t.rekeys ~traced:t.traced_rekeys;
      trace_totals r tracer
