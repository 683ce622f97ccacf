(** Synthetic workload generation.

    Stands in for the paper's live traffic: the accuracy experiment
    (Section 5) feeds 1000 random packets to both the original program
    and the extracted model; the corpus NFs additionally need realistic
    *flow-structured* traffic (handshakes followed by data) to exercise
    their stateful paths. All generators are deterministic given the
    seed. *)

type profile = {
  client_ips : Addr.ip list;  (** source pool for inbound packets *)
  server_ips : Addr.ip list;  (** destination pool / virtual IPs *)
  server_ports : Addr.port list;
  payloads : string list;  (** payload pool (some may match IDS rules) *)
}

let default_profile =
  {
    client_ips = List.init 8 (fun i -> Addr.ip 10 0 0 (i + 1));
    server_ips = [ Addr.ip 3 3 3 3 ];
    server_ports = [ 80; 443; 8080 ];
    payloads = [ ""; "GET / HTTP/1.0"; "USER root"; "hello"; "\x90\x90\x90"; "SELECT * FROM" ];
  }

(** Fully random packet: uniform fields from the profile pools, random
    flags and ports. This is the "random inputs" generator used by the
    accuracy experiment. *)
let random_pkt rng profile =
  let flags =
    Rng.pick rng
      [ Headers.syn; Headers.syn lor Headers.ack; Headers.ack; Headers.ack lor Headers.psh; Headers.fin lor Headers.ack; Headers.rst; 0 ]
  in
  let inbound = Rng.bool rng in
  let client = Rng.pick rng profile.client_ips in
  let server = Rng.pick rng profile.server_ips in
  let sport = 1024 + Rng.int rng 60000 in
  let dport = Rng.pick rng profile.server_ports in
  if inbound then
    Pkt.make ~ip_src:client ~ip_dst:server ~sport ~dport ~tcp_flags:flags
      ~payload:(Rng.pick rng profile.payloads) ()
  else
    Pkt.make ~ip_src:server ~ip_dst:client ~sport:dport ~dport:sport ~tcp_flags:flags
      ~payload:(Rng.pick rng profile.payloads) ()

(** [random_stream ~seed ~n profile] is [n] independent random packets. *)
let random_stream ?(profile = default_profile) ~seed ~n () =
  let rng = Rng.create seed in
  List.init n (fun _ -> random_pkt rng profile)

(** A conversation addressed by position, so a flow in flight needs
    only its endpoint tuple and a cursor — no materialized packet
    list. Script: SYN, SYN/ACK (reverse direction), ACK, [data_pkts]
    PSH/ACK data segments each answered by an ACK, then the FIN/ACK
    exchange. *)
let conv_len ~data_pkts = 6 + (2 * data_pkts)

let conv_pkt ~client ~cport ~server ~sport ~data_pkts ~payload k =
  let fwd flags pl =
    Pkt.make ~ip_src:client ~ip_dst:server ~sport:cport ~dport:sport ~tcp_flags:flags ~payload:pl ()
  in
  let rev flags pl =
    Pkt.make ~ip_src:server ~ip_dst:client ~sport ~dport:cport ~tcp_flags:flags ~payload:pl ()
  in
  let n = conv_len ~data_pkts in
  if k = 0 then fwd Headers.syn ""
  else if k = 1 then rev (Headers.syn lor Headers.ack) ""
  else if k = 2 then fwd Headers.ack ""
  else if k < n - 3 then
    if (k - 3) land 1 = 0 then fwd (Headers.ack lor Headers.psh) payload
    else rev Headers.ack ""
  else if k = n - 3 then fwd (Headers.fin lor Headers.ack) ""
  else if k = n - 2 then rev (Headers.fin lor Headers.ack) ""
  else fwd Headers.ack ""

(** One complete client->server conversation as a packet list — the
    positional script above, materialized. Useful for driving stateful
    NFs through their "existing connection" entries. *)
let conversation ~client ~cport ~server ~sport ~data_pkts ~payload =
  List.init (conv_len ~data_pkts)
    (conv_pkt ~client ~cport ~server ~sport ~data_pkts ~payload)

(** Interleaved flow-structured workload: [flows] conversations whose
    packets are emitted round-robin, mimicking concurrent clients. *)
let flow_stream ?(profile = default_profile) ~seed ~flows ~data_pkts () =
  let rng = Rng.create seed in
  let convs =
    List.init flows (fun _ ->
        conversation
          ~client:(Rng.pick rng profile.client_ips)
          ~cport:(1024 + Rng.int rng 60000)
          ~server:(Rng.pick rng profile.server_ips)
          ~sport:(Rng.pick rng profile.server_ports)
          ~data_pkts
          ~payload:(Rng.pick rng profile.payloads))
  in
  (* Round-robin interleave until all conversations are drained. *)
  let rec interleave acc convs =
    let heads, tails =
      List.fold_right
        (fun conv (hs, ts) ->
          match conv with [] -> (hs, ts) | p :: rest -> (p :: hs, rest :: ts))
        convs ([], [])
    in
    match heads with [] -> List.rev acc | _ -> interleave (List.rev_append heads acc) tails
  in
  interleave [] convs

(* ------------------------------------------------------------------ *)
(* Churn workload                                                      *)
(* ------------------------------------------------------------------ *)

(* A pool of [concurrent] conversations in flight. Each emitted packet
   advances a uniformly chosen flow one script position; a finished
   flow is replaced in place by a fresh client drawn from the whole
   10.0.0.0/8 space (inside the corpus NAT's inside network), so the
   live-flow count stays constant while the flow population turns
   over without bound. Per-flow storage is the endpoint tuple plus a
   cursor — a few machine words — so pools of millions of concurrent
   flows are cheap. Deterministic given the seed, and independent of
   how the consumer batches packets. *)
type churn = {
  ch_rng : Rng.t;
  ch_profile : profile;
  ch_data_pkts : int;
  cl_ip : int array;
  cl_port : int array;
  sv_ip : int array;
  sv_port : int array;
  pay : string array;
  pos : int array;
}

let spawn_flow c i =
  let rng = c.ch_rng in
  c.cl_ip.(i) <- Addr.ip 10 (Rng.int rng 256) (Rng.int rng 256) (1 + Rng.int rng 254);
  c.cl_port.(i) <- 1024 + Rng.int rng 60000;
  c.sv_ip.(i) <- Rng.pick rng c.ch_profile.server_ips;
  c.sv_port.(i) <- Rng.pick rng c.ch_profile.server_ports;
  c.pay.(i) <- Rng.pick rng c.ch_profile.payloads;
  c.pos.(i) <- 0

let churn_gen ?(profile = default_profile) ?(data_pkts = 4) ~concurrent ~seed () =
  if concurrent <= 0 then invalid_arg "Traffic.churn_gen: concurrent must be positive";
  let c =
    {
      ch_rng = Rng.create seed;
      ch_profile = profile;
      ch_data_pkts = data_pkts;
      cl_ip = Array.make concurrent 0;
      cl_port = Array.make concurrent 0;
      sv_ip = Array.make concurrent 0;
      sv_port = Array.make concurrent 0;
      pay = Array.make concurrent "";
      pos = Array.make concurrent 0;
    }
  in
  for i = 0 to concurrent - 1 do
    spawn_flow c i
  done;
  c

let churn_next c =
  let i = Rng.int c.ch_rng (Array.length c.pos) in
  let k = c.pos.(i) in
  let p =
    conv_pkt ~client:c.cl_ip.(i) ~cport:c.cl_port.(i) ~server:c.sv_ip.(i)
      ~sport:c.sv_port.(i) ~data_pkts:c.ch_data_pkts ~payload:c.pay.(i) k
  in
  if k + 1 >= conv_len ~data_pkts:c.ch_data_pkts then spawn_flow c i
  else c.pos.(i) <- k + 1;
  p

(* ------------------------------------------------------------------ *)
(* Timed driver                                                        *)
(* ------------------------------------------------------------------ *)

(* Packets are drawn in bounded chunks outside the timer, so memory
   stays flat and the clock charges [consume] and nothing else.
   [Array.init] calls [next] in index order, so a random source keeps
   [random_stream]'s RNG order. *)
let time_batches ?(batch = 4096) ~next ~n consume =
  let elapsed = ref 0.0 in
  let remaining = ref n in
  while !remaining > 0 do
    let m = min !remaining batch in
    let pkts = Array.init m (fun _ -> next ()) in
    let t0 = Unix.gettimeofday () in
    ignore (consume pkts);
    elapsed := !elapsed +. (Unix.gettimeofday () -. t0);
    remaining := !remaining - m
  done;
  !elapsed
