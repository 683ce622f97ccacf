(** Text codec for packet traces.

    One packet per line, whitespace-separated:

    {v
    <proto> <src> <sport> <dst> <dport> <flags> <ttl> <len> <seq> <ack> <payload>
    v}

    where [proto] is [tcp]/[udp]/[icmp] or a number, addresses are
    dotted quads, flags render like [SYN|ACK] (or [-]), and the payload
    is an OCaml-escaped quoted string. Lines starting with [#] and
    blank lines are ignored. The format is the interchange for replay
    experiments: captured or hand-written traces driven through an NF
    and its model. *)

let proto_of_string = function
  | "tcp" -> Headers.proto_tcp
  | "udp" -> Headers.proto_udp
  | "icmp" -> Headers.proto_icmp
  | s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None -> invalid_arg ("Codec: bad protocol " ^ s))

let flags_of_string s =
  if s = "-" then 0
  else
    String.split_on_char '|' s
    |> List.fold_left
         (fun acc part ->
           let bit =
             match part with
             | "SYN" -> Headers.syn
             | "ACK" -> Headers.ack
             | "FIN" -> Headers.fin
             | "RST" -> Headers.rst
             | "PSH" -> Headers.psh
             | "URG" -> Headers.urg
             | p -> (
                 match int_of_string_opt p with
                 | Some n -> n
                 | None -> invalid_arg ("Codec: bad flag " ^ p))
           in
           acc lor bit)
         0

(** Render one packet as a trace line. *)
let to_line (p : Pkt.t) =
  Printf.sprintf "%s %s %d %s %d %s %d %d %d %d %S"
    (Headers.proto_to_string p.Pkt.ip_proto)
    (Addr.to_string p.Pkt.ip_src) p.Pkt.sport (Addr.to_string p.Pkt.ip_dst) p.Pkt.dport
    (Headers.flags_to_string p.Pkt.tcp_flags)
    p.Pkt.ip_ttl p.Pkt.ip_len p.Pkt.seq p.Pkt.ack p.Pkt.payload

let int_field name s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Codec: bad %s %s" name s)

(** Parse one trace line.
    @raise Invalid_argument on malformed lines. *)
let of_line line =
  (* The payload is a quoted suffix; split the head fields first. *)
  let line = String.trim line in
  match String.index_opt line '"' with
  | None -> invalid_arg "Codec: missing payload field"
  | Some qpos ->
      let head = String.trim (String.sub line 0 qpos) in
      let quoted = String.sub line qpos (String.length line - qpos) in
      let payload =
        try Scanf.sscanf quoted "%S%!" Fun.id
        with Scanf.Scan_failure _ | Failure _ | End_of_file ->
          invalid_arg "Codec: payload is not one quoted string"
      in
      (match String.split_on_char ' ' head |> List.filter (fun s -> s <> "") with
      | [ proto; src; sport; dst; dport; flags; ttl; len; seq; ack ] ->
          Pkt.make ~ip_proto:(proto_of_string proto) ~ip_src:(Addr.of_string src)
            ~sport:(int_field "sport" sport) ~ip_dst:(Addr.of_string dst)
            ~dport:(int_field "dport" dport) ~tcp_flags:(flags_of_string flags)
            ~ip_ttl:(int_field "ttl" ttl) ~ip_len:(int_field "len" len)
            ~seq:(int_field "seq" seq) ~ack:(int_field "ack" ack) ~payload ()
      | _ -> invalid_arg ("Codec: malformed line: " ^ line))

(** Render a whole trace (with a header comment). *)
let to_string pkts =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# nfactor packet trace: proto src sport dst dport flags ttl len seq ack payload\n";
  List.iter
    (fun p ->
      Buffer.add_string b (to_line p);
      Buffer.add_char b '\n')
    pkts;
  Buffer.contents b

(** Parse a whole trace; [#] comments and blank lines are skipped.
    @raise Invalid_argument naming the 1-based line of the first
    malformed line. *)
let of_string text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line ->
         let t = String.trim line in
         if t = "" || t.[0] = '#' then None
         else
           try Some (of_line t)
           with Invalid_argument msg -> invalid_arg (Printf.sprintf "line %d: %s" (i + 1) msg))
  |> List.filter_map Fun.id
