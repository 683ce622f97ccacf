(** Protocol numbers, TCP flag bits and well-known field names shared by
    the packet representation, the NFL interpreter and the model
    interpreter. *)

(* IANA protocol numbers for the protocols the corpus cares about. *)
let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17

let proto_to_string p =
  if p = proto_icmp then "icmp"
  else if p = proto_tcp then "tcp"
  else if p = proto_udp then "udp"
  else string_of_int p

(* TCP flag bits, standard wire encoding. *)
let fin = 0x01
let syn = 0x02
let rst = 0x04
let psh = 0x08
let ack = 0x10
let urg = 0x20

let has flags bit = flags land bit <> 0

let flags_to_string flags =
  let parts =
    List.filter_map
      (fun (bit, name) -> if has flags bit then Some name else None)
      [ (syn, "SYN"); (ack, "ACK"); (fin, "FIN"); (rst, "RST"); (psh, "PSH"); (urg, "URG") ]
  in
  match parts with [] -> "-" | _ -> String.concat "|" parts

(** Field names exposed to NFL programs via [pkt.<field>]. Integer-valued
    except [payload], which is a string. *)
let int_fields =
  [ "ip_src"; "ip_dst"; "ip_proto"; "ip_ttl"; "ip_len"; "sport"; "dport"; "tcp_flags"; "seq"; "ack" ]

let str_fields = [ "payload" ]

(* Same answers as [List.mem] over the two lists above, as one match. *)
let is_int_field = function
  | "ip_src" | "ip_dst" | "ip_proto" | "ip_ttl" | "ip_len" | "sport" | "dport" | "tcp_flags"
  | "seq" | "ack" ->
      true
  | _ -> false

let is_str_field = function "payload" -> true | _ -> false
let is_field f = is_int_field f || is_str_field f
