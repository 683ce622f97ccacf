(** Model-driven test-packet generation (paper Section 4, "Testing").

    BUZZ generates test traffic from NF models; the paper's point is
    that NFactor supplies those models automatically instead of from
    hand-written domain knowledge. Given an extracted model, this
    module computes a packet sequence that makes every reachable model
    entry fire at least once:

    - the flow-match predicates of an entry are concretized into a
      packet by the constraint solver;
    - state-match predicates are satisfied by {e sequencing}: entries
      that need existing state (an installed NAT mapping, an open
      pinhole, a half-open handshake) become reachable after earlier
      packets installed it, so generation runs in rounds against the
      model's own state. *)

open Nfactor
open Symexec

type coverage = {
  pkts : Packet.Pkt.t list;  (** generated sequence, in order *)
  covered : int list;  (** entry indices fired, in firing order *)
  uncovered : int list;  (** entries never fired *)
}

(* A solver assignment's packet fields, decoded once: every
   "<pkt_var>.<field>" symbol naming a header field becomes
   (field, value), clamped into field-plausible ranges, in symbol
   order. Other symbols, and values of the wrong kind, are dropped. *)
let overlay_fields ~pkt_var assignment =
  let prefix = pkt_var ^ "." in
  let plen = String.length prefix in
  Solver.Smap.fold
    (fun name v acc ->
      if String.length name > plen && String.starts_with ~prefix name then
        let f = String.sub name plen (String.length name - plen) in
        match v with
        | Value.Int n when Packet.Headers.is_int_field f ->
            let n = if f = "sport" || f = "dport" then ((n mod 65536) + 65536) mod 65536 else n land 0xFFFFFFFF in
            (f, Value.Int n) :: acc
        | Value.Str _ when Packet.Headers.is_str_field f -> (f, v) :: acc
        | _ -> acc
      else acc)
    assignment []
  |> List.rev

let overlay ~pkt_var assignment =
  let fields = overlay_fields ~pkt_var assignment in
  fun base ->
    List.fold_left
      (fun pkt (f, v) ->
        match v with
        | Value.Int n -> Packet.Pkt.set_int pkt f n
        | Value.Str s -> Packet.Pkt.set_str pkt f s
        | _ -> pkt)
      base fields

let default_base =
  Packet.Pkt.make ~ip_src:(Packet.Addr.ip 10 0 0 1) ~ip_dst:(Packet.Addr.ip 3 3 3 3) ~sport:40000
    ~dport:80 ()

(* Substitute config-variable symbols with their concrete extraction-
   time values so the solver works over packet fields only. *)
let resolve_config store (l : Solver.literal) =
  let subst name =
    match Model_interp.Smap.find_opt name store with
    | Some v -> Some v
    | None -> None
  in
  { l with Solver.atom = Sexpr.subst subst l.Solver.atom }

(* Base-packet palette: the solver concretizes the linear atoms
   exactly, but prefix tests ([src & mask == net]) and port-list
   membership are opaque to it — those are satisfied by trying bases
   drawn from the address/port families NF configs use. *)
let base_palette =
  let addrs =
    [
      Packet.Addr.ip 10 0 0 1;
      Packet.Addr.ip 192 168 1 5;
      Packet.Addr.ip 8 8 8 8;
      Packet.Addr.ip 5 5 5 5;
      Packet.Addr.ip 3 3 3 3;
      Packet.Addr.ip 1 1 1 1;
      Packet.Addr.ip 10 9 1 1;
    ]
  in
  let ports = [ 80; 443; 40000; 53; 20000; 10000 ] in
  let flags = [ Packet.Headers.ack; Packet.Headers.syn; Packet.Headers.ack lor Packet.Headers.psh ] in
  (* Payload pool covering common IDS/IPS signature families. *)
  let payloads = [ ""; "SELECT * FROM"; "/bin/sh"; "GET /etc/passwd"; "USER root" ] in
  List.concat_map
    (fun src ->
      List.concat_map
        (fun dst ->
          if src = dst then []
          else
            List.concat_map
              (fun dport ->
                List.concat_map
                  (fun fl ->
                    List.map
                      (fun payload ->
                        Packet.Pkt.make ~ip_src:src ~ip_dst:dst ~sport:40001 ~dport
                          ~tcp_flags:fl ~payload ())
                      payloads)
                  flags)
              ports)
        addrs)
    addrs

(* State-derived candidates (the BUZZ insight): entries guarded by
   state membership want packets matching — or reversing — flow keys
   already installed in the model's state tables. 4-tuple keys yield
   the flow and its reverse; 3-tuple keys (peer, peer-port, local-port,
   as NAT reverse maps use) are completed with destination addresses
   drawn from the store's address-valued configuration. *)
let state_candidates (store : Model_interp.store) =
  let store_addrs =
    Model_interp.Smap.fold
      (fun _ v acc -> match v with Value.Int n when n > 0xFFFF -> n :: acc | _ -> acc)
      store []
  in
  let flag_variants =
    [
      Packet.Headers.ack;
      Packet.Headers.syn;
      Packet.Headers.ack lor Packet.Headers.psh;
      Packet.Headers.fin lor Packet.Headers.ack;
      Packet.Headers.rst;
      0;
    ]
  in
  let with_flags mk = List.map (fun fl -> mk fl) flag_variants in
  Model_interp.Smap.fold
    (fun _name v acc ->
      match v with
      | Value.Dict kvs ->
          List.fold_left
            (fun acc (k, _) ->
              match k with
              | Value.Tuple [ Value.Int a; Value.Int b; Value.Int c; Value.Int d ]
                when Packet.Addr.valid_port b && Packet.Addr.valid_port d ->
                  with_flags (fun fl ->
                      Packet.Pkt.make ~ip_src:a ~sport:b ~ip_dst:c ~dport:d ~tcp_flags:fl ())
                  @ with_flags (fun fl ->
                        Packet.Pkt.make ~ip_src:c ~sport:d ~ip_dst:a ~dport:b ~tcp_flags:fl ())
                  @ acc
              | Value.Tuple [ Value.Int a; Value.Int b; Value.Int c ]
                when Packet.Addr.valid_port b && Packet.Addr.valid_port c ->
                  List.fold_left
                    (fun acc dst ->
                      Packet.Pkt.make ~ip_src:a ~sport:b ~ip_dst:dst ~dport:c () :: acc)
                    acc store_addrs
              | Value.Int a when a > 0xFFFF ->
                  (* Address-keyed state (per-source counters). *)
                  List.fold_left
                    (fun acc dst ->
                      if dst = a then acc
                      else Packet.Pkt.make ~ip_src:a ~sport:40002 ~ip_dst:dst ~dport:80 () :: acc)
                    acc store_addrs
              | _ -> acc)
            acc kvs
      | _ -> acc)
    store []

(** Try to build a packet that makes entry [idx] fire given the current
    [store]. The solver concretizes the entry's linear flow atoms over
    a palette of base packets (covering the opaque prefix/port-set
    atoms) plus packets derived from installed state (for entries
    guarded by membership); every candidate is checked by actually
    stepping the model — generation never trusts the solver's
    incomplete positive answers. *)
let attempt_entry (m : Model.t) store idx =
  let e = List.nth m.Model.entries idx in
  let lits = List.map (resolve_config store) (e.Model.config @ e.Model.flow_match) in
  match Solver.concretize ~default:1 lits with
  | None -> None
  | Some assignment ->
      (* The assignment covers only solver-constrained fields, so it
         overlays safely onto state-derived and palette bases; raw
         variants are kept for entries whose constraints live entirely
         in the opaque atoms. *)
      let try_candidate pkt =
        let r = Model_interp.step m store pkt in
        if r.Model_interp.matched = Some idx then Some (pkt, r.Model_interp.store) else None
      in
      let overlay = overlay ~pkt_var:m.Model.pkt_var assignment in
      let from_state = state_candidates store in
      let candidates =
        (overlay default_base :: from_state)
        @ List.map overlay from_state @ List.map overlay base_palette @ base_palette
      in
      List.find_map try_candidate candidates

(** Generate a covering packet sequence. [max_rounds] bounds the
    state-installation chains (a round covers every entry currently
    reachable; deeper state needs more rounds). *)
let cover ?(max_rounds = 8) (ex : Extract.result) =
  let m = ex.Extract.model in
  let n = List.length m.Model.entries in
  let store = ref (Model_interp.initial_store ex) in
  let pkts = ref [] and covered = ref [] in
  let uncovered () = List.filter (fun i -> not (List.mem i !covered)) (List.init n Fun.id) in
  let progress = ref true in
  let rounds = ref 0 in
  while !progress && uncovered () <> [] && !rounds < max_rounds do
    progress := false;
    incr rounds;
    List.iter
      (fun idx ->
        match attempt_entry m !store idx with
        | Some (pkt, store') ->
            store := store';
            pkts := pkt :: !pkts;
            covered := !covered @ [ idx ];
            progress := true
        | None -> ())
      (uncovered ())
  done;
  { pkts = List.rev !pkts; covered = !covered; uncovered = uncovered () }

(** Replay generated packets against the original program and check
    every packet produces identical output — compliance testing with
    model-derived traffic. *)
let compliance (ex : Extract.result) (c : coverage) = Equiv.differential ex ~pkts:c.pkts

let pp_coverage ppf c =
  Fmt.pf ppf "%d packet(s) covering entries [%a]; uncovered [%a]" (List.length c.pkts)
    Fmt.(list ~sep:(any "; ") int)
    c.covered
    Fmt.(list ~sep:(any "; ") int)
    c.uncovered
