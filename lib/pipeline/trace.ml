type status = Miss | Mem_hit | Disk_hit

type t = {
  nf : string;
  pass : string;
  fingerprint : Fingerprint.t;
  status : status;
  wall_s : float;
}

let status_to_string = function
  | Miss -> "miss"
  | Mem_hit -> "mem-hit"
  | Disk_hit -> "disk-hit"

let is_hit t = t.status <> Miss

let hit_rate traces =
  match traces with
  | [] -> 0.
  | _ ->
      let hits = List.length (List.filter is_hit traces) in
      100. *. float_of_int hits /. float_of_int (List.length traces)

let total_wall_s traces = List.fold_left (fun acc t -> acc +. t.wall_s) 0. traces

let pp ppf t =
  Fmt.pf ppf "%-12s %-12s %a %-8s %8.3fms" t.nf t.pass Fingerprint.pp t.fingerprint
    (status_to_string t.status) (t.wall_s *. 1e3)

let to_json t =
  Printf.sprintf
    "{ \"nf\": %s, \"pass\": %s, \"fingerprint\": %s, \"status\": %s, \"wall_ms\": %.3f }"
    (Nfactor.Json.quote t.nf) (Nfactor.Json.quote t.pass) (Nfactor.Json.quote t.fingerprint)
    (Nfactor.Json.quote (status_to_string t.status))
    (t.wall_s *. 1e3)
