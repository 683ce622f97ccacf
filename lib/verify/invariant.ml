(* Chain invariants decided over Symreach classes, with every Violated
   verdict validated by replaying a concrete probe through the
   reference chain. Unsat is trusted; Sat never issues a verdict on
   its own. *)

open Nfactor
open Symexec

type nodes = (string * Model.t * Model_interp.store) list

(* ------------------------------------------------------------------ *)
(* Property language                                                  *)
(* ------------------------------------------------------------------ *)

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type pred = { p_field : string; p_cmp : cmp; p_value : Value.t }

type prop = pred list

let cmp_string = function
  | Ceq -> "="
  | Cne -> "!="
  | Clt -> "<"
  | Cle -> "<="
  | Cgt -> ">"
  | Cge -> ">="

let ops = [ ("<=", Cle); (">=", Cge); ("!=", Cne); ("=", Ceq); ("<", Clt); (">", Cgt) ]

let split_on_op s =
  let rec scan = function
    | [] -> None
    | (tok, cmp) :: rest -> (
        let tl = String.length tok in
        let rec at i =
          if i + tl > String.length s then None
          else if String.sub s i tl = tok then
            Some (String.trim (String.sub s 0 i), cmp,
                  String.trim (String.sub s (i + tl) (String.length s - i - tl)))
          else at (i + 1)
        in
        match at 0 with Some r -> Some r | None -> scan rest)
  in
  scan ops

let parse_value ~field s =
  if List.mem field Packet.Headers.int_fields then
    match int_of_string_opt s with
    | Some i -> Ok (Value.Int i)
    | None -> (
        match Packet.Addr.of_string s with
        | ip -> Ok (Value.Int ip)
        | exception _ -> Error (Printf.sprintf "%S is not an integer or dotted quad" s))
  else Ok (Value.Str s)

let parse_pred s =
  match split_on_op s with
  | None -> Error (Printf.sprintf "no comparison operator in %S (expected = != < <= > >=)" s)
  | Some (field, cmp, value) ->
      if not (List.mem field (Packet.Headers.int_fields @ Packet.Headers.str_fields))
      then Error (Printf.sprintf "unknown header field %S" field)
      else
        Result.map
          (fun v -> { p_field = field; p_cmp = cmp; p_value = v })
          (parse_value ~field value)

let parse_prop s =
  let parts = String.split_on_char '&' s |> List.map String.trim in
  if parts = [] || List.exists (fun p -> p = "") parts then
    Error (Printf.sprintf "empty conjunct in property %S" s)
  else
    List.fold_left
      (fun acc p ->
        match (acc, parse_pred p) with
        | Error e, _ -> Error e
        | _, Error e -> Error e
        | Ok ps, Ok pr -> Ok (ps @ [ pr ]))
      (Ok []) parts

let pp_prop ppf prop =
  Fmt.pf ppf "%a"
    Fmt.(
      list ~sep:(any " & ") (fun ppf p ->
          Fmt.pf ppf "%s%s%a" p.p_field (cmp_string p.p_cmp) Value.pp p.p_value))
    prop

let prop_string prop = Fmt.str "%a" pp_prop prop

let holds_pred p pkt =
  let v =
    if List.mem p.p_field Packet.Headers.int_fields then
      Value.Int (Packet.Pkt.get_int pkt p.p_field)
    else Value.Str (Packet.Pkt.get_str pkt p.p_field)
  in
  let c = Value.compare v p.p_value in
  match p.p_cmp with
  | Ceq -> c = 0
  | Cne -> c <> 0
  | Clt -> c < 0
  | Cle -> c <= 0
  | Cgt -> c > 0
  | Cge -> c >= 0

let holds_on prop pkt = List.for_all (fun p -> holds_pred p pkt) prop

let ast_op = function
  | Ceq | Cne -> Nfl.Ast.Eq
  | Clt -> Nfl.Ast.Lt
  | Cle -> Nfl.Ast.Le
  | Cgt -> Nfl.Ast.Gt
  | Cge -> Nfl.Ast.Ge

let sym_lits prop (pkt : Symreach.sym_pkt) =
  List.map
    (fun p ->
      let fe =
        match List.assoc_opt p.p_field pkt with
        | Some e -> e
        | None -> Sexpr.sym ("in." ^ p.p_field)
      in
      Solver.lit (Sexpr.mk_bin (ast_op p.p_cmp) fe (Sexpr.const p.p_value)) (p.p_cmp <> Cne))
    prop

(* ------------------------------------------------------------------ *)
(* Verdicts                                                           *)
(* ------------------------------------------------------------------ *)

type status = Proven | Violated | Unknown

type outcome = {
  status : status;
  counterexample : Packet.Pkt.t option;
  outputs : Packet.Pkt.t list;
  classes_checked : int;
  detail : string;
}

let status_string = function
  | Proven -> "proven"
  | Violated -> "violated"
  | Unknown -> "unknown"

(* Candidate probes for a solver assignment: the assignment over the
   default packet, plus the assignment overlaid on every palette base
   (the palette diversifies fields the assignment left
   unconstrained). *)
let assignment_probes asg =
  let ov = Testgen.overlay ~pkt_var:"in" asg in
  List.sort_uniq Packet.Pkt.compare (ov Testgen.default_base :: List.map ov Testgen.base_palette)

let probes lits =
  match Solver.concretize lits with None -> [] | Some asg -> assignment_probes asg

(* The probe lists of a query's literal sets, in order, each distinct
   list once: the probes depend only on the decoded overlay, so a
   literal set whose overlay was already seen is skipped (replaying
   its list again would give the same answer). Lazy, so a query that
   confirms early concretizes no further; the memo lives in one
   sequence, i.e. one query. *)
let probe_lists lit_sets =
  let seen = Hashtbl.create 8 in
  Seq.filter_map
    (fun lits ->
      match Solver.concretize lits with
      | None -> None
      | Some asg ->
          let key = Testgen.overlay_fields ~pkt_var:"in" asg in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            Some (assignment_probes asg)
          end)
    (List.to_seq lit_sets)

let never_reaches (nodes : nodes) prop =
  let cls = Symreach.classes nodes in
  let checked = List.length cls in
  let feasible =
    List.filter
      (fun (c : Symreach.cls) ->
        Solver.check (c.Symreach.constraints @ sym_lits prop c.Symreach.pkt)
        <> Solver.Unsat)
      cls
  in
  if feasible = [] then
    {
      status = Proven;
      counterexample = None;
      outputs = [];
      classes_checked = checked;
      detail =
        Printf.sprintf "all %d end-to-end classes refute [%s]" checked
          (prop_string prop);
    }
  else
    let replay = Network.replay nodes in
    let confirm =
      List.find_map (fun p ->
          let outs = replay p in
          if List.exists (holds_on prop) outs then Some (p, outs) else None)
    in
    let lit_sets =
      List.map
        (fun (c : Symreach.cls) -> c.Symreach.constraints @ sym_lits prop c.Symreach.pkt)
        feasible
    in
    match Seq.find_map confirm (probe_lists lit_sets) with
    | Some (p, outs) ->
        {
          status = Violated;
          counterexample = Some p;
          outputs = outs;
          classes_checked = checked;
          detail =
            Printf.sprintf
              "%d of %d classes can emerge matching [%s]; replayed counterexample \
               emitted %d packet(s)"
              (List.length feasible) checked (prop_string prop) (List.length outs);
        }
    | None ->
        {
          status = Unknown;
          counterexample = None;
          outputs = [];
          classes_checked = checked;
          detail =
            Printf.sprintf
              "%d of %d classes look feasible for [%s] but no concrete probe \
               validated (solver Sat is over-approximate)"
              (List.length feasible) checked (prop_string prop);
        }

let subchain (nodes : nodes) ~from_ ~to_ =
  let ids = List.map (fun (id, _, _) -> id) nodes in
  let idx name =
    match List.find_index (String.equal name) ids with
    | Some i -> i
    | None ->
        invalid_arg
          (Printf.sprintf "Invariant.state_implies_drop: no node %S in chain [%s]"
             name (String.concat ", " ids))
  in
  let i = idx from_ and j = idx to_ in
  if i > j then
    invalid_arg
      (Printf.sprintf
         "Invariant.state_implies_drop: %S comes after %S in chain [%s]" from_ to_
         (String.concat ", " ids));
  List.filteri (fun k _ -> k >= i && k <= j) nodes

let state_implies_drop (nodes : nodes) ~from_ ~to_ ~cls:prop =
  let sub = subchain nodes ~from_ ~to_ in
  let in_lits = sym_lits prop Symreach.fresh_pkt in
  let classes = Symreach.classes ~drops:true sub in
  let checked = List.length classes in
  let escaping =
    List.filter
      (fun (c : Symreach.cls) ->
        c.Symreach.alive
        && Solver.check (c.Symreach.constraints @ in_lits) <> Solver.Unsat)
      classes
  in
  if escaping = [] then
    {
      status = Proven;
      counterexample = None;
      outputs = [];
      classes_checked = checked;
      detail =
        Printf.sprintf "every class matching [%s] at %s is dropped by %s (%d classes)"
          (prop_string prop) from_ to_ checked;
    }
  else
    let replay = Network.replay sub in
    let confirm =
      List.find_map (fun p ->
          if not (holds_on prop p) then None
          else match replay p with [] -> None | outs -> Some (p, outs))
    in
    let lit_sets =
      List.map (fun (c : Symreach.cls) -> c.Symreach.constraints @ in_lits) escaping
    in
    match Seq.find_map confirm (probe_lists lit_sets) with
    | Some (p, outs) ->
        {
          status = Violated;
          counterexample = Some p;
          outputs = outs;
          classes_checked = checked;
          detail =
            Printf.sprintf
              "a packet matching [%s] at %s survives to %s (%d packet(s) emitted)"
              (prop_string prop) from_ to_ (List.length outs);
        }
    | None ->
        {
          status = Unknown;
          counterexample = None;
          outputs = [];
          classes_checked = checked;
          detail =
            Printf.sprintf
              "%d of %d classes look like escapes for [%s] but no concrete probe \
               validated"
              (List.length escaping) checked (prop_string prop);
        }

let order_equiv (a : nodes) (b : nodes) =
  let classes = Symreach.classes a @ Symreach.classes b in
  let witness_probes =
    List.map (fun (c : Symreach.cls) -> c.Symreach.constraints) classes
    |> probe_lists |> List.of_seq |> List.concat
    |> List.sort_uniq Packet.Pkt.compare
  in
  let checked = List.length classes in
  let replay_a = Network.replay a and replay_b = Network.replay b in
  let sort = List.sort Packet.Pkt.compare in
  let mismatch p =
    let oa = sort (replay_a p) and ob = sort (replay_b p) in
    if List.equal Packet.Pkt.equal oa ob then None else Some (p, oa, ob)
  in
  match witness_probes with
  | [] ->
      {
        status = Unknown;
        counterexample = None;
        outputs = [];
        classes_checked = checked;
        detail = "no class could be concretized into a witness probe";
      }
  | _ -> (
      match List.find_map mismatch witness_probes with
      | Some (p, oa, ob) ->
          {
            status = Violated;
            counterexample = Some p;
            outputs = oa;
            classes_checked = checked;
            detail =
              Printf.sprintf
                "orders disagree on a witness: %d vs %d packet(s) emitted"
                (List.length oa) (List.length ob);
          }
      | None ->
          {
            status = Proven;
            counterexample = None;
            outputs = [];
            classes_checked = checked;
            detail =
              Printf.sprintf "%d witness probes over %d classes, identical outputs"
                (List.length witness_probes) checked;
          })

let json_of_outcome o =
  let b = Buffer.create 256 in
  Printf.bprintf b "{\"status\": %s, " (Json.quote (status_string o.status));
  Printf.bprintf b "\"classes_checked\": %d, " o.classes_checked;
  (match o.counterexample with
  | Some p -> Printf.bprintf b "\"counterexample\": %s, " (Json.quote (Packet.Pkt.to_string p))
  | None -> Buffer.add_string b "\"counterexample\": null, ");
  Printf.bprintf b "\"outputs\": [%s], "
    (String.concat ", "
       (List.map (fun p -> Json.quote (Packet.Pkt.to_string p)) o.outputs));
  Printf.bprintf b "\"detail\": %s}" (Json.quote o.detail);
  Buffer.contents b

let pp_outcome ppf o =
  Fmt.pf ppf "%s (%d classes): %s"
    (String.uppercase_ascii (status_string o.status))
    o.classes_checked o.detail;
  match o.counterexample with
  | Some p ->
      Fmt.pf ppf "@.counterexample: %a" Packet.Pkt.pp p;
      if o.outputs <> [] then
        Fmt.pf ppf "@.emitted       : %a"
          Fmt.(list ~sep:(any ", ") Packet.Pkt.pp)
          o.outputs
  | None -> ()
