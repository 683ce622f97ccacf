open Nfactor
open Symexec
module Sset = Sexpr.Sset
module Lset = Nfl.Ast.Sset

type severity = Info | Warning | Error

type kind =
  | Dead
  | Shadowed of int
  | Config_dead
  | Overlap of int
  | Unreachable_state of int
  | Unwritable_state of string
  | Dead_write of string
  | Chain_dead_write of string * string

type finding = {
  f_entry : int option;
  f_kind : kind;
  f_severity : severity;
  f_proven : bool;
  f_witness : Packet.Pkt.t option;
  f_message : string;
}

type report = { r_nf : string; r_findings : finding list }

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let kind_label = function
  | Dead -> "dead"
  | Shadowed _ -> "shadowed"
  | Config_dead -> "config-dead"
  | Overlap _ -> "overlap"
  | Unreachable_state _ -> "unreachable-state"
  | Unwritable_state _ -> "unwritable-state"
  | Dead_write _ -> "dead-write"
  | Chain_dead_write _ -> "chain-dead-write"

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                     *)
(* ------------------------------------------------------------------ *)

let all_lits (e : Model.entry) =
  e.Model.config @ e.Model.flow_match @ e.Model.state_match @ e.Model.residual_match

let classified_lits (e : Model.entry) =
  e.Model.config @ e.Model.flow_match @ e.Model.state_match

let const_int (e : Sexpr.t) =
  match Sexpr.view e with Sexpr.Const (Value.Int n) -> Some n | _ -> None

let lits_syms lits =
  List.fold_left
    (fun acc (l : Solver.literal) -> Sset.union acc (Sexpr.syms l.Solver.atom))
    Sset.empty lits

(* Every symbol an entry's behavior depends on: match literals, action
   field expressions, and the expressions inside state updates (a write
   whose value mentions a variable reads that variable). *)
let entry_read_syms (e : Model.entry) =
  let s = lits_syms (all_lits e) in
  let s =
    match e.Model.pkt_action with
    | Model.Drop -> s
    | Model.Forward snaps ->
        List.fold_left
          (fun acc snap ->
            List.fold_left (fun acc (_, ex) -> Sset.union acc (Sexpr.syms ex)) acc snap)
          s snaps
  in
  List.fold_left
    (fun acc (_, upd) ->
      match upd with
      | Model.Set_scalar ex -> Sset.union acc (Sexpr.syms ex)
      | Model.Dict_ops ops ->
          List.fold_left
            (fun acc (k, vo) ->
              let acc = Sset.union acc (Sexpr.syms k) in
              match vo with Some v -> Sset.union acc (Sexpr.syms v) | None -> acc)
            acc ops)
    s e.Model.state_update

(* Identity rewrites elide under the model's own packet variable, so
   two entries render equal exactly when they behave equally. *)
let action_repr ~pkt_var (e : Model.entry) =
  Fmt.str "%a|%a"
    (Model.pp_action ~pkt_var)
    e.Model.pkt_action
    Fmt.(list ~sep:(any ";") Model.pp_state_update)
    e.Model.state_update

(* The value a positive equality guard pins a state slot to, when that
   value is a constant: per-flow table reads via {!Fsm}, plus plain
   scalar oisVar comparisons. *)
let state_eq_guard (m : Model.t) (l : Solver.literal) =
  let effective_eq op =
    match (op, l.Solver.positive) with
    | Nfl.Ast.Eq, true | Nfl.Ast.Ne, false -> true
    | _ -> false
  in
  match Fsm.state_key_of_literal l with
  | Some (sk, `Value (op, rhs)) when effective_eq op -> (
      match const_int rhs with
      | Some v -> Some (sk.Fsm.sk_base, v)
      | None -> None)
  | Some _ -> None
  | None -> (
      match Sexpr.view l.Solver.atom with
      | Sexpr.Bin (op, a, b) when Fsm.is_cmp op -> (
          let scalar s c op =
            match Sexpr.view s with
            | Sexpr.Sym name when List.mem name m.Model.ois_vars && effective_eq op ->
                Option.map (fun v -> (name, v)) (const_int c)
            | _ -> None
          in
          match scalar a b op with
          | Some r -> Some r
          | None -> scalar b a (Fsm.flip_cmp op))
      | _ -> None)

(* All constant values any entry ever stores into [base]; [None] when
   some write is non-constant (then anything could be stored). *)
let const_writes_to base (entries : Model.entry list) =
  let ok = ref true and acc = ref [] in
  List.iter
    (fun (e : Model.entry) ->
      List.iter
        (fun (v, upd) ->
          if String.equal v base then
            match upd with
            | Model.Set_scalar ex -> (
                match const_int ex with
                | Some c -> acc := c :: !acc
                | None -> ok := false)
            | Model.Dict_ops ops ->
                List.iter
                  (fun (_k, vo) ->
                    match vo with
                    | Some ve -> (
                        match const_int ve with
                        | Some c -> acc := c :: !acc
                        | None -> ok := false)
                    | None -> ())
                  ops)
        e.Model.state_update)
    entries;
  if !ok then Some !acc else None

(* Could [base] already hold [v] in the initial store? Unknown shapes
   answer [true] (no finding). *)
let initial_may_hold store base v =
  match Model_interp.Smap.find_opt base store with
  | None -> false
  | Some (Value.Int n) -> n = v
  | Some (Value.Dict kvs) -> List.exists (fun (_, x) -> Value.equal x (Value.Int v)) kvs
  | Some _ -> true

(* ------------------------------------------------------------------ *)
(* Table lints                                                        *)
(* ------------------------------------------------------------------ *)

let model_lint ?(ordered = false) ?store (m : Model.t) =
  let entries = Array.of_list m.Model.entries in
  let n = Array.length entries in
  let pkt_var = m.Model.pkt_var in
  let resolve lits =
    match store with
    | Some st -> List.map (Verify.Testgen.resolve_config st) lits
    | None -> lits
  in
  let all = Array.map all_lits entries in
  let resolved = Array.map resolve all in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  (* --- statically-false matches --------------------------------- *)
  let dead = Array.make n false in
  Array.iteri
    (fun j lits ->
      if Imply.proven_unsat lits then begin
        dead.(j) <- true;
        add
          {
            f_entry = Some j;
            f_kind = Dead;
            f_severity = Error;
            f_proven = true;
            f_witness = None;
            f_message = "match condition is unsatisfiable: the entry can never fire";
          }
      end)
    all;
  (* --- config conditions false under the extraction store ------- *)
  (match store with
  | None -> ()
  | Some st ->
      Array.iteri
        (fun j (e : Model.entry) ->
          if
            (not dead.(j))
            && e.Model.config <> []
            && Imply.proven_unsat (List.map (Verify.Testgen.resolve_config st) e.Model.config)
          then
            add
              {
                f_entry = Some j;
                f_kind = Config_dead;
                f_severity = Info;
                f_proven = true;
                f_witness = None;
                f_message =
                  "config condition is false under the extraction-time \
                   configuration (the entry belongs to another deployment)";
              })
        entries);
  (* --- shadowing ------------------------------------------------ *)
  let covered_by lits_j l = Imply.proven_unsat (lits_j @ [ Imply.negate l ]) in
  let shadowed = Array.make n false in
  for j = 1 to n - 1 do
    if (not dead.(j)) && not entries.(j).Model.truncated then begin
      let lits_j = all.(j) in
      let verdict = ref None in
      let i = ref 0 in
      while !verdict = None && !i < j do
        let k = !i in
        if (not dead.(k)) && not entries.(k).Model.truncated then begin
          let e_i = entries.(k) in
          if List.for_all (covered_by lits_j) (classified_lits e_i) then
            if List.for_all (covered_by lits_j) e_i.Model.residual_match then
              verdict := Some (k, true)
            else verdict := Some (k, false)
        end;
        incr i
      done;
      match !verdict with
      | None -> ()
      | Some (i, full) ->
          let witness =
            match store with
            | None -> None
            | Some st -> (
                let cands =
                  (match Solver.concretize resolved.(j) with
                  | Some asn -> [ Verify.Testgen.packet_of_assignment ~pkt_var asn ]
                  | None -> [])
                  @ Verify.Testgen.base_palette
                in
                match
                  List.find_opt
                    (fun p -> Model_interp.entry_matches ~pkt_var st p entries.(j))
                    cands
                with
                | None -> None
                | Some p -> (
                    let s = Model_interp.step m st p in
                    match s.Model_interp.matched with
                    | Some k when k < j -> Some p
                    | _ -> None))
          in
          if full then begin
            shadowed.(j) <- true;
            add
              {
                f_entry = Some j;
                f_kind = Shadowed i;
                f_severity = Warning;
                f_proven = true;
                f_witness = witness;
                f_message =
                  Fmt.str
                    "every packet matching this entry also matches earlier entry \
                     %d, which fires first"
                    i;
              }
          end
          else
            add
              {
                f_entry = Some j;
                f_kind = Shadowed i;
                f_severity = Info;
                f_proven = false;
                f_witness = witness;
                f_message =
                  Fmt.str
                    "classified match is covered by earlier entry %d, but that \
                     entry carries residual_match atoms opaque to implication; \
                     downgraded to info"
                    i;
              }
    end
  done;
  (* --- overlaps with disagreeing actions ------------------------ *)
  let repr = Array.map (action_repr ~pkt_var) entries in
  for j = 1 to n - 1 do
    if (not dead.(j)) && (not shadowed.(j)) && not entries.(j).Model.truncated then
      for i = 0 to j - 1 do
        if
          (not dead.(i))
          && (not entries.(i).Model.truncated)
          && not (String.equal repr.(i) repr.(j))
        then
          if Imply.subsumes all.(i) all.(j) then
            add
              {
                f_entry = Some j;
                f_kind = Overlap i;
                f_severity = Info;
                f_proven = true;
                f_witness = None;
                f_message =
                  Fmt.str
                    "matches a superset of earlier entry %d with a different \
                     action (priority overlap: entry %d carves the exception)"
                    i i;
              }
          else
            match store with
            | None -> ()
            | Some st -> (
                let cands =
                  (match Solver.concretize (resolved.(i) @ resolved.(j)) with
                  | Some asn -> [ Verify.Testgen.packet_of_assignment ~pkt_var asn ]
                  | None -> [])
                  @ Verify.Testgen.base_palette
                in
                match
                  List.find_opt
                    (fun p ->
                      Model_interp.entry_matches ~pkt_var st p entries.(i)
                      && Model_interp.entry_matches ~pkt_var st p entries.(j))
                    cands
                with
                | None -> ()
                | Some p ->
                    (* A synthesized table is disjoint by construction, so
                       a both-match witness is an anomaly; a table declared
                       [ordered] (e.g. the minimizer's output, whose
                       widening rule relies on first-match priority) makes
                       the same evidence advisory. *)
                    add
                      {
                        f_entry = Some j;
                        f_kind = Overlap i;
                        f_severity = (if ordered then Info else Warning);
                        f_proven = false;
                        f_witness = Some p;
                        f_message =
                          (if ordered then
                             Fmt.str
                               "can match the same packet as earlier entry %d \
                                with a different action; resolved by \
                                first-match priority (witness attached)"
                               i
                           else
                             Fmt.str
                               "can match the same packet as earlier entry %d \
                                while disagreeing on the action (witness \
                                attached)"
                               i);
                      })
      done
  done;
  (* --- unwritable state guards ---------------------------------- *)
  (match store with
  | None -> ()
  | Some st ->
      Array.iteri
        (fun j (e : Model.entry) ->
          if not dead.(j) then
            List.iter
              (fun l ->
                match state_eq_guard m l with
                | None -> ()
                | Some (base, v) -> (
                    match const_writes_to base m.Model.entries with
                    | None -> ()
                    | Some stored ->
                        if (not (List.mem v stored)) && not (initial_may_hold st base v)
                        then
                          add
                            {
                              f_entry = Some j;
                              f_kind = Unwritable_state base;
                              f_severity = Warning;
                              f_proven = true;
                              f_witness = None;
                              f_message =
                                Fmt.str
                                  "state guard requires %s = %d, but no \
                                   transition ever stores %d and the initial \
                                   store does not hold it"
                                  base v v;
                            }))
              e.Model.state_match)
        entries);
  (* --- dead stores ---------------------------------------------- *)
  let reads =
    List.fold_left
      (fun acc e -> Sset.union acc (entry_read_syms e))
      Sset.empty m.Model.entries
  in
  let writes =
    List.fold_left
      (fun acc (e : Model.entry) ->
        List.fold_left (fun acc (v, _) -> Sset.add v acc) acc e.Model.state_update)
      Sset.empty m.Model.entries
  in
  Sset.iter
    (fun b ->
      if not (Sset.mem b reads) then
        add
          {
            f_entry = None;
            f_kind = Dead_write b;
            f_severity = Warning;
            f_proven = true;
            f_witness = None;
            f_message =
              Fmt.str "state %s is written but never read by any match or action" b;
          })
    writes;
  { r_nf = m.Model.nf_name; r_findings = List.rev !findings }

(* ------------------------------------------------------------------ *)
(* Extraction-level lints                                             *)
(* ------------------------------------------------------------------ *)

let reachable_nodes cfg =
  let seen = Hashtbl.create 16 in
  let rec go n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      List.iter go (Cfg.succ_nodes cfg n)
    end
  in
  go Cfg.Entry;
  Hashtbl.fold (fun n () acc -> n :: acc) seen []

let run (ex : Extract.result) =
  let m = ex.Extract.model in
  let store = Model_interp.initial_store ex in
  let base = model_lint ~store m in
  let fsm = Fsm.of_extraction ex in
  let reach = Fsm.reachable_states fsm in
  let fsm_findings =
    List.filter_map
      (fun (s : Fsm.state) ->
        if List.mem s.Fsm.id reach then None
        else
          Some
            {
              f_entry = None;
              f_kind = Unreachable_state s.Fsm.id;
              f_severity = Info;
              f_proven = true;
              f_witness = None;
              f_message =
                Fmt.str "FSM state %d (%s) is unreachable from the initial state"
                  s.Fsm.id s.Fsm.label;
            })
      fsm.Fsm.states
  in
  (* Dead writes the program body itself never consumes are certain
     (Warning); writes some non-sliced statement still reads degrade
     to model-only observations (Info). *)
  let cfg = Cfg.of_block ex.Extract.classes.Statealyzer.Varclass.loop_body in
  let sol = Dataflow.Liveness.solve ~live_at_exit:Lset.empty cfg in
  let nodes = reachable_nodes cfg in
  let refined =
    List.map
      (fun f ->
        match f.f_kind with
        | Dead_write b ->
            let read_somewhere =
              List.exists (fun nd -> Lset.mem b (sol.Dataflow.Liveness.live_in nd)) nodes
            in
            if read_somewhere then
              {
                f with
                f_severity = Info;
                f_message =
                  f.f_message ^ " (the program body still reads it elsewhere)";
              }
            else
              {
                f with
                f_message =
                  f.f_message
                  ^ "; loop-body liveness confirms no statement consumes it";
              }
        | _ -> f)
      base.r_findings
  in
  { base with r_findings = refined @ fsm_findings }

(* ------------------------------------------------------------------ *)
(* Chain-level dead stores                                            *)
(* ------------------------------------------------------------------ *)

let chain_dead_writes (hops : (string * Model.t) list) =
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  List.concat_map
    (fun ((an, a), (bn, (b : Model.t))) ->
      let pv = b.Model.pkt_var in
      let reads =
        List.fold_left
          (fun acc e -> Sset.union acc (entry_read_syms e))
          Sset.empty b.Model.entries
      in
      let mentions f = Sset.mem (pv ^ "." ^ f) reads in
      let masks f =
        List.for_all
          (fun (e : Model.entry) ->
            match e.Model.pkt_action with
            | Model.Drop -> true
            | Model.Forward snaps -> List.for_all (List.mem_assoc f) snaps)
          b.Model.entries
      in
      Model.modified_fields a
      |> List.filter (fun f -> (not (mentions f)) && masks f)
      |> List.map (fun f ->
             {
               f_entry = None;
               f_kind = Chain_dead_write (bn, f);
               f_severity = Warning;
               f_proven = true;
               f_witness = None;
               f_message =
                 Fmt.str
                   "%s rewrites %s, but next hop %s never reads it and \
                    re-binds it in every forwarded packet"
                   an f bn;
             }))
    (pairs hops)

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)
(* ------------------------------------------------------------------ *)

let counts r =
  List.fold_left
    (fun (e, w, i) f ->
      match f.f_severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) r.r_findings

let is_clean r =
  List.for_all (fun f -> f.f_severity = Info) r.r_findings

let pp_finding ppf f =
  let entry = match f.f_entry with Some j -> Fmt.str "entry %d: " j | None -> "" in
  Fmt.pf ppf "[%s] %s%s%s%s"
    (severity_to_string f.f_severity)
    entry f.f_message
    (if f.f_proven then " (proven)" else "")
    (match f.f_witness with
    | Some p -> Fmt.str " [witness %a]" Packet.Pkt.pp p
    | None -> "")

let pp_report ppf r =
  let e, w, i = counts r in
  Fmt.pf ppf "%s: %d error%s, %d warning%s, %d info@." r.r_nf e
    (if e = 1 then "" else "s")
    w
    (if w = 1 then "" else "s")
    i;
  List.iter (fun f -> Fmt.pf ppf "  %a@." pp_finding f) r.r_findings

(* --- JSON ------------------------------------------------------- *)

let kind_detail = function
  | Dead | Config_dead -> []
  | Shadowed i -> [ ("by", string_of_int i) ]
  | Overlap i -> [ ("with", string_of_int i) ]
  | Unreachable_state s -> [ ("state", string_of_int s) ]
  | Unwritable_state v | Dead_write v -> [ ("var", Json.quote v) ]
  | Chain_dead_write (hop, f) ->
      [ ("hop", Json.quote hop); ("field", Json.quote f) ]

let witness_json p =
  let fields =
    List.map
      (fun f -> Printf.sprintf "\"%s\": %d" f (Packet.Pkt.get_int p f))
      Packet.Headers.int_fields
  in
  "{" ^ String.concat ", " fields ^ "}"

let finding_to_json f =
  let parts =
    [ ("entry", match f.f_entry with Some j -> string_of_int j | None -> "null");
      ("kind", Printf.sprintf "\"%s\"" (kind_label f.f_kind)) ]
    @ kind_detail f.f_kind
    @ [ ("severity", Printf.sprintf "\"%s\"" (severity_to_string f.f_severity));
        ("proven", string_of_bool f.f_proven);
        ("witness", match f.f_witness with Some p -> witness_json p | None -> "null");
        ("message", Json.quote f.f_message) ]
  in
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) parts) ^ "}"

let report_to_json r =
  let e, w, i = counts r in
  Printf.sprintf
    "{\"nf\": %s, \"errors\": %d, \"warnings\": %d, \"infos\": %d, \
     \"clean\": %b, \"findings\": [%s]}"
    (Json.quote r.r_nf) e w i (is_clean r)
    (String.concat ", " (List.map finding_to_json r.r_findings))

(* --- cache-stable serialization --------------------------------- *)

let report_version = 1

open Model_io

let sexp_of_pkt p =
  List
    (List.map
       (fun f -> List [ Atom f; Atom (string_of_int (Packet.Pkt.get_int p f)) ])
       Packet.Headers.int_fields
    @ [ List [ Atom "payload"; Atom (Packet.Pkt.get_str p "payload") ] ])

let pkt_of_sexp = function
  | List fields ->
      List.fold_left
        (fun p -> function
          | List [ Atom "payload"; Atom s ] -> Packet.Pkt.set_str p "payload" s
          | List [ Atom f; Atom n ] -> (
              match int_of_string_opt n with
              | Some n -> Packet.Pkt.set_int p f n
              | None -> raise (Parse_error ("witness field " ^ f)))
          | _ -> raise (Parse_error "witness field"))
        Model_interp.null_pkt fields
  | _ -> raise (Parse_error "witness")

let sexp_of_kind = function
  | Dead -> List [ Atom "dead" ]
  | Shadowed i -> List [ Atom "shadowed"; Atom (string_of_int i) ]
  | Config_dead -> List [ Atom "config-dead" ]
  | Overlap i -> List [ Atom "overlap"; Atom (string_of_int i) ]
  | Unreachable_state s -> List [ Atom "unreachable-state"; Atom (string_of_int s) ]
  | Unwritable_state v -> List [ Atom "unwritable-state"; Atom v ]
  | Dead_write v -> List [ Atom "dead-write"; Atom v ]
  | Chain_dead_write (h, f) -> List [ Atom "chain-dead-write"; Atom h; Atom f ]

let kind_of_sexp = function
  | List [ Atom "dead" ] -> Dead
  | List [ Atom "shadowed"; Atom i ] -> Shadowed (int_of_string i)
  | List [ Atom "config-dead" ] -> Config_dead
  | List [ Atom "overlap"; Atom i ] -> Overlap (int_of_string i)
  | List [ Atom "unreachable-state"; Atom s ] -> Unreachable_state (int_of_string s)
  | List [ Atom "unwritable-state"; Atom v ] -> Unwritable_state v
  | List [ Atom "dead-write"; Atom v ] -> Dead_write v
  | List [ Atom "chain-dead-write"; Atom h; Atom f ] -> Chain_dead_write (h, f)
  | _ -> raise (Parse_error "finding kind")

let sexp_of_finding f =
  List
    [
      List [ Atom "entry"; (match f.f_entry with Some j -> Atom (string_of_int j) | None -> List []) ];
      List [ Atom "kind"; sexp_of_kind f.f_kind ];
      List [ Atom "severity"; Atom (severity_to_string f.f_severity) ];
      List [ Atom "proven"; Atom (string_of_bool f.f_proven) ];
      List [ Atom "witness"; (match f.f_witness with Some p -> sexp_of_pkt p | None -> List []) ];
      List [ Atom "message"; Atom f.f_message ];
    ]

let finding_of_sexp = function
  | List
      [
        List [ Atom "entry"; entry ];
        List [ Atom "kind"; kind ];
        List [ Atom "severity"; Atom sev ];
        List [ Atom "proven"; Atom proven ];
        List [ Atom "witness"; witness ];
        List [ Atom "message"; Atom msg ];
      ] ->
      {
        f_entry =
          (match entry with
          | Atom n -> Some (int_of_string n)
          | List [] -> None
          | _ -> raise (Parse_error "finding entry"));
        f_kind = kind_of_sexp kind;
        f_severity =
          (match sev with
          | "info" -> Info
          | "warning" -> Warning
          | "error" -> Error
          | _ -> raise (Parse_error "finding severity"));
        f_proven = bool_of_string proven;
        f_witness = (match witness with List [] -> None | s -> Some (pkt_of_sexp s));
        f_message = msg;
      }
  | _ -> raise (Parse_error "finding")

let report_to_string r =
  sexp_to_string
    (List
       [
         Atom "lint-report";
         Atom (string_of_int report_version);
         List [ Atom "nf"; Atom r.r_nf ];
         List (Atom "findings" :: List.map sexp_of_finding r.r_findings);
       ])

let report_of_string s =
  match parse_sexp s with
  | List
      [
        Atom "lint-report";
        Atom v;
        List [ Atom "nf"; Atom nf ];
        List (Atom "findings" :: fs);
      ]
    when int_of_string_opt v = Some report_version ->
      { r_nf = nf; r_findings = List.map finding_of_sexp fs }
  | _ -> raise (Parse_error "lint-report")

(* ------------------------------------------------------------------ *)
(* Witness validation                                                 *)
(* ------------------------------------------------------------------ *)

let witness_replays (m : Model.t) store f =
  let entries = Array.of_list m.Model.entries in
  let pkt_var = m.Model.pkt_var in
  match f.f_witness with
  | None -> f.f_proven
  | Some p -> (
      match (f.f_kind, f.f_entry) with
      | Shadowed _, Some j ->
          j < Array.length entries
          && Model_interp.entry_matches ~pkt_var store p entries.(j)
          &&
          let s = Model_interp.step m store p in
          (match s.Model_interp.matched with Some k -> k < j | None -> false)
      | Overlap i, Some j ->
          i < Array.length entries
          && j < Array.length entries
          && Model_interp.entry_matches ~pkt_var store p entries.(i)
          && Model_interp.entry_matches ~pkt_var store p entries.(j)
      | _ -> true)
