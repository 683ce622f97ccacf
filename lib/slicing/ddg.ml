(** Data-dependence graph.

    Edge [m -> n] (recorded as [n] depends on [m]) when statement [m]
    defines a variable that statement [n] uses and the definition
    reaches [n]. Built directly from reaching definitions. *)

module Nmap = Cfg.Nmap
module Nset = Cfg.Nset
module Sset = Nfl.Ast.Sset

type t = { deps : Nset.t Nmap.t  (** node -> nodes it data-depends on *) }

let deps_of t n = Option.value ~default:Nset.empty (Nmap.find_opt n t.deps)

(** [compute ?entry_defs g]: [entry_defs] marks variables defined before
    the region (their uses depend on no in-region statement). *)
let compute ?(entry_defs = Sset.empty) g =
  let reaching = Dataflow.Reaching.solve ~entry_defs g in
  let deps = ref Nmap.empty in
  List.iter
    (fun n ->
      match Cfg.stmt_of g n with
      | None -> ()
      | Some s ->
          let srcs =
            Sset.fold
              (fun v acc ->
                List.fold_left
                  (fun acc sid -> if sid = 0 then acc else Nset.add (Cfg.Stmt sid) acc)
                  acc
                  (Dataflow.Reaching.defs_reaching reaching n v))
              (Dataflow.Defs_uses.uses s) Nset.empty
          in
          if not (Nset.is_empty srcs) then deps := Nmap.add n srcs !deps)
    (Cfg.nodes g);
  { deps = !deps }

let pp ppf t =
  Nmap.iter
    (fun n srcs ->
      Fmt.pf ppf "%a <-data- {%a}@." Cfg.pp_node n
        Fmt.(list ~sep:(any ", ") Cfg.pp_node)
        (Nset.elements srcs))
    t.deps
