(** Concrete interpreter for canonical (function-free) NFL programs.

    This is the ground truth both evaluation experiments compare
    against: the accuracy experiment runs random packets through the
    original program here and through the extracted model, and dynamic
    slicing consumes the execution traces recorded here.

    Packet I/O: [recv()] pops the next input packet and ends the run
    cleanly when the input is exhausted; [send(p)] appends to the
    output. Every executed statement id is appended to the trace. *)

module Smap = Map.Make (String)

exception Runtime_error of string * Nfl.Ast.pos

type outcome = Finished | Input_exhausted | Step_limit

type result = {
  outputs : Packet.Pkt.t list;  (** packets sent, in order *)
  per_input : Packet.Pkt.t list list;  (** outputs grouped by the input packet that caused them *)
  state : Value.t Smap.t;  (** final variable store (globals and locals) *)
  trace : int list;  (** executed statement ids, in order *)
  steps : int;
  outcome : outcome;
}

type state = {
  mutable env : Value.t Smap.t;
  mutable inputs : Packet.Pkt.t list;
  mutable outputs_rev : Packet.Pkt.t list;
  mutable current_burst_rev : Packet.Pkt.t list;  (** outputs since last recv *)
  mutable bursts_rev : Packet.Pkt.t list list;
  mutable trace_rev : int list;
  mutable steps : int;
  max_steps : int;
}

exception Stop of outcome

let fresh ~inputs ~max_steps =
  {
    env = Smap.empty;
    inputs;
    outputs_rev = [];
    current_burst_rev = [];
    bursts_rev = [];
    trace_rev = [];
    steps = 0;
    max_steps;
  }

let err pos fmt = Printf.ksprintf (fun m -> raise (Runtime_error (m, pos))) fmt

let tick st (s : Nfl.Ast.stmt) =
  st.trace_rev <- s.Nfl.Ast.sid :: st.trace_rev;
  st.steps <- st.steps + 1;
  if st.steps > st.max_steps then raise (Stop Step_limit)

let lookup st pos x =
  match Smap.find_opt x st.env with
  | Some v -> v
  | None -> err pos "unbound variable %s" x

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

let rec eval st pos (e : Nfl.Ast.expr) : Value.t =
  match e with
  | Nfl.Ast.Int n -> Value.Int n
  | Nfl.Ast.Bool b -> Value.Bool b
  | Nfl.Ast.Str s -> Value.Str s
  | Nfl.Ast.Var x -> lookup st pos x
  | Nfl.Ast.Tuple es -> Value.Tuple (List.map (eval st pos) es)
  | Nfl.Ast.List_lit es -> Value.List (List.map (eval st pos) es)
  | Nfl.Ast.Dict_lit -> Value.dict_empty
  | Nfl.Ast.Binop (Nfl.Ast.And, a, b) ->
      (* short-circuit *)
      if Value.as_bool (eval st pos a) then Value.Bool (Value.as_bool (eval st pos b))
      else Value.Bool false
  | Nfl.Ast.Binop (Nfl.Ast.Or, a, b) ->
      if Value.as_bool (eval st pos a) then Value.Bool true
      else Value.Bool (Value.as_bool (eval st pos b))
  | Nfl.Ast.Binop (op, a, b) -> (
      let va = eval st pos a in
      let vb = eval st pos b in
      try Value.binop op va vb with Value.Type_error m -> err pos "%s" m)
  | Nfl.Ast.Unop (op, a) -> (
      try Value.unop op (eval st pos a) with Value.Type_error m -> err pos "%s" m)
  | Nfl.Ast.Index (c, k) -> (
      let vc = eval st pos c in
      let vk = eval st pos k in
      try Value.index vc vk with Value.Type_error m -> err pos "%s" m)
  | Nfl.Ast.Field (pe, f) -> (
      match eval st pos pe with
      | Value.Pkt p -> (
          match Value.pkt_field p f with
          | Some v -> v
          | None -> err pos "unknown packet field %s" f)
      | v -> err pos "field access on %s" (Value.type_name v))
  | Nfl.Ast.Mem (k, d) -> (
      let vk = eval st pos k in
      let vd = eval st pos d in
      try Value.mem vk vd with Value.Type_error m -> err pos "%s" m)
  | Nfl.Ast.Call (f, args) -> eval_call st pos f args

and eval_call st pos f args =
  if f = Nfl.Builtins.pkt_input then begin
    if args <> [] then err pos "recv() takes no arguments";
    match st.inputs with
    | [] -> raise (Stop Input_exhausted)
    | p :: rest ->
        st.inputs <- rest;
        (* Close the burst attributed to the previous packet. *)
        st.bursts_rev <- List.rev st.current_burst_rev :: st.bursts_rev;
        st.current_burst_rev <- [];
        Value.Pkt p
  end
  else if Nfl.Builtins.is_pure f then
    let vs = List.map (eval st pos) args in
    try Value.apply_pure f vs with Value.Type_error m -> err pos "%s" m
  else err pos "call to %s not allowed in expression position" f

(* ------------------------------------------------------------------ *)
(* Statements                                                         *)
(* ------------------------------------------------------------------ *)

let rec exec_block st (block : Nfl.Ast.block) = List.iter (exec_stmt st) block

and exec_stmt st (s : Nfl.Ast.stmt) =
  let pos = s.Nfl.Ast.pos in
  tick st s;
  match s.Nfl.Ast.kind with
  | Nfl.Ast.Pass -> ()
  | Nfl.Ast.Assign (lv, e) -> (
      let v = eval st pos e in
      match lv with
      | Nfl.Ast.L_var x -> st.env <- Smap.add x v st.env
      | Nfl.Ast.L_index (d, ke) -> (
          let k = eval st pos ke in
          match lookup st pos d with
          | Value.Dict kvs -> st.env <- Smap.add d (Value.Dict (Value.dict_set kvs k v)) st.env
          | Value.List vs ->
              let i = Value.as_int k in
              if i < 0 || i >= List.length vs then err pos "list index out of range"
              else
                st.env <-
                  Smap.add d (Value.List (List.mapi (fun j x -> if j = i then v else x) vs)) st.env
          | w -> err pos "index assignment on %s" (Value.type_name w))
      | Nfl.Ast.L_field (pv, f) -> (
          match lookup st pos pv with
          | Value.Pkt p ->
              let p' =
                if Packet.Headers.is_int_field f then Packet.Pkt.set_int p f (Value.as_int v)
                else if Packet.Headers.is_str_field f then
                  Packet.Pkt.set_str p f (match v with Value.Str s -> s | _ -> err pos "payload must be a string")
                else err pos "unknown packet field %s" f
              in
              st.env <- Smap.add pv (Value.Pkt p') st.env
          | w -> err pos "field assignment on %s" (Value.type_name w)))
  | Nfl.Ast.If (c, b1, b2) ->
      if Value.as_bool (eval st pos c) then exec_block st b1 else exec_block st b2
  | Nfl.Ast.While (c, b) ->
      (* The header re-ticks on every re-test so traces reflect loop
         frequency; the step limit bounds runaway loops. *)
      let rec loop () =
        if Value.as_bool (eval st pos c) then begin
          exec_block st b;
          tick st s;
          loop ()
        end
      in
      loop ()
  | Nfl.Ast.For_in (x, e, b) -> (
      match eval st pos e with
      | Value.List vs | Value.Tuple vs ->
          List.iter
            (fun v ->
              st.env <- Smap.add x v st.env;
              exec_block st b)
            vs
      | v -> err pos "for-in over %s" (Value.type_name v))
  | Nfl.Ast.Return _ -> raise (Stop Finished)
  | Nfl.Ast.Delete (d, ke) -> (
      let k = eval st pos ke in
      match lookup st pos d with
      | Value.Dict kvs -> st.env <- Smap.add d (Value.Dict (Value.dict_remove kvs k)) st.env
      | w -> err pos "del on %s" (Value.type_name w))
  | Nfl.Ast.Expr (Nfl.Ast.Call (f, args)) ->
      if f = Nfl.Builtins.pkt_output then begin
        match List.map (eval st pos) args with
        | [ Value.Pkt p ] ->
            st.outputs_rev <- p :: st.outputs_rev;
            st.current_burst_rev <- p :: st.current_burst_rev
        | _ -> err pos "send() takes one packet"
      end
      else if f = Nfl.Builtins.pkt_drop then ()
      else if Nfl.Builtins.is_log_sink f then
        (* Evaluate arguments for effect-free faithfulness, discard. *)
        List.iter (fun a -> ignore (eval st pos a)) args
      else if Nfl.Builtins.is_pure f then List.iter (fun a -> ignore (eval st pos a)) args
      else err pos "cannot execute call to %s" f
  | Nfl.Ast.Expr e -> ignore (eval st pos e)

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)
(* ------------------------------------------------------------------ *)

let finish st outcome =
  (* Flush the last burst. *)
  st.bursts_rev <- List.rev st.current_burst_rev :: st.bursts_rev;
  let bursts = List.rev st.bursts_rev in
  (* The first burst predates any recv(); drop it (it is empty for
     canonical programs, which receive before sending). *)
  let per_input = match bursts with [] -> [] | _ :: rest -> rest in
  {
    outputs = List.rev st.outputs_rev;
    per_input;
    state = st.env;
    trace = List.rev st.trace_rev;
    steps = st.steps;
    outcome;
  }

(** Run a canonical program over an input packet list. The program must
    be function-free (apply {!Nfl.Transform.canonicalize} first). *)
let run ?(max_steps = 1_000_000) (p : Nfl.Ast.program) ~inputs =
  if p.Nfl.Ast.funcs <> [] then
    invalid_arg "Interp.run: program has functions; canonicalize first";
  let st = fresh ~inputs ~max_steps in
  match
    exec_block st p.Nfl.Ast.globals;
    exec_block st p.Nfl.Ast.main
  with
  | () -> finish st Finished
  | exception Stop o -> finish st o

(** Run only the globals, returning the initial persistent store. *)
let initial_state (p : Nfl.Ast.program) =
  let st = fresh ~inputs:[] ~max_steps:100_000 in
  exec_block st p.Nfl.Ast.globals;
  st.env

(** Execute one packet-loop iteration from an explicit store: used for
    lock-step differential testing against the model interpreter.
    Returns the sent packets and the updated store. *)
let step_loop_body ?(max_steps = 100_000) ~(body : Nfl.Ast.block) ~store ~pkt_var ~pkt () =
  let st = fresh ~inputs:[] ~max_steps in
  st.env <- Smap.add pkt_var (Value.Pkt pkt) store;
  let body_without_recv =
    List.filter (fun s -> not (Nfl.Builtins.is_pkt_input_stmt s)) body
  in
  match exec_block st body_without_recv with
  | () -> (List.rev st.outputs_rev, st.env, List.rev st.trace_rev)
  | exception Stop _ -> (List.rev st.outputs_rev, st.env, List.rev st.trace_rev)
