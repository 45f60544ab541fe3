open Dcd_datalog

type src =
  | Const of int
  | Reg of int

type join_method =
  | Hash
  | Index
  | Nested_loop

type rel_ref =
  | R_base of string
  | R_rec of {
      pred : string;
      route : int array;
    }

type code =
  | C_const of int
  | C_reg of int
  | C_bin of Ast.binop * code * code
  | C_neg of code

type lookup = {
  rel : rel_ref;
  method_ : join_method;
  key_cols : int array;
  key_src : src array;
  binds : (int * int) array;
  checks : (int * src) array;
  negated : bool;
  pos : int;
}

type step =
  | Lookup of lookup
  | Filter of {
      op : Ast.cmp_op;
      lhs : code;
      rhs : code;
    }
  | Compute of {
      reg : int;
      code : code;
    }

type scan_spec =
  | S_base of {
      pred : string;
      binds : (int * int) array;
      checks : (int * src) array;
    }
  | S_delta of {
      pred : string;
      route : int array;
      binds : (int * int) array;
      checks : (int * src) array;
    }
  | S_unit

type head = {
  hpred : string;
  args : src array;
  agg : (int * Ast.agg_kind * src array) option;
}

(* Generic (worst-case-optimal) join: the non-scan atoms become trie
   iterators over sorted indexes and the unbound variables are resolved
   one level at a time by multiway intersection (leapfrog). *)
type gj_atom = {
  ga_pred : string; (* base / lower-stratum relation *)
  ga_cols : int array;
      (* full column permutation defining the trie order: the
         scan-bound/constant columns first, then the eliminated
         variables' columns in elimination order *)
  ga_prefix : src array; (* sources filling the leading bound columns *)
}

type gj_level = {
  gv_reg : int; (* register receiving this level's variable *)
  gv_atoms : (int * int) array;
      (* (atom index, probe depth): at this level the atom's trie key is
         probed on its first [depth] columns, the candidate value living
         at slot [depth - 1] *)
  gv_steps : step array; (* residual steps runnable once this binds *)
}

type gj = {
  gj_atoms : gj_atom array;
  gj_prelude : step array; (* steps runnable from the scan bindings alone *)
  gj_levels : gj_level array;
  gj_elim : string list; (* elimination order, for explain *)
}

type compiled_rule = {
  source : Ast.rule;
  logical : string;
  nregs : int;
  scan : scan_spec;
  steps : step array; (* binary pipeline; [||] when [gj] is chosen *)
  gj : gj option;
  head : head;
}

type pred_plan = {
  pred : string;
  arity : int;
  agg : (int * Ast.agg_kind) option;
  routes : int array list;
}

type stratum_plan = {
  stratum : Analysis.stratum;
  pred_plans : pred_plan list;
  init_rules : compiled_rule list;
  delta_rules : compiled_rule list;
}

type t = {
  info : Analysis.info;
  symbols : Dcd_util.Symbol.table;
  params : (string * int) list;
  strata : stratum_plan list;
}

exception Plan_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Plan_error s)) fmt

(* --- evaluation of compiled arithmetic --- *)

let rec eval_code code regs =
  match code with
  | C_const c -> c
  | C_reg r -> Array.unsafe_get regs r
  | C_bin (op, a, b) -> (
    let x = eval_code a regs and y = eval_code b regs in
    match op with
    | Ast.Add -> x + y
    | Ast.Sub -> x - y
    | Ast.Mul -> x * y
    | Ast.Div -> x / y
    | Ast.Mod -> x mod y)
  | C_neg e -> -eval_code e regs

let eval_cmp op x y =
  match op with
  | Ast.Eq -> x = y
  | Ast.Ne -> x <> y
  | Ast.Lt -> x < y
  | Ast.Le -> x <= y
  | Ast.Gt -> x > y
  | Ast.Ge -> x >= y

(* --- compilation context --- *)

type ctx = {
  symbols : Dcd_util.Symbol.table;
  cparams : (string * int) list;
  regs : (string, int) Hashtbl.t;
  mutable next_reg : int;
}

let reg_of ctx v =
  match Hashtbl.find_opt ctx.regs v with
  | Some r -> r
  | None ->
    let r = ctx.next_reg in
    ctx.next_reg <- r + 1;
    Hashtbl.add ctx.regs v r;
    r

let is_bound ctx v = Hashtbl.mem ctx.regs v

let const_of ctx s =
  match List.assoc_opt s ctx.cparams with
  | Some v -> v
  | None -> Dcd_util.Symbol.intern ctx.symbols s

let src_of_term ctx (t : Ast.term) =
  match t with
  | Ast.Int i -> Const i
  | Ast.Sym s -> Const (const_of ctx s)
  | Ast.Var v ->
    if not (is_bound ctx v) then fail "internal: variable %s used before binding" v;
    Reg (reg_of ctx v)

let rec code_of_expr ctx (e : Ast.expr) =
  match e with
  | Ast.Term t -> (
    match src_of_term ctx t with
    | Const c -> C_const c
    | Reg r -> C_reg r)
  | Ast.Binop (op, a, b) -> C_bin (op, code_of_expr ctx a, code_of_expr ctx b)
  | Ast.Neg e -> C_neg (code_of_expr ctx e)

(* Compiles the argument list of an atom that is being matched (scan or
   lookup): returns bound positions with their sources, fresh bindings,
   and residual checks for within-atom variable repeats. *)
let compile_match ctx (args : Ast.term list) =
  let key = ref [] in
  let binds = ref [] in
  let checks = ref [] in
  (* variables first bound by THIS atom: a repeat within the atom is a
     residual check, not a key column — its register is only filled
     while matching, so it cannot feed the lookup key *)
  let fresh = Hashtbl.create 4 in
  List.iteri
    (fun col t ->
      match t with
      | Ast.Int _ | Ast.Sym _ -> key := (col, src_of_term ctx t) :: !key
      | Ast.Var v ->
        if Hashtbl.mem fresh v then checks := (col, Reg (reg_of ctx v)) :: !checks
        else if is_bound ctx v then key := (col, Reg (reg_of ctx v)) :: !key
        else begin
          let r = reg_of ctx v in
          Hashtbl.add fresh v ();
          binds := (col, r) :: !binds
        end)
    args;
  (List.rev !key, Array.of_list (List.rev !binds), Array.of_list (List.rev !checks))

(* For a scan, all "key" positions are residual checks. *)
let compile_scan_match ctx args =
  let key, binds, checks = compile_match ctx args in
  (binds, Array.append (Array.of_list key) checks)

(* An anti-join probe: every argument must already be bound. *)
let compile_neg ctx (pl : Logical.rule_pipeline) (a : Ast.atom) pos =
  let key, binds, checks = compile_match ctx a.Ast.args in
  if Array.length binds > 0 then
    fail "negated atom with unbound variables (%s)" (Ast.rule_to_string pl.rule);
  Lookup
    {
      rel = R_base a.Ast.pred;
      method_ = (if key <> [] then Index else Nested_loop);
      key_cols = Array.of_list (List.map fst key);
      key_src = Array.of_list (List.map snd key);
      binds;
      checks;
      negated = true;
      pos;
    }

let agg_value_pos (info : Analysis.info) pred =
  match List.assoc_opt pred info.aggregated with
  | Some (pos, _) -> Some pos
  | None -> None

(* --- per-rule compilation (pass 2) --- *)

type prepared = {
  p_pipeline : Logical.rule_pipeline;
  (* required scan route, when a recursive lookup pins it *)
  p_scan_route : int array option;
  (* routes required on looked-up recursive predicates *)
  p_lookup_routes : (string * int array) list;
}

(* Decides lookup keys the same way pass 2 will, but only to discover
   route requirements.  Returns (scan_route_requirement, lookup_routes). *)
let analyze_routes (info : Analysis.info) (pl : Logical.rule_pipeline) =
  let bound : (string, [ `Scan of int | `Other ]) Hashtbl.t = Hashtbl.create 16 in
  let bind_scan (a : Ast.atom) =
    List.iteri
      (fun col t ->
        match t with
        | Ast.Var v when not (Hashtbl.mem bound v) -> Hashtbl.add bound v (`Scan col)
        | _ -> ())
      a.args
  in
  (match pl.scan with
  | Logical.Scan_base a -> bind_scan a
  | Logical.Scan_delta { atom; _ } -> bind_scan atom
  | Logical.Scan_head | Logical.Scan_unit -> ());
  let scan_route = ref None in
  let lookup_routes = ref [] in
  List.iter
    (fun elem ->
      match elem with
      | Logical.L_join { atom; recursive; _ } ->
        let value_pos = agg_value_pos info atom.Ast.pred in
        if recursive then begin
          (* key = bound, non-value positions; each must trace back to a
             scan column for colocation *)
          let key_cols = ref [] and scan_cols = ref [] in
          List.iteri
            (fun col t ->
              let is_value = value_pos = Some col in
              match t with
              | Ast.Var v when Hashtbl.mem bound v && not is_value -> (
                key_cols := col :: !key_cols;
                match Hashtbl.find bound v with
                | `Scan c -> scan_cols := c :: !scan_cols
                | `Other ->
                  fail
                    "recursive lookup on %s keys on a value not taken from the scanned delta; \
                     cannot colocate partitions"
                    atom.Ast.pred)
              | Ast.Int _ | Ast.Sym _ when not is_value ->
                fail
                  "recursive lookup on %s keys on a constant; cannot colocate partitions"
                  atom.Ast.pred
              | _ -> ())
            atom.args;
          let route = Array.of_list (List.rev !key_cols) in
          let wanted_scan_route = Array.of_list (List.rev !scan_cols) in
          if Array.length route = 0 then
            fail "recursive lookup on %s has no bound key columns" atom.Ast.pred;
          (match !scan_route with
          | None -> scan_route := Some wanted_scan_route
          | Some existing when existing = wanted_scan_route -> ()
          | Some _ ->
            fail "rule needs two different scan partitionings (%s)"
              (Ast.rule_to_string pl.rule));
          lookup_routes := (atom.Ast.pred, route) :: !lookup_routes
        end;
        (* after the join, all of the atom's variables are bound *)
        List.iter
          (fun t ->
            match t with
            | Ast.Var v when not (Hashtbl.mem bound v) -> Hashtbl.add bound v `Other
            | _ -> ())
          atom.args
      | Logical.L_assign (x, _) ->
        if not (Hashtbl.mem bound x) then Hashtbl.add bound x `Other
      | Logical.L_neg _ | Logical.L_filter _ -> ())
    pl.pipeline;
  (!scan_route, !lookup_routes)

(* --- generic-join construction --- *)

let gj_joins (pl : Logical.rule_pipeline) =
  List.filter_map
    (function Logical.L_join { atom; recursive; _ } -> Some (atom, recursive) | _ -> None)
    pl.pipeline

(* The generic path is restricted to bodies whose non-scan atoms are all
   base (or lower-stratum) relations: those live in shared, read-only
   sorted indexes that any worker — victim or thief — can leapfrog over,
   whereas recursive predicates are stored route-permuted per partition
   and mutate every iteration.  Recursive occurrences other than the
   scanned delta keep the binary pipeline. *)
let gj_eligible (pl : Logical.rule_pipeline) =
  let joins = gj_joins pl in
  pl.scan <> Logical.Scan_unit
  && List.length joins >= 2
  && List.for_all (fun (_, recursive) -> not recursive) joins
  && List.for_all
       (fun ((a : Ast.atom), _) ->
         (* a within-atom variable repeat would put the same variable at
            two trie levels; keep those on the binary path *)
         let vs = List.concat_map Ast.vars_of_term a.args in
         List.length vs = List.length (List.sort_uniq compare vs))
       joins
  && List.for_all
       (fun elem ->
         match elem with
         | Logical.L_assign (x, _) ->
           (* an assigned variable feeding a trie prefix would have to
              be bound before the levels run; disallow *)
           not
             (List.exists
                (fun ((a : Ast.atom), _) ->
                  List.exists (fun t -> List.mem x (Ast.vars_of_term t)) a.args)
                (gj_joins pl))
         | _ -> true)
       pl.pipeline

(* Builds the generic-join body.  Must run right after the scan has been
   compiled: the registers live at that point are exactly the
   scan-bound variables; elimination variables are allocated here, in
   elimination order. *)
let build_generic ctx (pl : Logical.rule_pipeline) =
  let atoms = Array.of_list (List.map fst (gj_joins pl)) in
  let scan_vars = Hashtbl.fold (fun v _ acc -> v :: acc) ctx.regs [] in
  let elim =
    Logical.elimination_order ~bound:scan_vars
      (Array.to_list atoms)
  in
  if elim = [] then None
  else begin
    let elim_pos = List.mapi (fun i v -> (v, i)) elim in
    let level_regs = Array.of_list (List.map (reg_of ctx) elim) in
    let atom_vars (a : Ast.atom) = List.concat_map Ast.vars_of_term a.args in
    let gj_atoms =
      Array.map
        (fun (a : Ast.atom) ->
          let bound = ref [] and unbound = ref [] in
          List.iteri
            (fun col t ->
              match t with
              | Ast.Int _ | Ast.Sym _ -> bound := (col, src_of_term ctx t) :: !bound
              | Ast.Var v -> (
                match List.assoc_opt v elim_pos with
                | Some p -> unbound := (col, p) :: !unbound
                | None -> bound := (col, Reg (reg_of ctx v)) :: !bound))
            a.args;
          let bound = List.rev !bound in
          let unbound =
            List.sort (fun (_, p1) (_, p2) -> compare p1 p2) (List.rev !unbound)
          in
          {
            ga_pred = a.Ast.pred;
            ga_cols = Array.of_list (List.map fst bound @ List.map fst unbound);
            ga_prefix = Array.of_list (List.map snd bound);
          })
        atoms
    in
    (* residual steps: prelude when readable from the scan alone,
       otherwise attached to the deepest level they mention *)
    let var_level = Hashtbl.create 8 in
    List.iter (fun (v, p) -> Hashtbl.add var_level v p) elim_pos;
    let level_of_vars vars =
      List.fold_left
        (fun m v -> max m (Option.value ~default:(-1) (Hashtbl.find_opt var_level v)))
        (-1) vars
    in
    let nlevels = List.length elim in
    let prelude = ref [] in
    let per_level = Array.make nlevels [] in
    let put l step = if l < 0 then prelude := step :: !prelude else per_level.(l) <- step :: per_level.(l) in
    List.iter
      (fun elem ->
        match elem with
        | Logical.L_join _ -> ()
        | Logical.L_filter (op, lhs, rhs) ->
          let l = level_of_vars (Ast.vars_of_expr lhs @ Ast.vars_of_expr rhs) in
          put l (Filter { op; lhs = code_of_expr ctx lhs; rhs = code_of_expr ctx rhs })
        | Logical.L_assign (x, e) ->
          let l = level_of_vars (Ast.vars_of_expr e) in
          let code = code_of_expr ctx e in
          let reg = reg_of ctx x in
          if l >= 0 then Hashtbl.replace var_level x l;
          put l (Compute { reg; code })
        | Logical.L_neg { atom = a; pos } ->
          let l = level_of_vars (List.concat_map Ast.vars_of_term a.Ast.args) in
          put l (compile_neg ctx pl a pos))
      pl.pipeline;
    let gj_levels =
      Array.of_list
        (List.mapi
           (fun li v ->
             let parts = ref [] in
             Array.iteri
               (fun ai a ->
                 let avars = atom_vars a in
                 if List.mem v avars then begin
                   let prefix_len = Array.length gj_atoms.(ai).ga_prefix in
                   let earlier =
                     List.length
                       (List.filter (fun (w, p) -> p <= li && List.mem w avars) elim_pos)
                   in
                   parts := (ai, prefix_len + earlier) :: !parts
                 end)
               atoms;
             {
               gv_reg = level_regs.(li);
               gv_atoms = Array.of_list (List.rev !parts);
               gv_steps = Array.of_list (List.rev per_level.(li));
             })
           elim)
    in
    Some
      {
        gj_atoms;
        gj_prelude = Array.of_list (List.rev !prelude);
        gj_levels;
        gj_elim = elim;
      }
  end

(* [flat]: no partitioned copies, so every atom, same-stratum ones
   included, is scanned or looked up as one whole relation. *)
let compile_rule ?(flat = false) (info : Analysis.info) ctx (prep : prepared)
    ~scan_route_of ~gj_mode =
  let pl = prep.p_pipeline in
  let r = pl.rule in
  Hashtbl.reset ctx.regs;
  ctx.next_reg <- 0;
  let scan_whole pred args =
    let binds, checks = compile_scan_match ctx args in
    S_base { pred; binds; checks }
  in
  let scan =
    match pl.scan with
    | Logical.Scan_unit -> S_unit
    | Logical.Scan_base a -> scan_whole a.Ast.pred a.Ast.args
    | Logical.Scan_delta { atom; _ } when flat -> scan_whole atom.Ast.pred atom.Ast.args
    | Logical.Scan_head ->
      scan_whole r.head_pred
        (List.map
           (function
             | Ast.Plain t -> t
             | Ast.Agg _ -> fail "cannot scan an aggregate head (%s)" (Ast.rule_to_string r))
           r.head_args)
    | Logical.Scan_delta { atom; _ } ->
      let binds, checks = compile_scan_match ctx atom.Ast.args in
      let route =
        match prep.p_scan_route with
        | Some r -> r
        | None -> scan_route_of atom.Ast.pred
      in
      S_delta { pred = atom.Ast.pred; route; binds; checks }
  in
  let gj =
    match gj_mode with
    | `Off -> None
    | `Auto when not (Logical.body_cyclic pl.rule) -> None
    | `Auto | `Force -> if gj_eligible pl then build_generic ctx pl else None
  in
  let prev_base_key : (string * src array) option ref = ref None in
  let steps =
    if gj <> None then []
    else List.map
      (fun elem ->
        match elem with
        | Logical.L_filter (op, lhs, rhs) ->
          Filter { op; lhs = code_of_expr ctx lhs; rhs = code_of_expr ctx rhs }
        | Logical.L_assign (x, e) ->
          let code = code_of_expr ctx e in
          Compute { reg = reg_of ctx x; code }
        | Logical.L_neg { atom; pos } -> compile_neg ctx pl atom pos
        | Logical.L_join { atom; recursive; pos } ->
          if recursive && not flat then begin
            let value_pos = agg_value_pos info atom.Ast.pred in
            (* split bound positions into route key vs residual checks *)
            let key = ref [] and checks = ref [] and binds = ref [] in
            let fresh = Hashtbl.create 4 in
            List.iteri
              (fun col t ->
                let is_value = value_pos = Some col in
                match t with
                | Ast.Int _ | Ast.Sym _ -> checks := (col, src_of_term ctx t) :: !checks
                | Ast.Var v ->
                  if Hashtbl.mem fresh v then
                    checks := (col, Reg (reg_of ctx v)) :: !checks
                  else if is_bound ctx v then
                    if is_value then checks := (col, Reg (reg_of ctx v)) :: !checks
                    else key := (col, Reg (reg_of ctx v)) :: !key
                  else begin
                    Hashtbl.add fresh v ();
                    binds := (col, reg_of ctx v) :: !binds
                  end)
              atom.Ast.args;
            let key = List.rev !key in
            let route = Array.of_list (List.map fst key) in
            Lookup
              {
                rel = R_rec { pred = atom.Ast.pred; route };
                method_ = Index;
                key_cols = route;
                key_src = Array.of_list (List.map snd key);
                binds = Array.of_list (List.rev !binds);
                checks = Array.of_list (List.rev !checks);
                negated = false;
                pos;
              }
          end
          else begin
            let key, binds, checks = compile_match ctx atom.Ast.args in
            let key_cols = Array.of_list (List.map fst key) in
            let key_src = Array.of_list (List.map snd key) in
            let method_ =
              if Array.length key_cols = 0 then Nested_loop
              else begin
                match !prev_base_key with
                | Some (_, prev_src) when prev_src = key_src -> Hash
                | _ -> Index
              end
            in
            prev_base_key := Some (atom.Ast.pred, key_src);
            Lookup
              {
                rel = R_base atom.Ast.pred;
                method_;
                key_cols;
                key_src;
                binds;
                checks;
                negated = false;
                pos;
              }
          end)
      pl.pipeline
  in
  (* head projection *)
  let agg = ref None in
  let args =
    Array.of_list
      (List.mapi
         (fun pos (arg : Ast.head_arg) ->
           match arg with
           | Ast.Plain t -> src_of_term ctx t
           | Ast.Agg (kind, terms) -> (
             match (kind, List.rev terms) with
             | (Ast.Min | Ast.Max), [ v ] ->
               agg := Some (pos, kind, [||]);
               src_of_term ctx v
             | (Ast.Min | Ast.Max), _ -> fail "min/max aggregate takes one term"
             | Ast.Count, contribs ->
               agg :=
                 Some
                   (pos, kind, Array.of_list (List.rev_map (src_of_term ctx) contribs));
               Const 0
             | Ast.Sum, v :: contribs ->
               agg :=
                 Some
                   (pos, kind, Array.of_list (List.rev_map (src_of_term ctx) contribs));
               src_of_term ctx v
             | Ast.Sum, [] -> fail "sum aggregate needs a value term"))
         r.head_args)
  in
  {
    source = r;
    logical = Logical.to_string pl;
    nregs = ctx.next_reg;
    scan;
    steps = Array.of_list steps;
    gj;
    head = { hpred = r.head_pred; args; agg = !agg };
  }

(* --- program compilation --- *)

let compile ?(params = []) ?(generic_join = `Auto) (info : Analysis.info) =
  let gj_mode = generic_join in
  let symbols = Dcd_util.Symbol.create () in
  let ctx = { symbols; cparams = params; regs = Hashtbl.create 16; next_reg = 0 } in
  try
    let strata =
      List.map
        (fun (stratum : Analysis.stratum) ->
          (* order every rule, one variant per recursive occurrence *)
          let prepare rule ~delta_occurrence =
            match Logical.order stratum rule ~delta_occurrence with
            | Error e -> fail "%s" e
            | Ok pl ->
              let scan_route, lookup_routes =
                if delta_occurrence = None then (None, [])
                else analyze_routes info pl
              in
              { p_pipeline = pl; p_scan_route = scan_route; p_lookup_routes = lookup_routes }
          in
          let init_prepared =
            List.map (fun r -> prepare r ~delta_occurrence:None) stratum.base_rules
          in
          let delta_prepared =
            List.concat_map
              (fun r ->
                let n = Logical.recursive_occurrences stratum r in
                List.init n (fun k -> prepare r ~delta_occurrence:(Some k)))
              stratum.recursive_rules
          in
          (* gather routes per stratum predicate *)
          let routes_tbl : (string, int array list) Hashtbl.t = Hashtbl.create 8 in
          let add_route pred route =
            let cur = Option.value ~default:[] (Hashtbl.find_opt routes_tbl pred) in
            if not (List.mem route cur) then Hashtbl.replace routes_tbl pred (route :: cur)
          in
          let primary_route pred =
            let arity = List.assoc pred info.arities in
            match agg_value_pos info pred with
            | Some 0 when arity = 1 -> [||]
            | Some 0 -> [| 1 |]
            | _ -> if arity = 0 then [||] else [| 0 |]
          in
          List.iter (fun pred -> add_route pred (primary_route pred)) stratum.preds;
          List.iter
            (fun prep ->
              (match (prep.p_scan_route, prep.p_pipeline.scan) with
              | Some route, Logical.Scan_delta { atom; _ } -> add_route atom.Ast.pred route
              | _ -> ());
              List.iter (fun (pred, route) -> add_route pred route) prep.p_lookup_routes)
            delta_prepared;
          let scan_route_of pred =
            (* deterministic: the primary route *)
            primary_route pred
          in
          let pred_plans =
            List.map
              (fun pred ->
                {
                  pred;
                  arity = List.assoc pred info.arities;
                  agg = List.assoc_opt pred info.aggregated;
                  routes = List.rev (Hashtbl.find routes_tbl pred);
                })
              stratum.preds
          in
          let init_rules =
            List.map (fun p -> compile_rule info ctx p ~scan_route_of ~gj_mode) init_prepared
          in
          let delta_rules =
            List.map (fun p -> compile_rule info ctx p ~scan_route_of ~gj_mode) delta_prepared
          in
          { stratum; pred_plans; init_rules; delta_rules })
        info.strata
    in
    Ok { info; symbols; params; strata }
  with Plan_error msg -> Error msg

let compile_scan ?(bind_extra = false) (t : t) stratum rule at ~sizes =
  let ctx = { symbols = t.symbols; cparams = t.params; regs = Hashtbl.create 16; next_reg = 0 } in
  match Logical.order_at ~sizes stratum rule at with
  | Error e -> Error e
  | Ok pl -> (
    let prep = { p_pipeline = pl; p_scan_route = None; p_lookup_routes = [] } in
    match compile_rule ~flat:true t.info ctx prep ~scan_route_of:(fun _ -> [||]) ~gj_mode:`Off with
    | { scan = S_base s; nregs; _ } as cr when bind_extra ->
      let extra = (List.assoc s.pred t.info.arities, nregs) in
      let binds = Array.append s.binds [| extra |] in
      Ok { cr with nregs = nregs + 1; scan = S_base { s with binds } }
    | cr -> Ok cr
    | exception Plan_error msg -> Error msg)

(* --- auxiliary --- *)

let iter_lookups cr f =
  let steps = Array.iter (function Lookup l -> f l | Filter _ | Compute _ -> ()) in
  steps cr.steps;
  match cr.gj with
  | Some g ->
    steps g.gj_prelude;
    Array.iter (fun lv -> steps lv.gv_steps) g.gj_levels
  | None -> ()

let method_str = function
  | Hash -> "hash"
  | Index -> "index"
  | Nested_loop -> "nested-loop"

let route_str route =
  "[" ^ String.concat "," (Array.to_list (Array.map string_of_int route)) ^ "]"

let explain t =
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i sp ->
      Buffer.add_string buf
        (Printf.sprintf "stratum %d: {%s} %s\n" i
           (String.concat ", " sp.stratum.preds)
           (Analysis.recursion_kind_to_string sp.stratum.kind));
      List.iter
        (fun pp ->
          Buffer.add_string buf
            (Printf.sprintf "  pred %s/%d%s routes: %s\n" pp.pred pp.arity
               (match pp.agg with
               | Some (pos, k) ->
                 Printf.sprintf " agg %s@%d"
                   (match k with
                   | Ast.Min -> "min"
                   | Ast.Max -> "max"
                   | Ast.Count -> "count"
                   | Ast.Sum -> "sum")
                   pos
               | None -> "")
               (String.concat " " (List.map route_str pp.routes))))
        sp.pred_plans;
      let show kind cr =
        let scan_s =
          match cr.scan with
          | S_unit -> "unit"
          | S_base { pred; _ } -> pred
          | S_delta { pred; route; _ } -> Printf.sprintf "d.%s%s" pred (route_str route)
        in
        Buffer.add_string buf (Printf.sprintf "  %s: [scan %s] %s\n" kind scan_s cr.logical);
        (match cr.gj with
        | Some g ->
          Buffer.add_string buf
            (Printf.sprintf "      generic join: elim [%s]\n" (String.concat "," g.gj_elim));
          Array.iter
            (fun ga ->
              Buffer.add_string buf
                (Printf.sprintf "        trie %s cols=%s prefix=%d\n" ga.ga_pred
                   (route_str ga.ga_cols) (Array.length ga.ga_prefix)))
            g.gj_atoms
        | None -> ());
        Array.iter
          (fun step ->
            match step with
            | Lookup { rel; method_; key_cols; negated; _ } ->
              let rel_s =
                match rel with
                | R_base p -> p
                | R_rec { pred; route } -> Printf.sprintf "rec:%s%s" pred (route_str route)
              in
              Buffer.add_string buf
                (Printf.sprintf "      %s %s key=%s (%s join)\n"
                   (if negated then "antijoin" else "join")
                   rel_s (route_str key_cols) (method_str method_))
            | Filter _ -> Buffer.add_string buf "      filter\n"
            | Compute _ -> Buffer.add_string buf "      compute\n")
          cr.steps
      in
      List.iter (show "init ") sp.init_rules;
      List.iter (show "delta") sp.delta_rules)
    t.strata;
  Buffer.contents buf

let to_dot t =
  let buf = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let esc s = String.concat "\\\"" (String.split_on_char '"' s) in
  out "digraph physical_plan {\n  rankdir=BT;\n  node [shape=box, fontsize=10];\n";
  List.iteri
    (fun si (sp : stratum_plan) ->
      out "  subgraph cluster_%d {\n" si;
      out "    label=\"stratum %d: {%s} %s\";\n" si
        (esc (String.concat ", " sp.stratum.preds))
        (Dcd_datalog.Analysis.recursion_kind_to_string sp.stratum.kind);
      let recursive = sp.stratum.kind <> Dcd_datalog.Analysis.Nonrecursive in
      (* one Gather node per predicate of the stratum *)
      List.iter
        (fun (pp : pred_plan) ->
          out "    gather_%d_%s [label=\"Gather %s%s\\nroutes %s\", shape=ellipse];\n" si
            pp.pred pp.pred
            (match pp.agg with
            | Some (_, k) ->
              Printf.sprintf " (%s)"
                (match k with
                | Ast.Min -> "min"
                | Ast.Max -> "max"
                | Ast.Count -> "count"
                | Ast.Sum -> "sum")
            | None -> "")
            (esc
               (String.concat " "
                  (List.map
                     (fun r ->
                       "["
                       ^ String.concat "," (Array.to_list (Array.map string_of_int r))
                       ^ "]")
                     pp.routes))))
        sp.pred_plans;
      List.iteri
        (fun ri cr ->
          let id k = Printf.sprintf "n_%d_%d_%d" si ri k in
          let scan_label =
            match cr.scan with
            | S_unit -> "Unit"
            | S_base { pred; _ } -> Printf.sprintf "Scan %s" pred
            | S_delta { pred; route; _ } ->
              Printf.sprintf "Scan \xce\xb4%s [%s]" pred
                (String.concat "," (Array.to_list (Array.map string_of_int route)))
          in
          out "    %s [label=\"%s\"];\n" (id 0) (esc scan_label);
          Array.iteri
            (fun k step ->
              let label =
                match step with
                | Lookup { rel; method_; key_cols; negated; _ } ->
                  Printf.sprintf "%s %s [%s] (%s)"
                    (if negated then "AntiJoin" else "Join")
                    (match rel with
                    | R_base p -> p
                    | R_rec { pred; _ } -> "rec:" ^ pred)
                    (String.concat "," (Array.to_list (Array.map string_of_int key_cols)))
                    (method_str method_)
                | Filter _ -> "Filter"
                | Compute _ -> "Compute"
              in
              out "    %s [label=\"%s\"];\n" (id (k + 1)) (esc label);
              out "    %s -> %s;\n" (id k) (id (k + 1)))
            cr.steps;
          (match cr.gj with
          | Some g ->
            let k = Array.length cr.steps in
            let label =
              Printf.sprintf "GenericJoin [%s] {%s}"
                (String.concat "," g.gj_elim)
                (String.concat ","
                   (Array.to_list (Array.map (fun ga -> ga.ga_pred) g.gj_atoms)))
            in
            out "    %s [label=\"%s\"];\n" (id (k + 1)) (esc label);
            out "    %s -> %s;\n" (id k) (id (k + 1))
          | None -> ());
          let last =
            id (Array.length cr.steps + match cr.gj with Some _ -> 1 | None -> 0)
          in
          let dist = Printf.sprintf "dist_%d_%d" si ri in
          if recursive then begin
            out "    %s [label=\"Distribute %s\", shape=ellipse];\n" dist cr.head.hpred;
            out "    %s -> %s;\n" last dist;
            out "    %s -> gather_%d_%s [style=dashed, label=\"H\"];\n" dist si cr.head.hpred
          end
          else out "    %s -> gather_%d_%s;\n" last si cr.head.hpred)
        (sp.init_rules @ sp.delta_rules);
      out "  }\n")
    t.strata;
  out "}\n";
  Buffer.contents buf
