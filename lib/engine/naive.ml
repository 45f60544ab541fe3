open Dcd_datalog
module Logical = Dcd_planner.Logical
module Tuple = Dcd_storage.Tuple

module Tup_tbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

type agg_state = {
  akind : Ast.agg_kind;
  apos : int;
  best : int Tup_tbl.t; (* group -> aggregate value (min/max/count/sum) *)
  contribs : int Tup_tbl.t; (* group ++ contributor -> value (count: 1) *)
}

type pred_state =
  | Pset of unit Tup_tbl.t
  | Pagg of agg_state

type state = {
  preds : (string, pred_state) Hashtbl.t;
  symbols : Dcd_util.Symbol.table;
  params : (string * int) list;
  mutable changed : bool;
}

let visible st pred f =
  match Hashtbl.find_opt st.preds pred with
  | None -> ()
  | Some (Pset tbl) -> Tup_tbl.iter (fun tup () -> f tup) tbl
  | Some (Pagg a) ->
    Tup_tbl.iter
      (fun group v ->
        let arity = Array.length group + 1 in
        let tup = Array.make arity 0 in
        let gi = ref 0 in
        for c = 0 to arity - 1 do
          if c = a.apos then tup.(c) <- v
          else begin
            tup.(c) <- group.(!gi);
            incr gi
          end
        done;
        f tup)
      a.best

let group_of_tuple a tup =
  let arity = Array.length tup in
  let group = Array.make (arity - 1) 0 in
  let gi = ref 0 in
  for c = 0 to arity - 1 do
    if c <> a.apos then begin
      group.(!gi) <- tup.(c);
      incr gi
    end
  done;
  group

let add_plain st pred tup =
  let tbl =
    match Hashtbl.find_opt st.preds pred with
    | Some (Pset tbl) -> tbl
    | Some (Pagg _) -> invalid_arg "Naive: aggregate/plain mismatch"
    | None ->
      let tbl = Tup_tbl.create 64 in
      Hashtbl.add st.preds pred (Pset tbl);
      tbl
  in
  if not (Tup_tbl.mem tbl tup) then begin
    Tup_tbl.add tbl tup ();
    st.changed <- true
  end

let add_agg st pred ~kind ~pos ~tuple ~contributor =
  let a =
    match Hashtbl.find_opt st.preds pred with
    | Some (Pagg a) -> a
    | Some (Pset _) -> invalid_arg "Naive: aggregate/plain mismatch"
    | None ->
      let a = { akind = kind; apos = pos; best = Tup_tbl.create 64; contribs = Tup_tbl.create 64 } in
      Hashtbl.add st.preds pred (Pagg a);
      a
  in
  let group = group_of_tuple a tuple in
  let v = tuple.(a.apos) in
  let update value =
    match Tup_tbl.find_opt a.best group with
    | Some cur when cur = value -> ()
    | _ ->
      Tup_tbl.replace a.best group value;
      st.changed <- true
  in
  match kind with
  | Ast.Min -> (
    match Tup_tbl.find_opt a.best group with
    | Some cur when cur <= v -> ()
    | _ -> update v)
  | Ast.Max -> (
    match Tup_tbl.find_opt a.best group with
    | Some cur when cur >= v -> ()
    | _ -> update v)
  | Ast.Count ->
    let key = Array.append group contributor in
    if not (Tup_tbl.mem a.contribs key) then begin
      Tup_tbl.add a.contribs key 1;
      let cur = Option.value ~default:0 (Tup_tbl.find_opt a.best group) in
      update (cur + 1)
    end
  | Ast.Sum ->
    let key = Array.append group contributor in
    let old = Tup_tbl.find_opt a.contribs key in
    if old <> Some v then begin
      Tup_tbl.replace a.contribs key v;
      let cur = Option.value ~default:0 (Tup_tbl.find_opt a.best group) in
      update (cur + v - Option.value ~default:0 old)
    end

(* --- expression evaluation over an environment --- *)

let term_value st env = function
  | Ast.Int i -> i
  | Ast.Sym s -> (
    match List.assoc_opt s st.params with
    | Some v -> v
    | None -> Dcd_util.Symbol.intern st.symbols s)
  | Ast.Var v -> (
    match Hashtbl.find_opt env v with
    | Some x -> x
    | None -> invalid_arg (Printf.sprintf "Naive: unbound variable %s" v))

let rec expr_value st env = function
  | Ast.Term t -> term_value st env t
  | Ast.Binop (op, a, b) -> (
    let x = expr_value st env a and y = expr_value st env b in
    match op with
    | Ast.Add -> x + y
    | Ast.Sub -> x - y
    | Ast.Mul -> x * y
    | Ast.Div -> x / y
    | Ast.Mod -> x mod y)
  | Ast.Neg e -> -expr_value st env e

let cmp_holds op x y = Dcd_planner.Physical.eval_cmp op x y

(* Matches an atom's argument list against a tuple, extending [env];
   returns the bindings it added (for undo) or None on mismatch. *)
let match_atom st env (args : Ast.term list) (tup : Tuple.t) =
  let added = ref [] in
  let ok =
    List.for_all2
      (fun t v ->
        match t with
        | Ast.Var name -> (
          match Hashtbl.find_opt env name with
          | Some bound -> bound = v
          | None ->
            Hashtbl.add env name v;
            added := name :: !added;
            true)
        | Ast.Int _ | Ast.Sym _ -> term_value st env t = v)
      args (Array.to_list tup)
  in
  if ok then Some !added
  else begin
    List.iter (Hashtbl.remove env) !added;
    None
  end

exception Matched

let derive_rule st (pl : Logical.rule_pipeline) =
  let env : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let r = pl.rule in
  let emit () =
    let agg = Ast.agg_of_rule r in
    let tuple =
      Array.of_list
        (List.map
           (fun (arg : Ast.head_arg) ->
             match arg with
             | Ast.Plain t -> term_value st env t
             | Ast.Agg (Ast.Count, _) -> 0
             | Ast.Agg ((Ast.Min | Ast.Max), [ t ]) -> term_value st env t
             | Ast.Agg (Ast.Sum, ts) -> term_value st env (List.nth ts (List.length ts - 1))
             | Ast.Agg _ -> invalid_arg "Naive: malformed aggregate")
           r.head_args)
    in
    match agg with
    | None -> add_plain st r.head_pred tuple
    | Some (pos, kind) ->
      let contributor =
        List.concat_map
          (fun (arg : Ast.head_arg) ->
            match arg with
            | Ast.Agg (Ast.Count, ts) -> List.map (term_value st env) ts
            | Ast.Agg (Ast.Sum, ts) ->
              List.map (term_value st env) (List.filteri (fun i _ -> i < List.length ts - 1) ts)
            | Ast.Agg ((Ast.Min | Ast.Max), _) | Ast.Plain _ -> [])
          r.head_args
      in
      add_agg st r.head_pred ~kind ~pos ~tuple ~contributor:(Array.of_list contributor)
  in
  let with_atom args tup k =
    match match_atom st env args tup with
    | None -> ()
    | Some added ->
      k ();
      List.iter (Hashtbl.remove env) added
  in
  let rec step elems =
    match elems with
    | [] -> emit ()
    | Logical.L_join { atom; _ } :: rest ->
      visible st atom.Ast.pred (fun tup -> with_atom atom.Ast.args tup (fun () -> step rest))
    | Logical.L_neg { atom; _ } :: rest -> (
      match
        visible st atom.Ast.pred (fun tup ->
            match match_atom st env atom.Ast.args tup with
            | Some added ->
              List.iter (Hashtbl.remove env) added;
              raise Matched
            | None -> ())
      with
      | () -> step rest
      | exception Matched -> ())
    | Logical.L_filter (op, lhs, rhs) :: rest -> (
      match (expr_value st env lhs, expr_value st env rhs) with
      | x, y -> if cmp_holds op x y then step rest
      | exception Division_by_zero -> ())
    | Logical.L_assign (x, e) :: rest -> (
      match expr_value st env e with
      | v ->
        Hashtbl.add env x v;
        step rest;
        Hashtbl.remove env x
      | exception Division_by_zero -> ())
  in
  match pl.scan with
  | Logical.Scan_unit -> step pl.pipeline
  | Logical.Scan_base a | Logical.Scan_delta { atom = a; _ } ->
    visible st a.Ast.pred (fun tup -> with_atom a.Ast.args tup (fun () -> step pl.pipeline))
  | Logical.Scan_head -> invalid_arg "Naive: head-bound pipeline"

let run ?(params = []) ?(max_iterations = 10_000) (program : Ast.program) ~edb =
  let info =
    match Analysis.analyze program with
    | Ok info -> info
    | Error e -> invalid_arg ("Naive.run: " ^ e)
  in
  let st =
    { preds = Hashtbl.create 16; symbols = Dcd_util.Symbol.create (); params; changed = false }
  in
  List.iter
    (fun (name, tuples) -> List.iter (fun tup -> add_plain st name tup) tuples)
    edb;
  List.iter
    (fun (stratum : Analysis.stratum) ->
      let pipelines =
        List.map
          (fun r ->
            match Logical.order stratum r ~delta_occurrence:None with
            | Ok pl -> pl
            | Error e -> invalid_arg ("Naive.run: " ^ e))
          (stratum.base_rules @ stratum.recursive_rules)
      in
      let rec fix iter =
        st.changed <- false;
        List.iter (derive_rule st) pipelines;
        if st.changed && iter < max_iterations then fix (iter + 1)
      in
      fix 0)
    info.strata;
  List.filter_map
    (fun pred ->
      if List.mem pred info.idb then begin
        let out = ref [] in
        visible st pred (fun tup -> out := tup :: !out);
        Some (pred, List.sort Tuple.compare !out)
      end
      else None)
    info.idb
