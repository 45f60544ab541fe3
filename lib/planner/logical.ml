open Dcd_datalog

type scan_kind =
  | Scan_base of Ast.atom
  | Scan_delta of {
      atom : Ast.atom;
      occurrence : int;
    }
  | Scan_head
  | Scan_unit

type pipe_elem =
  | L_join of {
      atom : Ast.atom;
      recursive : bool;
      pos : int;
    }
  | L_neg of {
      atom : Ast.atom;
      pos : int;
    }
  | L_filter of Ast.cmp_op * Ast.expr * Ast.expr
  | L_assign of string * Ast.expr

type rule_pipeline = {
  rule : Ast.rule;
  scan : scan_kind;
  pipeline : pipe_elem list;
}

type scan_at =
  | At_atom of int
  | At_head
  | At_nothing

module Sset = Set.Make (String)

let recursive_occurrences stratum (r : Ast.rule) =
  List.length
    (List.filter (fun a -> Analysis.is_recursive_atom stratum a) (Ast.body_atoms r))

(* Greedy linearization.  [remaining] holds the unplaced literals with
   their body positions; each step emits the cheapest literal whose
   inputs are available. *)
let order_at ?sizes stratum (r : Ast.rule) at =
  let is_rec a = Analysis.is_recursive_atom stratum a in
  let body = List.mapi (fun pos lit -> (pos, lit)) r.body in
  let scan, remaining =
    match at with
    | At_atom pos -> (
      match List.nth_opt r.body pos with
      | Some (Ast.Pos a) ->
        let occurrence =
          recursive_occurrences stratum { r with body = List.filteri (fun p _ -> p < pos) r.body }
        in
        ( (if is_rec a then Scan_delta { atom = a; occurrence } else Scan_base a),
          List.filter (fun (p, _) -> p <> pos) body )
      | _ ->
        invalid_arg
          (Printf.sprintf "Logical.order_at: no positive atom at body position %d (%s)" pos
             (Ast.rule_to_string r)))
    | At_head -> (Scan_head, body)
    | At_nothing -> (Scan_unit, body)
  in
  let bound = ref Sset.empty in
  let bind_vars vars = List.iter (fun v -> bound := Sset.add v !bound) vars in
  let bind_atom (a : Ast.atom) = List.iter (fun t -> bind_vars (Ast.vars_of_term t)) a.args in
  (match scan with
  | Scan_base a | Scan_delta { atom = a; _ } -> bind_atom a
  | Scan_head ->
    List.iter
      (function Ast.Plain t -> bind_vars (Ast.vars_of_term t) | Ast.Agg _ -> ())
      r.head_args
  | Scan_unit -> ());
  let all_bound vars = List.for_all (fun v -> Sset.mem v !bound) vars in
  let assign_target lhs rhs =
    (* [Some (x, e)] when the Eq literal can run as an assignment *)
    match (lhs, rhs) with
    | Ast.Term (Ast.Var x), e when (not (Sset.mem x !bound)) && all_bound (Ast.vars_of_expr e)
      ->
      Some (x, e)
    | e, Ast.Term (Ast.Var x) when (not (Sset.mem x !bound)) && all_bound (Ast.vars_of_expr e)
      ->
      Some (x, e)
    | _ -> None
  in
  let atom_score (a : Ast.atom) =
    (* bound argument positions = usable index key columns *)
    List.fold_left
      (fun acc t ->
        match t with
        | Ast.Int _ | Ast.Sym _ -> acc + 1
        | Ast.Var v -> if Sset.mem v !bound then acc + 1 else acc)
      0 a.args
  in
  (* a score tie goes to the smaller relation when sizes are known,
     otherwise to the atom written first *)
  let smaller (a : Ast.atom) (b : Ast.atom) =
    match sizes with
    | Some size -> size a.pred < size b.pred
    | None -> false
  in
  let rec place acc remaining =
    if remaining = [] then Ok (List.rev acc)
    else begin
      (* 1. assignments, 2. filters, 3. negations, 4. best-scored atom *)
      let ready_assign =
        List.find_opt
          (function
            | _, Ast.Cmp (Ast.Eq, lhs, rhs) -> assign_target lhs rhs <> None
            | _ -> false)
          remaining
      in
      let ready_filter =
        List.find_opt
          (function
            | _, Ast.Cmp (_, lhs, rhs) ->
              all_bound (Ast.vars_of_expr lhs @ Ast.vars_of_expr rhs)
            | _ -> false)
          remaining
      in
      let ready_neg =
        List.find_opt
          (function
            | _, Ast.Neg_lit a -> all_bound (List.concat_map Ast.vars_of_term a.Ast.args)
            | _ -> false)
          remaining
      in
      let best_atom =
        List.fold_left
          (fun best ((_, lit) as pl) ->
            match lit with
            | Ast.Pos a -> (
              let s = atom_score a in
              match best with
              | Some (_, b, s') when s' > s || (s' = s && not (smaller a b)) -> best
              | _ -> Some (pl, a, s))
            | _ -> best)
          None remaining
      in
      let chosen =
        match (ready_assign, ready_filter, ready_neg, best_atom) with
        | Some l, _, _, _ | None, Some l, _, _ | None, None, Some l, _ -> Some l
        | None, None, None, Some (l, _, _) -> Some l
        | None, None, None, None -> None
      in
      match chosen with
      | None ->
        Error
          (Printf.sprintf "cannot order rule body (unbound comparison?): %s"
             (Ast.rule_to_string r))
      | Some (pos, lit) ->
        let remaining = List.filter (fun (p, _) -> p <> pos) remaining in
        let elem =
          match lit with
          | Ast.Pos a ->
            bind_atom a;
            L_join { atom = a; recursive = is_rec a; pos }
          | Ast.Neg_lit a -> L_neg { atom = a; pos }
          | Ast.Cmp (Ast.Eq, lhs, rhs) -> (
            match assign_target lhs rhs with
            | Some (x, e) ->
              bound := Sset.add x !bound;
              L_assign (x, e)
            | None -> L_filter (Ast.Eq, lhs, rhs))
          | Ast.Cmp (op, lhs, rhs) -> L_filter (op, lhs, rhs)
        in
        place (elem :: acc) remaining
    end
  in
  match place [] remaining with
  | Error e -> Error e
  | Ok pipeline -> Ok { rule = r; scan; pipeline }

let order stratum (r : Ast.rule) ~delta_occurrence =
  let is_rec a = Analysis.is_recursive_atom stratum a in
  let positions keep =
    List.concat
      (List.mapi (fun pos lit -> match lit with Ast.Pos a when keep a -> [ pos ] | _ -> []) r.body)
  in
  match delta_occurrence with
  | Some k -> (
    match List.nth_opt (positions is_rec) k with
    | Some pos -> order_at stratum r (At_atom pos)
    | None ->
      invalid_arg
        (Printf.sprintf "Logical.order: rule has no recursive occurrence %d (%s)" k
           (Ast.rule_to_string r)))
  | None -> (
    (* base rule: scan the first lower-stratum atom if any *)
    match positions (fun a -> not (is_rec a)) with
    | pos :: _ -> order_at stratum r (At_atom pos)
    | [] -> order_at stratum r At_nothing)

(* --- cyclic-body analysis (generic-join path selection) --- *)

let positive_atoms (r : Ast.rule) =
  List.filter_map (function Ast.Pos a -> Some a | _ -> None) r.body

let atom_vars (a : Ast.atom) = List.concat_map Ast.vars_of_term a.args

(* Join-graph cycle check via GYO ear removal (alpha-acyclicity of the
   body hypergraph).  An "ear" is an atom whose variables shared with
   the rest of the body are covered by one other single atom; repeatedly
   plucking ears empties an acyclic body.  Triangle (arc(X,Y), arc(Y,Z),
   arc(X,Z)) has no ear and is cyclic; SG's recursive body (arc(A,X),
   sg(A,B), arc(B,Y)) is a chain; subsumed-atom shapes like
   a(X,Z), c(Z), d(Z) reduce away and correctly stay on the binary
   path. *)
let body_cyclic (r : Ast.rule) =
  let edges =
    List.map (fun a -> List.sort_uniq compare (atom_vars a)) (positive_atoms r)
  in
  let rec reduce edges =
    match edges with
    | [] | [ _ ] -> true
    | _ -> (
      let is_ear e others =
        let shared =
          List.filter (fun v -> List.exists (fun o -> List.mem v o) others) e
        in
        shared = []
        || List.exists (fun o -> List.for_all (fun v -> List.mem v o) shared) others
      in
      let rec find_ear acc = function
        | [] -> None
        | e :: rest ->
          let others = List.rev_append acc rest in
          if is_ear e others then Some others else find_ear (e :: acc) rest
      in
      match find_ear [] edges with
      | Some rest -> reduce rest
      | None -> false)
  in
  not (reduce edges)

(* Greedy elimination order for the variables not bound by the scan:
   highest atom-degree first (intersecting more iterators earlier prunes
   harder), ties broken toward variables adjacent to already-bound ones
   (keeps trie prefixes usable), then lexicographically so plans are
   deterministic. *)
let elimination_order ~bound atoms =
  let boundset = ref (Sset.of_list bound) in
  let unbound =
    List.concat_map atom_vars atoms
    |> List.sort_uniq compare
    |> List.filter (fun v -> not (Sset.mem v !boundset))
  in
  let degree v =
    List.length (List.filter (fun a -> List.mem v (atom_vars a)) atoms)
  in
  let adjacent_bound v =
    List.exists
      (fun a ->
        let vs = atom_vars a in
        List.mem v vs && List.exists (fun w -> Sset.mem w !boundset) vs)
      atoms
  in
  let rec loop acc remaining =
    match remaining with
    | [] -> List.rev acc
    | _ -> (
      let best =
        List.fold_left
          (fun best v ->
            let s = (degree v, adjacent_bound v) in
            match best with
            | Some (bv, (bo, ba)) ->
              let o, a = s in
              if o > bo || (o = bo && a && not ba) || (o = bo && a = ba && v < bv) then
                Some (v, s)
              else best
            | None -> Some (v, s))
          None remaining
      in
      match best with
      | None -> List.rev acc
      | Some (v, _) ->
        boundset := Sset.add v !boundset;
        loop (v :: acc) (List.filter (fun w -> w <> v) remaining))
  in
  loop [] unbound

let pp fmt { rule; scan; pipeline } =
  (match scan with
  | Scan_base a -> Format.fprintf fmt "SCAN %s" a.Ast.pred
  | Scan_delta { atom; occurrence } ->
    Format.fprintf fmt "SCAN d.%s#%d" atom.Ast.pred occurrence
  | Scan_head -> Format.fprintf fmt "SCAN head %s" rule.Ast.head_pred
  | Scan_unit -> Format.fprintf fmt "UNIT");
  List.iter
    (fun elem ->
      match elem with
      | L_join { atom; recursive; _ } ->
        Format.fprintf fmt " JOIN %s%s" (if recursive then "rec:" else "") atom.Ast.pred
      | L_neg { atom; _ } -> Format.fprintf fmt " ANTIJOIN %s" atom.Ast.pred
      | L_filter (op, lhs, rhs) ->
        Format.fprintf fmt " FILTER(%a)" Ast.pp_literal (Ast.Cmp (op, lhs, rhs))
      | L_assign (x, e) -> Format.fprintf fmt " COMPUTE(%s := %a)" x Ast.pp_expr e)
    pipeline;
  Format.fprintf fmt " PROJECT %s" rule.Ast.head_pred

let to_string p = Format.asprintf "%a" pp p
