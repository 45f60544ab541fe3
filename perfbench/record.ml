(* Named samples gathered during a run, and the JSON the run reports. *)

type t = (string, float list ref) Hashtbl.t

let create () : t = Hashtbl.create 64

let add (t : t) name v =
  match Hashtbl.find_opt t name with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add t name (ref [ v ])

let samples (t : t) name =
  match Hashtbl.find_opt t name with Some r -> Sample.sorted !r | None -> [||]

let median t name =
  let a = samples t name in
  if Array.length a = 0 then 0. else Sample.median a

let percentile t name p =
  let a = samples t name in
  if Array.length a = 0 then 0. else Sample.percentile a p

let mean t name = Sample.mean (samples t name)

let sum t name = Array.fold_left ( +. ) 0. (samples t name)

let ratio a b = if b = 0. then 0. else a /. b

(* a JSON number carrying every digit of the measurement *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed (metrics : (string * string * float) list) =
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " body)
