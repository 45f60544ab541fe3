type worker_snapshot = {
  ws_worker : int;
  ws_active : bool;
  ws_iterations : int;
  ws_consumed : int;
  ws_inbox_tuples : int;
  ws_inbox_batches : int;
}

type stall_diagnostic = {
  stall_window : float;
  stall_strategy : string;
  stall_sent : int;
  stall_consumed : int;
  stall_workers : worker_snapshot array;
}

type crash = {
  worker : int;
  error : exn;
  backtrace : string;
}

type t =
  | Cancelled of Dcd_concurrent.Cancel.reason
  | Worker_crashed of {
      worker : int;
      error : exn;
      backtrace : string;
      others : crash list;
    }
  | Stalled of stall_diagnostic

exception Error of t

let worker_crashed (failures : Dcd_concurrent.Domain_pool.failure list) =
  match failures with
  | [] -> invalid_arg "Engine_error.worker_crashed: no failure"
  | first :: rest ->
    Worker_crashed
      {
        worker = first.index;
        error = first.error;
        backtrace = first.backtrace;
        others =
          List.map
            (fun (f : Dcd_concurrent.Domain_pool.failure) ->
              { worker = f.index; error = f.error; backtrace = f.backtrace })
            rest;
      }

let pp_diagnostic fmt d =
  Format.fprintf fmt
    "no worker progress for %.2fs under %s; sent=%d consumed=%d (%d in flight)@." d.stall_window
    d.stall_strategy d.stall_sent d.stall_consumed (d.stall_sent - d.stall_consumed);
  Array.iter
    (fun w ->
      Format.fprintf fmt "  w%d: %s, %d iterations, %d consumed, inbox %d tuples / %d batches@."
        w.ws_worker
        (if w.ws_active then "active" else "idle")
        w.ws_iterations w.ws_consumed w.ws_inbox_tuples w.ws_inbox_batches)
    d.stall_workers

let to_string = function
  | Cancelled reason ->
    Printf.sprintf "evaluation cancelled (%s)" (Dcd_concurrent.Cancel.reason_to_string reason)
  | Worker_crashed { worker; error; others; _ } ->
    let peers =
      match others with
      | [] -> ""
      | l ->
        Printf.sprintf " (+%d more: %s)" (List.length l)
          (String.concat ", " (List.map (fun c -> Printf.sprintf "w%d" c.worker) l))
    in
    Printf.sprintf "worker %d crashed: %s%s" worker (Printexc.to_string error) peers
  | Stalled d ->
    Printf.sprintf "evaluation stalled: no worker progress for %.2fs under %s (%d tuples in flight)"
      d.stall_window d.stall_strategy (d.stall_sent - d.stall_consumed)

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Engine_error: " ^ to_string e)
    | _ -> None)
