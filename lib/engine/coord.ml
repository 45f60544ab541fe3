type t =
  | Global
  | Ssp of int
  | Dws

let dws_tau_cap = 0.01

type config = {
  timeout : float option;
  cancel : Dcd_concurrent.Cancel.t option;
  stall_window : float option;
}

let default_config = { timeout = None; cancel = None; stall_window = None }

let to_string = function
  | Global -> "global"
  | Ssp s -> Printf.sprintf "ssp(%d)" s
  | Dws -> "dws"
