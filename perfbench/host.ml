(* Host and process diagnostics read from /proc and the OCaml runtime,
   recorded next to every run so a slow host phase can be told apart
   from a regression. *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

(* a "Key:   1234 kB" field of /proc/self/status, in MB (0 when absent) *)
let status_mb key =
  let prefix = key ^ ":" in
  List.fold_left
    (fun acc l ->
      if String.starts_with ~prefix l then
        match Scanf.sscanf_opt l "%_s %f kB" Fun.id with Some kb -> kb /. 1024. | None -> acc
      else acc)
    0. (read_lines "/proc/self/status")

(* (all ticks, steal ticks) of the aggregate "cpu" line of /proc/stat *)
let cpu_ticks () =
  match read_lines "/proc/stat" with
  | l :: _ when String.starts_with ~prefix:"cpu " l ->
    let fields =
      String.split_on_char ' ' l |> List.tl |> List.filter (( <> ) "")
      |> List.filter_map int_of_string_opt
    in
    let total = List.fold_left ( + ) 0 fields in
    let steal = match List.nth_opt fields 7 with Some s -> s | None -> 0 in
    (total, steal)
  | _ -> (0, 0)

(* user + system CPU seconds of this process, all threads *)
let process_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* live heap in MB after a full major collection *)
let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

type mark = { ticks : int * int; cpu_s : float; minor_words : float; major : int }

let mark () =
  let g = Gc.quick_stat () in
  {
    ticks = cpu_ticks ();
    cpu_s = process_cpu_s ();
    minor_words = g.Gc.minor_words;
    major = g.Gc.major_collections;
  }

(* share of host CPU time stolen by the hypervisor between two marks *)
let steal_frac a b =
  let total = fst b.ticks - fst a.ticks and steal = snd b.ticks - snd a.ticks in
  if total <= 0 then 0. else float_of_int steal /. float_of_int total
