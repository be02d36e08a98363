module Jsonw = Sdt_observe.Jsonw

type status = Ok | Regressed | No_baseline

type verdict = {
  v_id : string;
  v_seconds : float;
  v_baseline : float;
  v_ratio : float;
  v_status : status;
}

let best_of = function
  | [] -> invalid_arg "Perfgate.best_of: no repetitions"
  | t :: ts -> List.fold_left Float.min t ts

let check ~tolerance ?(abs_slack = 0.05) ~baseline measured =
  List.map
    (fun (id, seconds) ->
      match baseline id with
      | None ->
          {
            v_id = id;
            v_seconds = seconds;
            v_baseline = 0.0;
            v_ratio = 0.0;
            v_status = No_baseline;
          }
      | Some base ->
          {
            v_id = id;
            v_seconds = seconds;
            v_baseline = base;
            v_ratio = (if base > 0.0 then seconds /. base else Float.infinity);
            v_status =
              (if seconds > (base *. tolerance) +. abs_slack then Regressed
               else Ok);
          })
    measured

let regressions = List.filter (fun v -> v.v_status = Regressed)

let load_baseline ~dir id =
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" id) in
  if not (Sys.file_exists path) then None
  else
    match
      Jsonw.of_string (In_channel.with_open_text path In_channel.input_all)
    with
    | Error _ -> None
    | Ok doc -> (
        match Jsonw.member "seconds" doc with
        | Some (Jsonw.Float s) -> Some s
        | Some (Jsonw.Int s) -> Some (float_of_int s)
        | _ -> None)

let pp_verdict ppf v =
  match v.v_status with
  | No_baseline ->
      Format.fprintf ppf "  %-6s %8.3fs  (no baseline)" v.v_id v.v_seconds
  | _ ->
      Format.fprintf ppf "  %-6s %8.3fs  baseline %8.3fs  %5.2fx  %s" v.v_id
        v.v_seconds v.v_baseline v.v_ratio
        (match v.v_status with Regressed -> "REGRESSED" | _ -> "ok")

let status_str = function
  | Ok -> "ok"
  | Regressed -> "regressed"
  | No_baseline -> "no-baseline"

let trajectory_row ~meta ~tolerance ?(counters = []) verdicts =
  Jsonw.Obj
    [
      ("meta", meta);
      ("tolerance", Jsonw.Float tolerance);
      ( "experiments",
        Jsonw.List
          (List.map
             (fun v ->
               let counters =
                 match List.assoc_opt v.v_id counters with
                 | None -> []
                 | Some kvs -> [ ("counters", Jsonw.int_obj kvs) ]
               in
               Jsonw.Obj
                 ([
                    ("id", Jsonw.Str v.v_id);
                    ("seconds", Jsonw.Float v.v_seconds);
                    ("baseline", Jsonw.Float v.v_baseline);
                    ("ratio", Jsonw.Float v.v_ratio);
                    ("status", Jsonw.Str (status_str v.v_status));
                  ]
                 @ counters))
             verdicts) );
      ("regressed", Jsonw.Bool (regressions verdicts <> []));
    ]

let append_trajectory ~file row =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Jsonw.to_channel oc row)
