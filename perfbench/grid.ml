(* grid: the paper's F8 cross-architecture grid at test size, evaluated
   cold on a 2-domain pool, then rendered and compared with the
   committed tables. *)

open Workload
module Experiments = Sdt_harness.Experiments
module Table = Sdt_harness.Table
module Suite = Sdt_workloads.Suite
module Fingerprint = Sdt_par.Fingerprint
module Jsonw = Sdt_observe.Jsonw

let experiment_id = function Full -> "F8" | Quick -> "F4"
let key (e : Suite.entry) = e.Suite.name ^ ":test"

(* the committed tables of bench/baselines/BENCH_<id>.json, in
   [Table.t] form *)
let baseline_tables id =
  let path = Filename.concat "bench/baselines" ("BENCH_" ^ id ^ ".json") in
  let doc =
    match Jsonw.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Ok d -> d
    | Error msg -> failwith (path ^ ": " ^ msg)
  in
  let str = function Jsonw.Str s -> s | _ -> failwith (path ^ ": not a string") in
  let strs = function
    | Some (Jsonw.List l) -> List.map str l
    | _ -> failwith (path ^ ": not a list")
  in
  match Jsonw.member "tables" doc with
  | Some (Jsonw.List ts) ->
      List.map
        (fun t ->
          let field k = str (Option.get (Jsonw.member k t)) in
          {
            Table.title = field "title";
            note = field "note";
            headers = strs (Jsonw.member "headers" t);
            rows =
              (match Jsonw.member "rows" t with
              | Some (Jsonw.List rows) -> List.map (fun r -> strs (Some r)) rows
              | _ -> failwith (path ^ ": no rows"));
          })
        ts
  | _ -> failwith (path ^ ": no tables")

let unique_cells (e : Experiments.experiment) =
  let seen = Hashtbl.create 512 in
  List.filter
    (fun (c : Experiments.cell) ->
      let fp =
        Fingerprint.cell ~key:(key c.Experiments.cell_entry)
          ~arch:c.Experiments.cell_arch ~cfg:c.Experiments.cell_cfg
      in
      if Hashtbl.mem seen fp then false
      else (
        Hashtbl.add seen fp ();
        true))
    e.Experiments.grid

(* the result of one cell, through the memo (a hit once evaluated) *)
let cell_result (c : Experiments.cell) =
  let e = c.Experiments.cell_entry in
  let build () = Suite.program e `Test in
  let arch = c.Experiments.cell_arch in
  match c.Experiments.cell_cfg with
  | None -> `Native (Run.native ~arch ~key:(key e) build)
  | Some cfg -> `Sdt (Run.sdt ~arch ~cfg ~key:(key e) build)

let setup o =
  let id = experiment_id o.scale in
  let e = Option.get (Experiments.find id) in
  let expected = baseline_tables id in
  let cells = unique_cells e in
  let arches =
    List.sort_uniq compare
      (List.map (fun c -> c.Experiments.cell_arch) cells)
  in
  let progs, build_s =
    build_programs ~arch:Arch.arch_a
      (List.map (fun en -> (key en, fun () -> Suite.program en `Test)) Suite.all)
  in
  let pool = Pool.create ~jobs:pool_jobs in
  (* evaluate and render once: [Some pool] on the pool, [None] serially *)
  let pass pool =
    Run.clear_cache ();
    let t0 = Measure.now () in
    let g = Measure.gc_mark () in
    let i0 = Run.simulated_instructions () in
    let b0 = Run.block_cache_stats () in
    let failed = ref 0 in
    let (), evaluate =
      Measure.timed (fun () ->
          Telemetry.span ~cat:"harness" ~name:"harness.evaluate" (fun () ->
              match Experiments.evaluate ?pool `Test e with
              | _ -> ()
              | exception ex ->
                  report_exn (id ^ " evaluate") ex;
                  (* count every failing cell, not just the first *)
                  List.iter
                    (fun c ->
                      match cell_result c with
                      | _ -> ()
                      | exception ex ->
                          report_exn (key c.Experiments.cell_entry) ex;
                          incr failed)
                    cells))
    in
    let tables, render =
      Measure.timed (fun () ->
          Telemetry.span ~cat:"harness" ~name:"harness.render" (fun () ->
              match e.Experiments.run `Test with
              | t -> Some t
              | exception ex ->
                  report_exn (id ^ " render") ex;
                  None))
    in
    if tables <> Some expected then (
      Printf.eprintf "perfbench: %s tables differ from BENCH_%s.json\n%!" id id;
      incr failed);
    let gc = Measure.gc_since g in
    let wall = Measure.now () -. t0 in
    let memo = Run.cache_stats () in
    let instrs = Run.simulated_instructions () - i0 in
    let machine = machine_layer b0 instrs in
    let sdts =
      List.filter_map
        (fun c ->
          match cell_result c with
          | `Sdt s -> Some s
          | `Native _ -> None
          | exception _ -> None)
        cells
    in
    Run.clear_cache ();
    {
      Measure.wall;
      exec = evaluate;
      evaluate;
      render;
      instrs;
      units = List.length cells + 1;
      failed = !failed;
      jobs = memo.Run.simulated;
      gc;
      det =
        sim_layers
          ~slowdowns:(List.map (fun s -> s.Run.slowdown) sdts)
          ~cycles:(List.map (fun s -> s.Run.s_cycles) sdts)
        @ machine @ sdt_layers sdts @ memo_layer memo;
    }
  in
  {
    build_ms = 1000.0 *. build_s;
    rep = (fun () -> pass (Some pool));
    extras =
      (fun reps ->
        let serial = pass None in
        let pooled = Measure.median (List.map (fun r -> r.Measure.wall) reps) in
        [
          ("par.scaling", Measure.ratio serial.Measure.wall pooled);
          ("gc.minor_words_per_instr",
           Measure.ratio serial.Measure.gc.Measure.words
             (float_of_int serial.Measure.instrs));
        ]
        @ march_contrast ~arch:Arch.arch_a progs);
    probe =
      (fun () ->
        load_create
          (List.concat_map (fun a -> List.map (fun (_, p) -> (a, p)) progs) arches));
    traced =
      (fun r spans ->
        [ ("par.worker_busy_share", pool_busy_share spans ~wall:r.Measure.evaluate) ]);
    teardown = (fun () -> Pool.shutdown pool);
  }
