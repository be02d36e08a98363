(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's experiment index) and registers
   one Bechamel test per experiment measuring the harness itself.

   Each experiment declares its measurement grid as data; the harness
   fans the not-yet-cached cells out over a Domain worker pool
   (--jobs N), then assembles the tables from the result memo — output
   is byte-identical for every N. With --cache DIR, simulated cells
   also persist to disk and later invocations skip them.

   Usage:
     dune exec bench/main.exe                 -- all experiments, ref size
     dune exec bench/main.exe -- --size test  -- fast smoke sizes
     dune exec bench/main.exe -- --only F2,F8 -- a subset
     dune exec bench/main.exe -- --jobs 4     -- parallel evaluation
     dune exec bench/main.exe -- --cache DIR  -- on-disk result cache
     dune exec bench/main.exe -- --json out/  -- machine-readable results
     dune exec bench/main.exe -- --perf       -- serial/parallel/warm timing
     dune exec bench/main.exe -- --no-bechamel
*)

module Experiments = Sdt_harness.Experiments
module Table = Sdt_harness.Table
module Run = Sdt_harness.Run
module Machine = Sdt_machine.Machine
module Meta = Sdt_harness.Meta
module Perfgate = Sdt_harness.Perfgate
module Pool = Sdt_par.Pool
module Telemetry = Sdt_par.Telemetry
module Jsonw = Sdt_observe.Jsonw

type options = {
  mutable size : Experiments.size;
  mutable only : string list option;
  mutable bechamel : bool;
  mutable csv_dir : string option;
  mutable json_dir : string option;
  mutable jobs : int;
  mutable cache_dir : string option;
  mutable perf : bool;
  mutable perf_exec : string option;
  mutable exec_mode : Machine.mode;
  mutable telemetry : string option;
  mutable check_perf : bool;
  mutable best_of : int;
  mutable tolerance : float;
  mutable baseline_dir : string;
  mutable trajectory : string;
}

(* parse one exec-mode name for [flag], exiting 2 on anything else *)
let parse_mode flag v =
  match Machine.mode_of_string v with
  | Ok m -> m
  | Error msg ->
      Printf.eprintf "%s: %s\n" flag msg;
      exit 2

(* one row per option: flag, value placeholder ("" = boolean), doc,
   handler — the usage string and the dispatch loop both derive from
   this table *)
let specs (o : options) =
  [
    ( "--size",
      "test|ref",
      "workload size (default ref)",
      fun v ->
        o.size <-
          (match v with
          | "test" -> `Test
          | "ref" -> `Ref
          | other ->
              Printf.eprintf "--size: expected test or ref, got %S\n" other;
              exit 2) );
    ( "--only",
      "IDS",
      "comma-separated experiment ids (e.g. T1,F2)",
      fun v -> o.only <- Some (String.split_on_char ',' v) );
    ( "--csv",
      "DIR",
      "write each table as CSV into DIR",
      fun v -> o.csv_dir <- Some v );
    ( "--json",
      "DIR",
      "write one BENCH_<id>.json per experiment into DIR",
      fun v -> o.json_dir <- Some v );
    ( "--jobs",
      "N",
      "worker domains for grid evaluation (0 = all cores; default 1; \
       clamped to the core count — oversubscribing domains on a \
       CPU-bound simulation only adds GC synchronisation)",
      fun v ->
        match int_of_string_opt v with
        | Some n when n >= 0 ->
            let cores = Pool.default_jobs () in
            if n > cores then
              Printf.eprintf "[--jobs %d clamped to %d core%s]\n%!" n cores
                (if cores = 1 then "" else "s");
            o.jobs <- (if n = 0 then cores else min n cores)
        | _ ->
            Printf.eprintf "--jobs: expected a non-negative integer, got %S\n" v;
            exit 2 );
    ( "--cache",
      "DIR",
      "persist simulation results to DIR and reuse them across runs",
      fun v -> o.cache_dir <- Some v );
    ( "--perf",
      "",
      "time the selected grid serial vs parallel vs warm-cache, then exit",
      fun _ -> o.perf <- true );
    ( "--perf-exec",
      "MODES",
      "time the selected grid cold-serial once per comma-separated \
       interpreter mode (step|block|block-nochain), report the \
       speedup matrix and the ratio against the committed \
       bench/baselines, then exit",
      fun v -> o.perf_exec <- Some v );
    ( "--exec-mode",
      String.concat "|" (List.map Machine.string_of_mode Machine.modes),
      "interpreter loop for simulated cells (default block; results are \
       bit-identical in every mode)",
      fun v -> o.exec_mode <- parse_mode "--exec-mode" v );
    ( "--no-bechamel",
      "",
      "skip the Bechamel wall-time measurements",
      fun _ -> o.bechamel <- false );
    ( "--telemetry",
      "DIR",
      "record harness telemetry and write DIR/trace.json (Chrome \
       trace_event, one track per worker domain), DIR/METRICS.json and \
       DIR/RUN_META.json on exit",
      fun v -> o.telemetry <- Some v );
    ( "--check-perf",
      "",
      "re-time the selected grid (cold, serial, best-of-N) against \
       bench/baselines, append a row to bench/trajectory.jsonl, and \
       exit non-zero on regression",
      fun _ -> o.check_perf <- true );
    ( "--best-of",
      "N",
      "repetitions per experiment for --check-perf; the minimum is \
       kept (default 3)",
      fun v ->
        match int_of_string_opt v with
        | Some n when n >= 1 -> o.best_of <- n
        | _ ->
            Printf.eprintf "--best-of: expected a positive integer, got %S\n" v;
            exit 2 );
    ( "--perf-tolerance",
      "F",
      "relative threshold for --check-perf: regress iff measured > \
       baseline * F + 0.05s (default 1.5)",
      fun v ->
        match float_of_string_opt v with
        | Some f when f > 0.0 -> o.tolerance <- f
        | _ ->
            Printf.eprintf
              "--perf-tolerance: expected a positive float, got %S\n" v;
            exit 2 );
    ( "--baseline-dir",
      "DIR",
      "where --check-perf reads BENCH_<id>.json baselines (default \
       bench/baselines)",
      fun v -> o.baseline_dir <- v );
    ( "--trajectory",
      "FILE",
      "where --check-perf appends its JSONL row (default \
       bench/trajectory.jsonl)",
      fun v -> o.trajectory <- v );
  ]

let usage specs =
  let b = Buffer.create 256 in
  Buffer.add_string b "usage: bench [options]\n";
  List.iter
    (fun (flag, value, doc, _) ->
      Buffer.add_string b
        (Printf.sprintf "  %-22s %s\n"
           (if value = "" then flag else flag ^ " " ^ value)
           doc))
    specs;
  Buffer.contents b

let parse_args () =
  let o =
    {
      size = `Ref;
      only = None;
      bechamel = true;
      csv_dir = None;
      json_dir = None;
      jobs = 1;
      cache_dir = None;
      perf = false;
      perf_exec = None;
      exec_mode = `Block;
      telemetry = None;
      check_perf = false;
      best_of = 3;
      tolerance = 1.5;
      baseline_dir = Filename.concat "bench" "baselines";
      trajectory = Filename.concat "bench" "trajectory.jsonl";
    }
  in
  let specs = specs o in
  let rec go = function
    | [] -> ()
    | arg :: rest -> (
        match List.find_opt (fun (flag, _, _, _) -> flag = arg) specs with
        | Some (_, "", _, handle) ->
            handle "";
            go rest
        | Some (flag, value, _, handle) -> (
            match rest with
            | v :: rest ->
                handle v;
                go rest
            | [] ->
                Printf.eprintf "%s needs a %s value\n%s" flag value
                  (usage specs);
                exit 2)
        | None ->
            Printf.eprintf "unknown argument %S\n%s" arg (usage specs);
            exit 2)
  in
  go (List.tl (Array.to_list Sys.argv));
  o

let selected only =
  match only with
  | None -> Experiments.experiments
  | Some ids ->
      List.filter_map
        (fun id ->
          match Experiments.find (String.trim id) with
          | Some e -> Some e
          | None ->
              Printf.eprintf "unknown experiment id %S; valid ids: %s\n" id
                (String.concat ", "
                   (List.map
                      (fun (e : Experiments.experiment) -> e.Experiments.id)
                      Experiments.experiments));
              exit 2)
        ids

let table_json (t : Table.t) =
  Jsonw.Obj
    [
      ("title", Jsonw.Str t.Table.title);
      ("note", Jsonw.Str t.Table.note);
      ("headers", Jsonw.List (List.map (fun h -> Jsonw.Str h) t.Table.headers));
      ( "rows",
        Jsonw.List
          (List.map
             (fun r -> Jsonw.List (List.map (fun c -> Jsonw.Str c) r))
             t.Table.rows) );
    ]

type cell_report = {
  r_cells : int;  (** unique grid cells *)
  r_simulated : int;  (** cells actually simulated this experiment *)
  r_cache_hits : int;  (** cells served from memory or disk *)
  r_mips : float;  (** simulated instructions / wall seconds, in millions *)
  r_counters : (string * int) list;
      (** the experiment's {!Run.counters} delta, in ledger order *)
}

let experiment_json (e : Experiments.experiment) size ~jobs seconds
    (r : cell_report) tables =
  Jsonw.Obj
    ([
       ("id", Jsonw.Str e.Experiments.id);
       ("title", Jsonw.Str e.Experiments.title);
       ("size", Jsonw.Str (match size with `Test -> "test" | `Ref -> "ref"));
       ("profile", Jsonw.Str Build_profile.name);
       ("jobs", Jsonw.Int jobs);
       ("seconds", Jsonw.Float seconds);
       ("cells", Jsonw.Int r.r_cells);
       ("simulated", Jsonw.Int r.r_simulated);
       ("cache_hits", Jsonw.Int r.r_cache_hits);
       ("mips", Jsonw.Float r.r_mips);
     ]
    @ List.map (fun (k, v) -> (k, Jsonw.Int v)) r.r_counters
    @ [ ("tables", Jsonw.List (List.map table_json tables)) ])

let now = Unix.gettimeofday

(* [f ()] and how much it grew each ledger counter. *)
let counting f =
  let c0 = Run.counters () in
  let x = f () in
  (x, List.map2 (fun (k, v1) (_, v0) -> (k, v1 - v0)) (Run.counters ()) c0)

(* Evaluate the grid through the pool, then assemble the tables (all
   cache lookups by construction). A cell is a "cache hit" when the
   memo already held it — from an earlier experiment in this run, or
   from the on-disk cache of a previous one. *)
let run_one pool size (e : Experiments.experiment) =
  let s0 = (Run.cache_stats ()).Run.simulated in
  let t0 = now () in
  let (cells, tables), counters =
    counting (fun () ->
        let cells = Experiments.evaluate ~pool size e in
        (cells, e.Experiments.run size))
  in
  let seconds = now () -. t0 in
  let simulated = (Run.cache_stats ()).Run.simulated - s0 in
  let instructions = List.assoc "instructions" counters in
  ( tables,
    seconds,
    {
      r_cells = cells;
      r_simulated = simulated;
      r_cache_hits = cells - simulated;
      r_mips = float_of_int instructions /. Float.max seconds 1e-9 /. 1e6;
      r_counters = counters;
    } )

let run_experiments pool size csv_dir json_dir exps =
  let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 in
  Option.iter ensure_dir csv_dir;
  Option.iter ensure_dir json_dir;
  let total_cells = ref 0 and total_sim = ref 0 and t_start = now () in
  List.iter
    (fun (e : Experiments.experiment) ->
      let tables, seconds, r = run_one pool size e in
      total_cells := !total_cells + r.r_cells;
      total_sim := !total_sim + r.r_simulated;
      List.iter Table.print tables;
      Option.iter
        (fun dir ->
          List.iteri
            (fun i t ->
              let path =
                Filename.concat dir
                  (Printf.sprintf "%s%s.csv" e.Experiments.id
                     (if i = 0 then "" else Printf.sprintf "_%d" i))
              in
              Out_channel.with_open_text path (fun oc ->
                  Out_channel.output_string oc (Table.to_csv t)))
            tables)
        csv_dir;
      Option.iter
        (fun dir ->
          let path =
            Filename.concat dir (Printf.sprintf "BENCH_%s.json" e.Experiments.id)
          in
          Out_channel.with_open_text path (fun oc ->
              Jsonw.to_channel oc
                (experiment_json e size ~jobs:(Pool.jobs pool) seconds r tables);
              output_char oc '\n'))
        json_dir;
      Printf.printf
        "[%s: %s — %.1fs, %d cells: %d simulated, %d cached, %d Minstrs, %.1f \
         MIPS]\n\n\
         %!"
        e.Experiments.id e.Experiments.title seconds r.r_cells r.r_simulated
        r.r_cache_hits
        (List.assoc "instructions" r.r_counters / 1_000_000)
        r.r_mips)
    exps;
  Printf.printf
    "== grid total: %.1fs wall, %d jobs, %d cells, %d simulated, %d served \
     from cache ==\n\n%!"
    (now () -. t_start) (Pool.jobs pool) !total_cells !total_sim
    (!total_cells - !total_sim)

(* --perf: three passes over the selected grid — cold serial, cold
   parallel, warm — and the ratios the ROADMAP cares about. The disk
   cache is left out so each cold pass really simulates. The serial
   pass also reports minor words allocated per simulated instruction
   (whole pass: simulation, translation and rendering); only there is
   the figure complete, since [Gc.minor_words] counts the calling
   domain alone. *)
let run_perf size jobs exps =
  Run.set_cache_dir None;
  let pass label pool =
    Run.clear_cache ();
    let i0 = Run.simulated_instructions () in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    List.iter
      (fun e ->
        ignore (Experiments.evaluate ?pool size e);
        ignore (e.Experiments.run size))
      exps;
    let dt = now () -. t0 in
    let di = Run.simulated_instructions () - i0 in
    let mi = float_of_int di /. 1e6 in
    Printf.printf "  %-28s %8.2fs  %7.0f Minstrs  %6.1f MIPS" label dt mi
      (mi /. Float.max dt 1e-9);
    if Option.is_none pool then
      Printf.printf "  %6.3f minor words/instr"
        ((Gc.minor_words () -. w0) /. float_of_int (max di 1));
    print_newline ();
    dt
  in
  Printf.printf "== perf: %d experiments, %s size ==\n%!" (List.length exps)
    (match size with `Test -> "test" | `Ref -> "ref");
  let serial = pass "serial (--jobs 1)" None in
  let parallel =
    Pool.with_pool ~jobs (fun p ->
        pass (Printf.sprintf "parallel (--jobs %d)" jobs) (Some p))
  in
  (* warm: do NOT clear the cache — every cell is a memo hit *)
  let t0 = now () in
  List.iter (fun e -> ignore (e.Experiments.run size)) exps;
  let warm = now () -. t0 in
  Printf.printf "  %-28s %8.2fs\n" "warm cache (render only)" warm;
  Printf.printf "  serial/parallel ratio: %.2fx\n" (serial /. parallel);
  Printf.printf "  serial/warm ratio:     %.0fx\n%!"
    (serial /. Float.max warm 1e-6);
  Printf.printf "  counters (all passes, nonzero):\n";
  List.iter
    (fun (k, v) -> if v <> 0 then Printf.printf "    %-22s %12d\n" k v)
    (Run.counters ());
  flush stdout

(* The committed baseline wall time for an experiment selection: the
   sum of the "seconds" fields of bench/baselines/BENCH_<id>.json, if
   every selected experiment has one. Those files are regenerated (and
   committed) by `make bench-json` on the same grid --perf-exec times,
   so the ratio is this tree versus the tree that committed them. *)
let baseline_seconds exps =
  let dir = Filename.concat "bench" "baselines" in
  List.fold_left
    (fun acc (e : Experiments.experiment) ->
      match acc with
      | None -> None
      | Some total -> (
          let path =
            Filename.concat dir
              (Printf.sprintf "BENCH_%s.json" e.Experiments.id)
          in
          if not (Sys.file_exists path) then None
          else
            match
              Jsonw.of_string
                (In_channel.with_open_text path In_channel.input_all)
            with
            | Ok doc -> (
                match Jsonw.member "seconds" doc with
                | Some (Jsonw.Float s) -> Some (total +. s)
                | Some (Jsonw.Int s) -> Some (total +. float_of_int s)
                | _ -> None)
            | Error _ -> None))
    (Some 0.) exps

(* --perf-exec: the same cold serial grid once per interpreter mode.
   The measured tables are bit-identical in every mode (enforced by the
   test suite); the ratios are the host-side speedups, and the chained
   pass is additionally compared against the committed baselines (the
   `make perf-chain` acceptance number). *)
let run_perf_exec size modes exps =
  Run.set_cache_dir None;
  let pass mode =
    Run.set_exec_mode mode;
    Run.clear_cache ();
    let i0 = Run.simulated_instructions () in
    let t0 = now () in
    List.iter
      (fun (e : Experiments.experiment) ->
        ignore (Experiments.evaluate size e);
        ignore (e.Experiments.run size))
      exps;
    let dt = now () -. t0 in
    let mi = float_of_int (Run.simulated_instructions () - i0) /. 1e6 in
    Printf.printf "  %-28s %8.2fs  %7.0f Minstrs  %6.1f MIPS\n%!"
      (Machine.string_of_mode mode) dt mi
      (mi /. Float.max dt 1e-9);
    (mode, dt)
  in
  Printf.printf "== perf-exec: %d experiments, %s size, serial ==\n%!"
    (List.length exps)
    (match size with `Test -> "test" | `Ref -> "ref");
  let times = List.map pass modes in
  Run.set_exec_mode `Block;
  let time_of m = List.assoc_opt m times in
  let ratio label a b =
    match (time_of a, time_of b) with
    | Some ta, Some tb -> Printf.printf "  %s %.2fx\n%!" label (ta /. tb)
    | _ -> ()
  in
  ratio "step/chained speedup:       " `Step `Block;
  ratio "step/nochain speedup:       " `Step `Block_nochain;
  ratio "nochain/chained speedup:    " `Block_nochain `Block;
  let against_baseline label mode =
    match (time_of mode, baseline_seconds exps) with
    | Some dt, Some base ->
        Printf.printf "  %s %.2fx  (%.2fs baseline)\n%!" label (base /. dt)
          base
    | Some _, None ->
        Printf.printf
          "  %s n/a (no bench/baselines entry for every selected \
           experiment)\n%!"
          label
    | None, _ -> ()
  in
  against_baseline "committed-baseline/chained:" `Block

(* --check-perf: the statistical regression gate (see Perfgate). Cold,
   serial, best-of-N per experiment so one noisy repetition can't fail
   the gate; verdicts against --baseline-dir; one provenance-stamped
   row appended to --trajectory; exit 1 naming the offenders. *)
let run_check_perf (o : options) exps =
  Run.set_cache_dir None;
  let size_str = match o.size with `Test -> "test" | `Ref -> "ref" in
  Printf.printf
    "== perf-check: %d experiments, %s size, %s, best of %d, tolerance %.2fx \
     ==\n%!"
    (List.length exps) size_str
    (Machine.string_of_mode o.exec_mode)
    o.best_of o.tolerance;
  if Build_profile.name <> "release" then
    Printf.printf
      "  warning: built under the %s profile; the baselines were recorded \
       under release and do not apply\n%!"
      Build_profile.name;
  (* Measure the way the baselines were recorded: one cold pass over
     the selection with the in-run memo shared across experiments
     (F8/F9 share a grid — clearing between experiments would time F9
     against a baseline that served every cell from cache). Best-of-N
     is then taken per experiment across whole passes. Each
     experiment's ledger delta from the first pass rides along in the
     trajectory row (later passes re-simulate the same cells). *)
  let pass () =
    Run.clear_cache ();
    List.map
      (fun (e : Experiments.experiment) ->
        let t0 = now () in
        let (), counters =
          counting (fun () ->
              ignore (Experiments.evaluate o.size e);
              ignore (e.Experiments.run o.size))
        in
        (e.Experiments.id, (now () -. t0, counters)))
      exps
  in
  let passes = List.init o.best_of (fun _ -> pass ()) in
  let measured =
    List.map
      (fun (e : Experiments.experiment) ->
        let id = e.Experiments.id in
        ( id,
          Perfgate.best_of
            (List.map (fun p -> fst (List.assoc id p)) passes) ))
      exps
  in
  let counters = List.map (fun (id, (_, c)) -> (id, c)) (List.hd passes) in
  let verdicts =
    Perfgate.check ~tolerance:o.tolerance
      ~baseline:(Perfgate.load_baseline ~dir:o.baseline_dir)
      measured
  in
  List.iter (fun v -> Format.printf "%a@." Perfgate.pp_verdict v) verdicts;
  let meta =
    Meta.to_json ~jobs:1
      ~exec_mode:(Machine.string_of_mode o.exec_mode)
      ~cache:"cold"
      ~extra:
        [
          ("size", Jsonw.Str size_str);
          ("best_of", Jsonw.Int o.best_of);
          ("profile", Jsonw.Str Build_profile.name);
        ]
      ()
  in
  Perfgate.append_trajectory ~file:o.trajectory
    (Perfgate.trajectory_row ~meta ~tolerance:o.tolerance ~counters verdicts);
  Printf.printf "  [trajectory row appended to %s]\n%!" o.trajectory;
  match Perfgate.regressions verdicts with
  | [] -> Printf.printf "  perf-check: ok\n%!"
  | rs ->
      Printf.printf "  perf-check: REGRESSED: %s\n%!"
        (String.concat ", "
           (List.map (fun v -> v.Perfgate.v_id) rs));
      exit 1

let rec mkdir_p dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* --telemetry DIR: install the global sink before any work and dump
   the trace on exit. Registered with at_exit so the files land even
   when --check-perf exits non-zero. *)
let dump_telemetry (o : options) dir sink =
  mkdir_p dir;
  Out_channel.with_open_text (Filename.concat dir "trace.json") (fun oc ->
      Telemetry.write_chrome oc sink);
  Out_channel.with_open_text (Filename.concat dir "METRICS.json") (fun oc ->
      Jsonw.to_channel oc (Telemetry.metrics_json sink);
      output_char oc '\n');
  Out_channel.with_open_text (Filename.concat dir "RUN_META.json") (fun oc ->
      Jsonw.to_channel oc
        (Meta.to_json ~jobs:o.jobs
           ~exec_mode:(Machine.string_of_mode o.exec_mode)
           ~cache:
             (match o.cache_dir with
             | None -> "memory"
             | Some d -> "disk:" ^ d)
           ~extra:
             [
               ( "size",
                 Jsonw.Str (match o.size with `Test -> "test" | `Ref -> "ref")
               );
               ("trace_events", Jsonw.Int (Telemetry.events sink));
               ( "ib_mechanisms",
                 let swept, a = Experiments.ib_mech_sweep () in
                 Meta.ib_mechanisms_json ~swept a );
             ]
           ());
      output_char oc '\n');
  Printf.printf "[telemetry: %d events -> %s]\n%!" (Telemetry.events sink) dir

(* One Bechamel test per experiment: each measures one end-to-end
   evaluation of that experiment at the smoke size (the experiments are
   deterministic simulations, so wall time per evaluation is the
   quantity of interest). *)
let bechamel_tests exps =
  let open Bechamel in
  List.map
    (fun (e : Experiments.experiment) ->
      Test.make ~name:e.Experiments.id
        (Staged.stage (fun () ->
             Run.clear_cache ();
             ignore (e.Experiments.run `Test))))
    exps

let run_bechamel exps =
  let open Bechamel in
  let open Toolkit in
  let tests = Test.make_grouped ~name:"experiments" (bechamel_tests exps) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:8 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline
    "== Bechamel: wall time per experiment evaluation (smoke size) ==";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | Some [] | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) -> Printf.printf "  %-28s %10.2f ms/run\n" name (ns /. 1e6))
    (List.sort compare !rows);
  print_newline ()

let () =
  let o = parse_args () in
  let exps = selected o.only in
  Run.set_exec_mode o.exec_mode;
  (match o.telemetry with
  | Some dir ->
      let sink = Telemetry.create () in
      Telemetry.install sink;
      at_exit (fun () -> dump_telemetry o dir sink)
  | None -> ());
  if o.check_perf then begin
    run_check_perf o exps;
    exit 0
  end;
  (match o.perf_exec with
  | Some spec ->
      let modes =
        List.map
          (fun s -> parse_mode "--perf-exec" (String.trim s))
          (String.split_on_char ',' spec)
      in
      run_perf_exec o.size modes exps;
      exit 0
  | None -> ());
  if o.perf then run_perf o.size (max 2 o.jobs) exps
  else begin
    Run.set_cache_dir o.cache_dir;
    Printf.printf
      "SDT indirect-branch mechanism evaluation (%s size, %d experiments, %d \
       jobs%s)\n\n%!"
      (match o.size with `Test -> "test" | `Ref -> "ref")
      (List.length exps) o.jobs
      (match o.cache_dir with
      | None -> ""
      | Some d -> Printf.sprintf ", cache %s" d);
    Pool.with_pool ~jobs:o.jobs (fun pool ->
        run_experiments pool o.size o.csv_dir o.json_dir exps);
    if o.bechamel then run_bechamel exps
  end
