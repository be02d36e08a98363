(* The repository benchmark: one process per (workload, seed) run.

     bench.exe --workload steady|grid|serve-churn --seed N --seconds S
               --trace 0|1

   Sets the workload up several times (the median is [setup_s]), runs
   measured repetitions for S seconds, checks every guest result, and
   prints one JSON object as its last line: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1]. A traced run
   also writes a Chrome trace of one traced repetition to [trace_dir].
   [--selftest] checks the benchmark itself (see selftest below). *)

module Run = Sdt_harness.Run
module Telemetry = Sdt_par.Telemetry
module Jsonw = Sdt_observe.Jsonw

let workloads =
  [ ("steady", Steady.setup); ("grid", Grid.setup); ("serve-churn", Churn.setup) ]

(* name, unit — the order they are printed in *)
let end_to_end =
  [
    ("setup_s", "s");
    ("mips", "Minstr/s");
    ("cells_per_s", "1/s");
    ("jobs_per_s", "1/s");
    ("sim_p50_kcycles", "kcycles");
    ("sim_p95_kcycles", "kcycles");
    ("sim_slowdown_geomean", "x");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("workloads.build_ms", "ms");
    ("machine.load_ms", "ms");
    ("machine.block_decodes", "count");
    ("machine.refresh_decodes", "count");
    ("machine.refresh_ratio", "ratio");
    ("machine.decodes_per_minstr", "1/Minstr");
    ("machine.chain_hits_per_kinstr", "1/kinstr");
    ("march.host_ns_per_instr", "ns");
    ("march.minor_words_per_instr", "words");
    ("march.icache_misses_per_kinstr", "1/kinstr");
    ("march.dcache_misses_per_kinstr", "1/kinstr");
    ("march.ind_misp_per_kinstr", "1/kinstr");
    ("core.create_ms", "ms");
    ("core.blocks_translated", "count");
    ("core.links", "count");
    ("core.ib_misses", "count");
    ("core.flushes", "count");
    ("core.traps_per_minstr", "1/Minstr");
    ("harness.evaluate_s", "s");
    ("harness.render_s", "s");
    ("harness.cells_simulated", "count");
    ("harness.memo_hits", "count");
    ("harness.memo_hit_ratio", "ratio");
    ("par.worker_busy_share", "ratio");
    ("par.scaling", "x");
    ("serve.epochs", "count");
    ("serve.quantum_busy_s", "s");
    ("serve.barrier_s", "s");
    ("serve.evictions", "count");
    ("serve.flushes", "count");
    ("serve.flush_marks", "count");
    ("serve.dedup_hits", "count");
    ("serve.latency_samples", "count");
    ("gc.minor_words_per_instr", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("observe.trace_overhead", "x");
  ]

(* numbers that depend only on the simulated programs: two runs with
   the same seed must print them identically (the selftest checks) *)
let deterministic =
  [
    "sim_p50_kcycles"; "sim_p95_kcycles"; "sim_slowdown_geomean";
    "machine.block_decodes"; "machine.refresh_decodes"; "machine.refresh_ratio";
    "machine.decodes_per_minstr"; "machine.chain_hits_per_kinstr";
    "march.minor_words_per_instr"; "march.icache_misses_per_kinstr";
    "march.dcache_misses_per_kinstr"; "march.ind_misp_per_kinstr";
    "core.blocks_translated"; "core.links"; "core.ib_misses"; "core.flushes";
    "core.traps_per_minstr"; "harness.cells_simulated"; "harness.memo_hits";
    "harness.memo_hit_ratio"; "serve.epochs"; "serve.evictions";
    "serve.flushes"; "serve.flush_marks"; "serve.dedup_hits";
    "serve.latency_samples"; "gc.minor_words_per_instr";
  ]

(* environment variables that would silently change the interpreter
   loop or the IB policy under test *)
let pinned = [ "SDT_CFI"; "SDT_EXEC_MODE" ]

(* set-ups per run; the selftest size keeps the suite fast *)
let setups = function Workload.Full -> 21 | Workload.Quick -> 3

(* where a traced run writes its Chrome trace, from the repository root *)
let trace_dir = "perfbench/out"

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  det : string option;  (** file to write the deterministic numbers to *)
  opts : Workload.opts;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload steady|grid|serve-churn --seed N --seconds S \
     --trace 0|1 [--det FILE] [--quick]\n\
    \       bench.exe --selftest";
  exit 2

(* the value after the first [key] *)
let rec flag argv key =
  match argv with
  | k :: v :: _ when k = key -> Some v
  | _ :: rest -> flag rest key
  | [] -> None

(* ------------------------------------------------------------------ *)
(* One run *)

let run a =
  let setup = List.assoc a.workload workloads in
  let sink = if a.trace then Some (Telemetry.create ()) else None in
  let setups = setups a.opts.Workload.scale in
  (* set up [setups] times; the last instance is kept (and, in a traced
     run, recorded into the trace) *)
  let rec set_up k acc =
    (* every set-up starts from a settled heap *)
    Gc.full_major ();
    if k = setups then Option.iter Telemetry.install sink;
    let inst, t = Measure.timed (fun () -> setup a.opts) in
    Telemetry.uninstall ();
    if k = setups then (inst, List.rev ((t, inst.Workload.build_ms) :: acc))
    else (
      inst.Workload.teardown ();
      set_up (k + 1) ((t, inst.Workload.build_ms) :: acc))
  in
  let inst, setup_times = set_up 1 [] in
  let t_start = Measure.now () in
  (* start a repetition only if one more, as long as the last, still
     ends within [a.seconds]; there is always at least one *)
  let rec measure acc =
    let left = a.seconds -. (Measure.now () -. t_start) in
    match acc with
    | last :: _ when left < last.Measure.wall -> List.rev acc
    | _ ->
        Gc.full_major ();
        measure (inst.Workload.rep () :: acc)
  in
  let reps = measure [] in
  let rss = Measure.peak_rss_mb () in
  let first = List.hd reps in
  let med f = Measure.median (List.map f reps) in
  let attempted = List.fold_left (fun n r -> n + r.Measure.units) 0 reps in
  let failed = List.fold_left (fun n r -> n + r.Measure.failed) 0 reps in
  let det = first.Measure.det in
  let metrics =
    if not a.trace then
      [
        ("setup_s", Measure.median (List.map fst setup_times));
        ("mips",
         med (fun r -> Measure.ratio (float_of_int r.Measure.instrs /. 1e6) r.Measure.wall));
        ("cells_per_s", med (fun r -> Measure.ratio (float_of_int r.Measure.units) r.Measure.wall));
        ("jobs_per_s", med (fun r -> Measure.ratio (float_of_int r.Measure.jobs) r.Measure.exec));
        ("peak_rss_mb", rss);
      ]
      @ det
    else begin
      let extras = inst.Workload.extras reps in
      let sink = Option.get sink in
      Telemetry.install sink;
      let traced = inst.Workload.rep () in
      let probe = inst.Workload.probe () in
      Telemetry.uninstall ();
      let spans = Measure.spans sink in
      let file = Printf.sprintf "%s-seed%d.trace.json" a.workload a.seed in
      let path = Measure.write_trace ~dir:trace_dir ~file sink in
      Printf.eprintf "perfbench: Chrome trace -> %s\n" path;
      List.iter
        (fun (layer, s) -> Printf.eprintf "  self time %-10s %8.3f s\n" layer s)
        (Measure.self_time_by_layer spans);
      [
        ("workloads.build_ms", Measure.median (List.map snd setup_times));
        ("harness.evaluate_s", med (fun r -> r.Measure.evaluate));
        ("harness.render_s", med (fun r -> r.Measure.render));
        ("gc.minor_collections", med (fun r -> float_of_int r.Measure.gc.Measure.minors));
        ("gc.major_collections", med (fun r -> float_of_int r.Measure.gc.Measure.majors));
        ("observe.trace_overhead",
         Measure.ratio traced.Measure.wall (med (fun r -> r.Measure.wall)));
      ]
      @ det @ extras @ probe
      @ inst.Workload.traced traced spans
    end
  in
  inst.Workload.teardown ();
  let listed = if a.trace then per_layer else end_to_end in
  let value name =
    (* later sources win; a layer the workload does not reach reads 0 *)
    List.fold_left
      (fun v (k, x) -> if k = name then x else v)
      0.0 metrics
  in
  let printed = List.map (fun (name, unit) -> (name, unit, value name)) listed in
  Option.iter
    (fun file ->
      Out_channel.with_open_text file (fun oc ->
          List.iter
            (fun name ->
              match List.assoc_opt name (det @ metrics) with
              | Some v -> Printf.fprintf oc "%s %.17g\n" name v
              | None -> ())
            deterministic))
    a.det;
  let secs l = String.concat " " (List.map (Printf.sprintf "%.3f") l) in
  Printf.eprintf
    "perfbench: %s seed %d: set-ups (%s s), repetitions (%s s), %d/%d units \
     failed\n"
    a.workload a.seed
    (secs (List.map fst setup_times))
    (secs (List.map (fun r -> r.Measure.wall) reps))
    failed attempted;
  (* a wrong guest result is reported through [correct], not the exit
     code: the run itself completed *)
  print_endline
    (Measure.result_line ~correct:(failed = 0) ~attempted ~failed printed)

(* ------------------------------------------------------------------ *)
(* Selftest: every workload at the quick size, twice with one seed.
   The deterministic numbers must repeat exactly, every printed name
   must be well formed and match BENCHMARK.json, and every guest
   result must check. Under a pinned variable (the test suite also
   runs with SDT_CFI or SDT_EXEC_MODE set) the benchmark must refuse
   to run, and that is all there is to check. *)

let selftest () =
  let exe = Sys.executable_name in
  let declared =
    let path = "BENCHMARK.json" in
    match Jsonw.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Error e -> failwith (path ^ ": " ^ e)
    | Ok doc -> (
        fun key ->
          match Jsonw.member key doc with
          | Some (Jsonw.List l) ->
              List.sort compare
                (List.filter_map
                   (fun m ->
                     match Jsonw.member "name" m with
                     | Some (Jsonw.Str s) -> Some s
                     | _ -> None)
                   l)
          | _ -> [])
  in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let read f = In_channel.with_open_text f In_channel.input_all in
  (* one child run; its stdout and stderr land in [tag].out / [tag].err *)
  let child tag args =
    let fd f = Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let o = fd (tag ^ ".out") and e = fd (tag ^ ".err") in
    let pid =
      Unix.create_process exe (Array.of_list (exe :: "--quick" :: args)) Unix.stdin o e
    in
    Unix.close o;
    Unix.close e;
    let _, status = Unix.waitpid [] pid in
    (status, String.trim (read (tag ^ ".out")))
  in
  let run_args w trace tag =
    [ "--workload"; w; "--seed"; "7"; "--seconds"; "0"; "--trace"; trace;
      "--det"; tag ^ ".det" ]
  in
  (match List.filter (fun v -> Sys.getenv_opt v <> None) pinned with
  | v :: _ -> (
      match child "selftest-pinned" (run_args "steady" "0" "selftest-pinned") with
      | Unix.WEXITED 2, "" -> ()
      | _ -> fail "ran with %s set" v)
  | [] ->
      List.iter
        (fun (w, _) ->
          List.iter
            (fun (tag, trace, key) ->
              let tag = Printf.sprintf "selftest-%s-%s" w tag in
              let status, out = child tag (run_args w trace tag) in
              let lines = String.split_on_char '\n' out in
              match (status, Jsonw.of_string (List.nth lines (List.length lines - 1))) with
              | Unix.WEXITED 0, Ok doc
                when Jsonw.member "correct" doc = Some (Jsonw.Bool true) ->
                  let names =
                    match Jsonw.member "metrics" doc with
                    | Some (Jsonw.Obj kvs) -> List.map fst kvs
                    | _ -> []
                  in
                  List.iter
                    (fun n -> if not (Measure.name_ok n) then fail "%s: bad name %S" tag n)
                    names;
                  if List.sort compare names <> declared key then
                    fail "%s: metrics differ from %s in BENCHMARK.json" tag key
              | _ -> fail "%s: failed or incorrect\n%s" tag (read (tag ^ ".err")))
            [ ("e2e", "0", "end_to_end"); ("layers-1", "1", "per_layer");
              ("layers-2", "1", "per_layer") ];
          let det n = read (Printf.sprintf "selftest-%s-layers-%d.det" w n) in
          if det 1 <> det 2 then
            fail "%s: deterministic numbers differ between runs\n%s---\n%s" w (det 1)
              (det 2))
        workloads);
  List.iter prerr_endline (List.rev !problems);
  if !problems = [] then 0 else 1

(* ------------------------------------------------------------------ *)

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  if List.mem "--selftest" argv then exit (selftest ());
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then (
        Printf.eprintf "perfbench: refusing to run with %s set\n" v;
        exit 2))
    pinned;
  (* the same minor heap as the bench harness; set before any domain
     spawns so pool workers inherit it *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  Run.set_exec_mode Workload.mode;
  Run.set_cache_dir None;
  let workload = Option.value ~default:"" (flag argv "--workload") in
  if not (List.mem_assoc workload workloads) then usage ();
  let trace =
    match flag argv "--trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some _ -> usage ()
  in
  let seconds =
    match Option.map float_of_string_opt (flag argv "--seconds") with
    | None -> 10.0
    | Some (Some s) when s >= 0.0 -> s
    | Some _ -> usage ()
  in
  let seed =
    match Option.map int_of_string_opt (flag argv "--seed") with
    | None -> 1
    | Some (Some n) -> n
    | Some None -> usage ()
  in
  let a =
    {
      workload;
      seed;
      seconds;
      trace;
      det = flag argv "--det";
      opts =
        {
          Workload.seed;
          scale = (if List.mem "--quick" argv then Workload.Quick else Workload.Full);
        };
    }
  in
  run a
