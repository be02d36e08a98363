(* Tests for the harness: summaries, table rendering, run drivers with
   their correctness oracle, and smoke evaluation of every experiment at
   the fast size. *)

module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Machine = Sdt_machine.Machine
module Config = Sdt_core.Config
module Stats = Sdt_core.Stats
module Runtime = Sdt_core.Runtime
module Synthetic = Sdt_workloads.Synthetic
module Serve = Sdt_serve.Serve
module Suite = Sdt_workloads.Suite
module Run = Sdt_harness.Run
module Summary = Sdt_harness.Summary
module Table = Sdt_harness.Table
module Experiments = Sdt_harness.Experiments
module Meta = Sdt_harness.Meta
module Perfgate = Sdt_harness.Perfgate
module Jsonw = Sdt_observe.Jsonw
module Pool = Sdt_par.Pool

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let feq msg a b = check bool msg true (abs_float (a -. b) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Summary *)

let test_geomean () =
  feq "empty" 1.0 (Summary.geomean []);
  feq "singleton" 2.0 (Summary.geomean [ 2.0 ]);
  feq "pair" 2.0 (Summary.geomean [ 1.0; 4.0 ]);
  feq "order independent"
    (Summary.geomean [ 1.5; 2.5; 3.5 ])
    (Summary.geomean [ 3.5; 1.5; 2.5 ])

let test_means_and_rates () =
  feq "mean" 2.0 (Summary.mean [ 1.0; 2.0; 3.0 ]);
  feq "mean empty" 0.0 (Summary.mean []);
  feq "per_mille" 500.0 (Summary.per_mille 1 2);
  feq "per_mille zero denom" 0.0 (Summary.per_mille 5 0);
  feq "pct" 25.0 (Summary.pct 1 4);
  check Alcotest.string "millions" "1.23M" (Summary.millions 1_230_000);
  check Alcotest.string "f2" "1.50" (Summary.f2 1.5)

let prop_geomean_bounds =
  QCheck.Test.make ~count:200 ~name:"geomean between min and max"
    QCheck.(list_of_size Gen.(int_range 1 10) (float_range 0.1 100.0))
    (fun xs ->
      let g = Summary.geomean xs in
      let lo = List.fold_left min infinity xs in
      let hi = List.fold_left max neg_infinity xs in
      g >= lo -. 1e-9 && g <= hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t =
    Table.make ~title:"demo" ~note:"a note"
      ~headers:[ "name"; "value" ]
      [ [ "alpha"; "1.00" ]; [ "longer-name"; "12.34" ] ]
  in
  let s = Table.render t in
  check bool "has title" true
    (String.length s > 0
    && String.sub s 0 7 = "== demo");
  (* numeric cells right-aligned: "12.34" ends its column *)
  let lines = String.split_on_char '\n' s in
  check bool "all rows present" true (List.length lines >= 5);
  let row =
    List.find
      (fun l -> String.length l >= 5 && String.sub l 0 5 = "alpha")
      lines
  in
  check bool "alpha row mentions value" true
    (String.length row >= String.length "alpha  1.00")

let test_table_csv () =
  let t =
    Table.make ~title:"c" ~headers:[ "a"; "b" ]
      [ [ "x,y"; "1" ]; [ "q\"z"; "2" ] ]
  in
  let csv = Table.to_csv t in
  check Alcotest.string "csv escaping" "a,b\n\"x,y\",1\n\"q\"\"z\",2\n" csv

let test_table_ragged_rows () =
  (* rows shorter than the header list must render without exception *)
  let t = Table.make ~title:"r" ~headers:[ "a"; "b"; "c" ] [ [ "x" ] ] in
  check bool "renders" true (String.length (Table.render t) > 0)

(* ------------------------------------------------------------------ *)
(* Run *)

let entry name = Option.get (Suite.find name)

let test_native_memoised () =
  Run.clear_cache ();
  let e = entry "gzip" in
  let calls = ref 0 in
  let build () =
    incr calls;
    Suite.program e `Test
  in
  let a = Run.native ~arch:Arch.arch_a ~key:"memo-test" build in
  let b = Run.native ~arch:Arch.arch_a ~key:"memo-test" build in
  check int "built once" 1 !calls;
  check int "same cycles" a.Run.n_cycles b.Run.n_cycles;
  (* a different arch is a different cache line *)
  let _ = Run.native ~arch:Arch.arch_b ~key:"memo-test" build in
  check int "rebuilt for other arch" 2 !calls

let test_sdt_result_sane () =
  Run.clear_cache ();
  let e = entry "gcc" in
  let build () = Suite.program e `Test in
  let s = Run.sdt ~arch:Arch.arch_a ~cfg:Config.default ~key:"sane" build in
  check bool "slowdown > 1" true (s.Run.slowdown > 1.0);
  check bool "slowdown < 30" true (s.Run.slowdown < 30.0);
  check bool "code emitted" true (s.Run.s_code_bytes > 0);
  check bool "runtime cycles subset" true
    (s.Run.s_runtime_cycles < s.Run.s_cycles)

let test_mismatch_detected () =
  Run.clear_cache ();
  let e = entry "gzip" in
  (* lie to the harness: native cached under this key is for a
     different program, so the SDT run must be flagged as divergent *)
  let _ =
    Run.native ~arch:Arch.arch_a ~key:"divergent" (fun () ->
        Suite.program (entry "mcf") `Test)
  in
  check bool "mismatch raises" true
    (match
       Run.sdt ~arch:Arch.arch_a ~cfg:Config.default ~key:"divergent"
         (fun () -> Suite.program e `Test)
     with
    | exception Run.Mismatch _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Parallel evaluation and caching *)

(* a generator of arbitrary-but-valid SDT configurations, for the
   determinism property: whatever the mechanism, the jobs count must
   not change any reported number *)
let config_gen =
  let open QCheck.Gen in
  let pow2 lo hi = map (fun e -> 1 lsl e) (int_range lo hi) in
  let ibtc_gen =
    let* entries = pow2 5 12 in
    let* ways = oneofl [ 1; 2 ] in
    let* shared = bool in
    let* per_site_entries = pow2 2 5 in
    let* miss = oneofl [ Config.Full_switch; Config.Fast_reload ] in
    let* hash = oneofl [ Config.Shift_mask; Config.Multiplicative ] in
    let* inline_lookup = bool in
    return
      (Config.Ibtc
         { Config.entries; ways; shared; per_site_entries; miss; hash;
           inline_lookup })
  in
  let sieve_gen =
    let* buckets = pow2 5 12 in
    let* insert_at_head = bool in
    return (Config.Sieve { Config.buckets; insert_at_head })
  in
  let* mech = oneof [ return Config.Dispatch; ibtc_gen; sieve_gen ] in
  let* returns =
    oneof
      [
        return Config.As_ib;
        map (fun e -> Config.Return_cache { entries = 1 lsl e }) (int_range 4 10);
        map (fun d -> Config.Shadow_stack { depth = d }) (int_range 4 64);
        return Config.Fast_return;
      ]
  in
  let* pred_depth = int_range 0 4 in
  let* link_direct = bool in
  let cfg =
    { Config.default with Config.mech; returns; pred_depth; link_direct }
  in
  (* keep only mechanism/return combinations the translator accepts *)
  return
    (match Config.validate cfg with
    | Ok () -> cfg
    | Error _ -> { cfg with Config.returns = Config.As_ib })

let sdt_results cfg jobs =
  (* evaluate two workloads through a pool of the given width, then
     read every result back out of the cache *)
  let entries = List.map entry [ "gzip"; "mcf" ] in
  Run.clear_cache ();
  Pool.with_pool ~jobs (fun pool ->
      Pool.iter pool
        (fun e ->
          ignore
            (Run.sdt ~arch:Arch.arch_a ~cfg ~key:e.Suite.name (fun () ->
                 Suite.program e `Test)))
        (Array.of_list entries));
  List.map
    (fun e ->
      Run.sdt ~arch:Arch.arch_a ~cfg ~key:e.Suite.name (fun () ->
          Suite.program e `Test))
    entries

let prop_jobs_invariant =
  QCheck.Test.make ~count:6
    ~name:"random config: jobs in {1,2,4} give identical results"
    (QCheck.make config_gen ~print:Config.describe)
    (fun cfg ->
      let serial = sdt_results cfg 1 in
      List.for_all (fun jobs -> sdt_results cfg jobs = serial) [ 2; 4 ])

let render_all tables = String.concat "\n" (List.map Table.render tables)

let test_tables_jobs_invariant () =
  let e = Option.get (Experiments.find "F3") in
  let render jobs =
    Run.clear_cache ();
    Pool.with_pool ~jobs (fun pool ->
        ignore (Experiments.evaluate ~pool `Test e));
    render_all (e.Experiments.run `Test)
  in
  let serial = render 1 in
  List.iter
    (fun jobs ->
      check Alcotest.string
        (Printf.sprintf "jobs=%d tables byte-identical" jobs)
        serial (render jobs))
    [ 2; 4 ]

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdt_harness_test.%d.%.0f" (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then (
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir))
    (fun () -> f dir)

let test_warm_disk_cache_reproduces_cold () =
  let e = Option.get (Experiments.find "F3") in
  with_temp_dir (fun dir ->
      Fun.protect
        ~finally:(fun () ->
          Run.set_cache_dir None;
          Run.clear_cache ())
        (fun () ->
          Run.set_cache_dir (Some dir);
          Run.clear_cache ();
          ignore (Experiments.evaluate `Test e);
          let cold = render_all (e.Experiments.run `Test) in
          let st = Run.cache_stats () in
          check bool "cold run simulated something" true (st.Run.simulated > 0);
          (* drop the in-memory level; the disk level must now carry
             the whole experiment and reproduce it byte for byte *)
          Run.clear_cache ();
          ignore (Experiments.evaluate `Test e);
          let warm = render_all (e.Experiments.run `Test) in
          let st = Run.cache_stats () in
          check int "warm run simulated nothing" 0 st.Run.simulated;
          check bool "served from disk" true (st.Run.disk_hits > 0);
          check Alcotest.string "warm reproduces cold byte-identically" cold
            warm))

(* ------------------------------------------------------------------ *)
(* Experiments *)

let test_registry () =
  check int "18 experiments" 18 (List.length Experiments.experiments);
  check bool "find T1" true (Experiments.find "t1" <> None);
  check bool "find F8" true (Experiments.find "F8" <> None);
  check bool "find F10" true (Experiments.find "F10" <> None);
  check bool "unknown" true (Experiments.find "Z9" = None)

let experiment_cases =
  List.map
    (fun (e : Experiments.experiment) ->
      Alcotest.test_case
        (Printf.sprintf "%s renders" e.Experiments.id)
        `Slow
        (fun () ->
          Run.clear_cache ();
          (* the declared grid must cover every cell the renderer asks
             for: after [evaluate], [run] is pure cache lookups *)
          let cells = Experiments.evaluate `Test e in
          check bool "grid non-empty" true (cells > 0);
          let simulated_by_grid = (Run.cache_stats ()).Run.simulated in
          let tables = e.Experiments.run `Test in
          check int "grid covers the renderer"
            simulated_by_grid
            (Run.cache_stats ()).Run.simulated;
          check bool "at least one table" true (List.length tables >= 1);
          List.iter
            (fun t ->
              let s = Table.render t in
              check bool "non-empty render" true (String.length s > 100);
              check bool "has rows" true (List.length t.Table.rows >= 5))
            tables))
    Experiments.experiments

(* ------------------------------------------------------------------ *)
(* The perf-regression gate, against synthetic baselines: both the
   clean-pass path and the injected-slowdown path with its named
   offender, plus the file-level pieces (baseline loading, trajectory
   appending) through a temp dir. *)

let synthetic_baseline alist id = List.assoc_opt id alist

let test_perfgate_best_of () =
  feq "minimum wins" 0.5 (Perfgate.best_of [ 1.2; 0.5; 0.9 ]);
  feq "singleton" 2.0 (Perfgate.best_of [ 2.0 ]);
  match Perfgate.best_of [] with
  | _ -> Alcotest.fail "empty accepted"
  | exception Invalid_argument _ -> ()

let test_perfgate_pass_and_fail () =
  let baseline = synthetic_baseline [ ("T1", 1.0); ("F2", 2.0) ] in
  (* clean: both within tolerance *)
  let ok =
    Perfgate.check ~tolerance:1.5 ~baseline [ ("T1", 1.2); ("F2", 2.9) ]
  in
  check int "no regressions" 0 (List.length (Perfgate.regressions ok));
  check bool "all ok" true
    (List.for_all (fun v -> v.Perfgate.v_status = Perfgate.Ok) ok);
  (* injected slowdown on F2 only: the verdict names the offender *)
  let bad =
    Perfgate.check ~tolerance:1.5 ~baseline [ ("T1", 1.2); ("F2", 10.0) ]
  in
  (match Perfgate.regressions bad with
  | [ v ] ->
      check Alcotest.string "offender named" "F2" v.Perfgate.v_id;
      feq "ratio" 5.0 v.Perfgate.v_ratio
  | l -> Alcotest.failf "expected exactly F2, got %d regressions"
           (List.length l));
  (* absolute slack: smoke cells in the noise band never regress *)
  let tiny =
    Perfgate.check ~tolerance:1.0 ~abs_slack:0.05
      ~baseline:(synthetic_baseline [ ("T1", 0.001) ])
      [ ("T1", 0.04) ]
  in
  check int "within slack" 0 (List.length (Perfgate.regressions tiny));
  (* no baseline is never a failure *)
  let fresh =
    Perfgate.check ~tolerance:1.5 ~baseline:(fun _ -> None)
      [ ("NEW", 9.9) ]
  in
  check bool "no-baseline status" true
    (List.for_all (fun v -> v.Perfgate.v_status = Perfgate.No_baseline) fresh);
  check int "no-baseline never regresses" 0
    (List.length (Perfgate.regressions fresh))

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdt_gate_test.%d.%.0f" (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then (
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir))
    (fun () -> f dir)

let test_perfgate_files () =
  with_temp_dir (fun dir ->
      (* baseline loading: present, absent, and garbage files *)
      Out_channel.with_open_text (Filename.concat dir "BENCH_T1.json")
        (fun oc -> output_string oc {|{"id":"T1","seconds":1.5}|});
      Out_channel.with_open_text (Filename.concat dir "BENCH_F9.json")
        (fun oc -> output_string oc "{not json");
      check bool "seconds loaded" true
        (Perfgate.load_baseline ~dir "T1" = Some 1.5);
      check bool "missing file" true (Perfgate.load_baseline ~dir "F2" = None);
      check bool "garbage file" true (Perfgate.load_baseline ~dir "F9" = None);
      (* trajectory: two appended rows, each its own parseable line
         carrying the provenance record and the regression flag *)
      let file = Filename.concat dir "trajectory.jsonl" in
      let meta =
        Meta.to_json ~jobs:1 ~exec_mode:"block" ~cache:"cold" ()
      in
      let verdicts =
        Perfgate.check ~tolerance:1.5
          ~baseline:(synthetic_baseline [ ("T1", 1.0) ])
          [ ("T1", 9.0) ]
      in
      let row = Perfgate.trajectory_row ~meta ~tolerance:1.5 verdicts in
      Perfgate.append_trajectory ~file row;
      Perfgate.append_trajectory ~file row;
      let lines =
        In_channel.with_open_text file In_channel.input_lines
        |> List.filter (fun l -> String.trim l <> "")
      in
      check int "one line per gate run" 2 (List.length lines);
      List.iter
        (fun line ->
          match Jsonw.of_string line with
          | Error e -> Alcotest.failf "unparseable row: %s" e
          | Ok doc -> (
              check bool "regressed flag" true
                (Jsonw.member "regressed" doc = Some (Jsonw.Bool true));
              (match Jsonw.member "meta" doc with
              | Some (Jsonw.Obj fields) ->
                  check bool "provenance has host" true
                    (List.mem_assoc "host" fields);
                  check bool "provenance has exec_mode" true
                    (List.mem_assoc "exec_mode" fields)
              | _ -> Alcotest.fail "meta shape");
              match Jsonw.member "experiments" doc with
              | Some (Jsonw.List [ _ ]) -> ()
              | _ -> Alcotest.fail "experiments shape"))
        lines)

let test_meta_provenance () =
  (* running from the build tree, .git is found by walking up *)
  (match Meta.git_sha () with
  | Some sha ->
      check int "sha length" 40 (String.length sha);
      check bool "sha is hex" true
        (String.for_all
           (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
           sha)
  | None -> ());
  check bool "hostname non-empty" true (String.length (Meta.hostname ()) > 0);
  match Meta.to_json ~jobs:3 ~exec_mode:"step" ~cache:"warm" () with
  | Jsonw.Obj fields ->
      check bool "jobs" true (List.assoc_opt "jobs" fields = Some (Jsonw.Int 3));
      check bool "exec_mode" true
        (List.assoc_opt "exec_mode" fields = Some (Jsonw.Str "step"));
      check bool "unix_time present" true (List.mem_assoc "unix_time" fields)
  | _ -> Alcotest.fail "meta json shape"

(* ------------------------------------------------------------------ *)
(* Counter ledger *)

let stat_names = List.map fst (Stats.to_assoc (Stats.create ()))

let prop_stats_assoc_roundtrip =
  QCheck.Test.make ~count:200 ~name:"Stats.of_assoc inverts to_assoc"
    QCheck.(list_of_size (Gen.return (List.length stat_names)) int)
    (fun vs ->
      let kvs = List.combine stat_names vs in
      let s = Stats.of_assoc kvs in
      let v name = List.assoc name kvs in
      Stats.to_assoc s = kvs
      && Stats.to_assoc (Stats.of_assoc (Stats.to_assoc s)) = kvs
      (* the table binds each name to its own field *)
      && s.Stats.blocks_translated = v "blocks_translated"
      && s.Stats.adapt_repatches = v "adapt_repatches"
      && s.Stats.cfi_xcalls = v "cfi_xcalls"
      && Stats.total_ib_misses s
         = v "dispatch_entries" + v "ibtc_misses_full" + v "ibtc_misses_fast"
           + v "sieve_misses" + v "retcache_fallbacks" + v "shadow_fallbacks"
      && (Stats.reset s;
          List.for_all (fun (_, n) -> n = 0) (Stats.to_assoc s)))

let ledger_delta f =
  let c0 = Run.counters () in
  let x = f () in
  (x, List.map2 (fun (k, v1) (_, v0) -> (k, v1 - v0)) (Run.counters ()) c0)

let get kvs k = Option.value ~default:0 (List.assoc_opt k kvs)
let all_zero kvs = List.for_all (fun (_, v) -> v = 0) kvs

(* One SDT cell adds exactly what its machine and translator counted —
   checked against the same cell run outside the harness — and a memo
   hit of it adds nothing. *)
let test_ledger_sdt_cell () =
  Run.clear_cache ();
  let arch = Arch.arch_a in
  let cfg =
    {
      Config.default with
      Config.mech = Config.Adaptive Config.default_adaptive;
      cfi = Config.Cfi_landing_pad;
    }
  in
  let build () = Suite.program (entry "perlbmk") `Test in
  let key = "ledger:perlbmk" in
  ignore (Run.native ~arch ~key build);
  let _, delta = ledger_delta (fun () -> Run.sdt ~arch ~cfg ~key build) in
  let rt = Runtime.create ~cfg ~arch ~timing:(Timing.create arch) (build ()) in
  Runtime.run ~mode:(Run.get_exec_mode ()) rt;
  let m = Runtime.machine rt in
  let block = Option.value ~default:[] (Machine.block_stats m) in
  let stats = Stats.to_assoc (Runtime.stats rt) in
  let expected =
    [
      ("instructions", m.Machine.c.Machine.instructions);
      ("block_decodes", get block "decodes");
      ("block_invalidations", get block "invalidations");
      ("chain_hits", get block "chain_hits");
      ("adapt_promotions", get stats "adapt_promotions");
      ("adapt_demotions", get stats "adapt_demotions");
      ("adapt_repatches", get stats "adapt_repatches");
      ("cfi_checks", get stats "cfi_checks");
      ("cfi_violations", get stats "cfi_violations");
      ("cfi_xcalls", get stats "cfi_xcalls");
      ("serve_jobs", 0);
      ("serve_dedup_hits", 0);
      ("serve_evictions", 0);
      ("serve_flushes", 0);
    ]
  in
  check Alcotest.(list (pair string int)) "cell delta" expected delta;
  check bool "adaptive promoted" true (get stats "adapt_promotions" > 0);
  check bool "cfi checked" true (get stats "cfi_checks" > 0);
  let _, again = ledger_delta (fun () -> Run.sdt ~arch ~cfg ~key build) in
  check bool "memo hit adds nothing" true (all_zero again)

(* A service run reaches the ledger with its jobs' machine and
   translator counters, not just its own serving totals. *)
let test_ledger_serve () =
  let mode = Run.get_exec_mode () in
  Run.set_exec_mode `Block;
  Fun.protect ~finally:(fun () -> Run.set_exec_mode mode) @@ fun () ->
  Run.clear_cache ();
  let micro seed =
    Serve.Micro
      {
        Synthetic.ib_sites = 3;
        targets = 6;
        fns = 2;
        recursion_depth = 1;
        iters = 400;
        seed;
      }
  in
  let spec =
    Serve.spec ~quantum:10_000 ~servers:1
      ~cfg:{ Config.default with Config.cfi = Config.Cfi_landing_pad }
      [ Serve.tenant ~jobs:2 "alpha" (micro 7); Serve.tenant "beta" (micro 8) ]
  in
  let r, delta = ledger_delta (fun () -> Run.serve spec) in
  check bool "block decodes" true (get delta "block_decodes" > 0);
  check bool "chain hits" true (get delta "chain_hits" > 0);
  check bool "cfi checks paid" true (r.Serve.rp_cfi_checks > 0);
  check int "cfi checks" r.Serve.rp_cfi_checks (get delta "cfi_checks");
  check int "instructions" r.Serve.rp_instrs (get delta "instructions");
  check int "jobs" 3 (get delta "serve_jobs");
  let _, again = ledger_delta (fun () -> Run.serve spec) in
  check bool "memo hit adds nothing" true (all_zero again)

let test_baseline_worse_than_default () =
  Run.clear_cache ();
  let worse = ref 0 in
  List.iter
    (fun name ->
      let e = entry name in
      let build () = Suite.program e `Test in
      let b = Run.sdt ~arch:Arch.arch_a ~cfg:Config.baseline ~key:name build in
      let d = Run.sdt ~arch:Arch.arch_a ~cfg:Config.default ~key:name build in
      if b.Run.slowdown > d.Run.slowdown then incr worse)
    [ "gcc"; "eon"; "perlbmk"; "vortex" ];
  check int "dispatch worse on all IB-heavy workloads" 4 !worse

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sdt_harness"
    [
      ( "summary",
        [
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "means and rates" `Quick test_means_and_rates;
          qt prop_geomean_bounds;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
          Alcotest.test_case "csv export" `Quick test_table_csv;
        ] );
      ( "run",
        [
          Alcotest.test_case "native memoised" `Quick test_native_memoised;
          Alcotest.test_case "sdt results sane" `Quick test_sdt_result_sane;
          Alcotest.test_case "divergence detected" `Quick test_mismatch_detected;
        ] );
      ( "ledger",
        [
          qt prop_stats_assoc_roundtrip;
          Alcotest.test_case "sdt cell adds its counters once" `Quick
            test_ledger_sdt_cell;
          Alcotest.test_case "serve run reaches the ledger" `Quick
            test_ledger_serve;
        ] );
      ( "perf gate",
        [
          Alcotest.test_case "best-of" `Quick test_perfgate_best_of;
          Alcotest.test_case "pass and fail with named offender" `Quick
            test_perfgate_pass_and_fail;
          Alcotest.test_case "baselines and trajectory files" `Quick
            test_perfgate_files;
          Alcotest.test_case "meta provenance" `Quick test_meta_provenance;
        ] );
      ( "parallel",
        [
          qt prop_jobs_invariant;
          Alcotest.test_case "tables invariant under jobs" `Slow
            test_tables_jobs_invariant;
          Alcotest.test_case "warm disk cache reproduces cold" `Slow
            test_warm_disk_cache_reproduces_cold;
        ] );
      ( "experiments",
        Alcotest.test_case "registry" `Quick test_registry
        :: Alcotest.test_case "IB-heavy ordering" `Quick
             test_baseline_worse_than_default
        :: experiment_cases );
    ]
