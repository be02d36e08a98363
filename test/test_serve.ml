(* Multi-tenant serving: the shared bounded store, eviction policies,
   cross-tenant dedup, and the serving invariants from the issue —
   occupancy never exceeds the bound under any policy, deduped tenants
   produce bit-identical checksums vs isolated runs, and results are
   independent of the worker count. *)

module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Machine = Sdt_machine.Machine
module Config = Sdt_core.Config
module Runtime = Sdt_core.Runtime
module Stats = Sdt_core.Stats
module Synthetic = Sdt_workloads.Synthetic
module Suite = Sdt_workloads.Suite
module Pool = Sdt_par.Pool
module Store = Sdt_serve.Store
module Serve = Sdt_serve.Serve
module Registry = Sdt_observe.Registry

(* the harness's SDT_EXEC_MODE parse, so a CI leg runs the mode it names *)
let mode = Sdt_harness.Run.get_exec_mode ()

(* ------------------------------------------------------------------ *)
(* Store unit tests *)

let ins ?(tenant = 0) ?(bytes = 100) ?(insts = 25) st key =
  Store.insert st ~key ~tenant ~bytes ~insts ~digest:(Hashtbl.hash key)

let test_store_fifo_bound () =
  let st = Store.create ~policy:Store.Fifo ~bound:250 () in
  (match ins st "a" with `Inserted [] -> () | _ -> Alcotest.fail "a");
  (match ins st "b" with `Inserted [] -> () | _ -> Alcotest.fail "b");
  (* 100 + 100 + 100 > 250: the oldest entry goes *)
  (match ins st "c" with
  | `Inserted [ e ] -> Alcotest.(check string) "victim" "a" e.Store.e_key
  | _ -> Alcotest.fail "c should evict exactly a");
  Alcotest.(check int) "occupancy" 200 (Store.occupancy st);
  Alcotest.(check int) "peak" 200 (Store.peak st);
  Alcotest.(check bool) "a gone" true (Store.probe st "a" = None);
  Alcotest.(check bool) "b live" true (Store.probe st "b" <> None);
  Alcotest.(check int) "evictions" 1 (Store.evictions st);
  Alcotest.(check int) "evicted bytes" 100 (Store.evicted_bytes st)

let test_store_flush_all () =
  let st = Store.create ~policy:Store.Flush_all ~bound:250 () in
  ignore (ins st "a");
  ignore (ins st "b");
  (match ins st "c" with
  | `Inserted evicted ->
      Alcotest.(check int) "drops everything" 2 (List.length evicted)
  | _ -> Alcotest.fail "c");
  Alcotest.(check int) "only c remains" 1 (Store.entries st)

let test_store_generational () =
  let st = Store.create ~policy:Store.Generational ~bound:450 () in
  ignore (ins st "a");
  ignore (ins st "b");
  Store.advance_gen st;
  ignore (ins st "c");
  ignore (ins st "d");
  (* gen 0 = {a,b}, gen 1 = {c,d}; inserting e evicts all of gen 0 *)
  (match ins st "e" with
  | `Inserted evicted ->
      Alcotest.(check (list string))
        "oldest generation" [ "a"; "b" ]
        (List.map (fun e -> e.Store.e_key) evicted)
  | _ -> Alcotest.fail "e");
  Alcotest.(check int) "entries" 3 (Store.entries st)

let test_store_budget () =
  let st = Store.create ~policy:Store.Fifo ~bound:10_000 ~budget:250 () in
  ignore (ins ~tenant:0 st "a");
  ignore (ins ~tenant:1 st "b");
  ignore (ins ~tenant:0 st "c");
  (* tenant 0 at 200/250: its next insert evicts its own oldest, not
     tenant 1's entry *)
  (match ins ~tenant:0 st "d" with
  | `Inserted [ e ] ->
      Alcotest.(check string) "own oldest" "a" e.Store.e_key;
      Alcotest.(check int) "victim tenant" 0 e.Store.e_tenant
  | _ -> Alcotest.fail "d");
  Alcotest.(check bool) "b untouched" true (Store.probe st "b" <> None);
  Alcotest.(check int) "tenant 0 bytes" 200 (Store.tenant_bytes st 0)

let test_store_reject_oversize () =
  let st = Store.create ~policy:Store.Fifo ~bound:250 () in
  ignore (ins st "a");
  (match ins ~bytes:300 st "big" with
  | `Rejected -> ()
  | _ -> Alcotest.fail "oversize must be rejected");
  Alcotest.(check int) "nothing evicted for it" 0 (Store.evictions st);
  Alcotest.(check int) "rejects" 1 (Store.rejects st)

let test_store_present () =
  let st = Store.create () in
  ignore (ins ~tenant:0 st "a");
  match ins ~tenant:1 st "a" with
  | `Present e -> Alcotest.(check int) "first publisher wins" 0 e.Store.e_tenant
  | _ -> Alcotest.fail "second insert of same key must be Present"

(* The qcheck invariant: under any policy, any op sequence, occupancy
   never exceeds the bound and always equals the sum of live entries. *)
let qcheck_store_bound_invariant =
  let open QCheck in
  let policy_gen = oneofl [ Store.Flush_all; Store.Fifo; Store.Generational ] in
  let op_gen =
    (* key space deliberately small so re-inserts hit Present *)
    oneof
      [
        map
          (fun (k, (t, b)) -> `Insert (k, t, b))
          (pair (0 -- 30) (pair (0 -- 3) (1 -- 400)));
        always `Gen;
      ]
  in
  Test.make ~name:"store: occupancy <= bound under any policy" ~count:200
    (triple policy_gen (100 -- 1000) (list_of_size Gen.(40 -- 120) op_gen))
    (fun (policy, bound, ops) ->
      let st = Store.create ~policy ~bound ~budget:(bound / 2) () in
      List.for_all
        (fun op ->
          (match op with
          | `Insert (k, tenant, bytes) ->
              ignore
                (Store.insert st
                   ~key:(string_of_int k)
                   ~tenant ~bytes ~insts:(max 1 (bytes / 4))
                   ~digest:k)
          | `Gen -> Store.advance_gen st);
          let live = ref 0 in
          Store.iter st (fun e -> live := !live + e.Store.e_bytes);
          Store.occupancy st <= bound
          && Store.occupancy st = !live
          && Store.peak st >= Store.occupancy st)
        ops)

(* ------------------------------------------------------------------ *)
(* Serving engine *)

let micro ?(iters = 400) seed =
  Serve.Micro
    {
      Synthetic.ib_sites = 3;
      targets = 6;
      fns = 2;
      recursion_depth = 1;
      iters;
      seed;
    }

let isolated prog cfg arch =
  let timing = Timing.create arch in
  let rt = Runtime.create ~cfg ~arch ~timing (Serve.program_of prog) in
  Runtime.run ~max_steps:500_000_000 ~mode rt;
  let m = Runtime.machine rt in
  (m.Machine.checksum, Machine.output m, Timing.cycles timing)

let check_vs_isolated spec res =
  let progs =
    List.map (fun t -> (t.Serve.tn_name, t.Serve.tn_prog)) spec.Serve.sp_tenants
  in
  List.iter
    (fun j ->
      let prog = List.assoc j.Serve.jr_tenant progs in
      let cks, out, _ = isolated prog spec.Serve.sp_cfg spec.Serve.sp_arch in
      Alcotest.(check int)
        (Printf.sprintf "%s#%d checksum vs isolated" j.Serve.jr_tenant
           j.Serve.jr_index)
        cks j.Serve.jr_checksum;
      Alcotest.(check string)
        (Printf.sprintf "%s#%d output vs isolated" j.Serve.jr_tenant
           j.Serve.jr_index)
        out j.Serve.jr_output)
    res.Serve.res_jobs

let test_serve_single_tenant () =
  let spec = Serve.spec ~quantum:10_000 [ Serve.tenant "t0" (micro 1) ] in
  let res = Serve.run ~mode spec in
  Alcotest.(check int) "one job" 1 (List.length res.Serve.res_jobs);
  let j = List.hd res.Serve.res_jobs in
  let cks, out, cycles = isolated (micro 1) spec.Serve.sp_cfg spec.Serve.sp_arch in
  Alcotest.(check int) "checksum" cks j.Serve.jr_checksum;
  Alcotest.(check string) "output" out j.Serve.jr_output;
  Alcotest.(check int) "cycles" cycles j.Serve.jr_cycles;
  Alcotest.(check int) "latency = completion" j.Serve.jr_completion
    j.Serve.jr_latency;
  Alcotest.(check bool) "makespan covers the job" true
    (res.Serve.res_makespan >= j.Serve.jr_cycles)

let test_serve_dedup_identical_tenants () =
  (* two tenants running the same binary on one server: alpha runs to
     completion and publishes everything, so every one of beta's
     translations is a shared copy *)
  let spec =
    Serve.spec ~quantum:10_000 ~servers:1
      [ Serve.tenant "alpha" (micro 7); Serve.tenant "beta" (micro 7) ]
  in
  let res = Serve.run ~mode spec in
  Alcotest.(check bool) "dedup hits" true (res.Serve.res_dedup_hits > 0);
  check_vs_isolated spec res;
  (* dedup is accounting only: the sharing tenant finished no later
     than an isolated run of the same program would have *)
  let _, _, iso_cycles = isolated (micro 7) spec.Serve.sp_cfg spec.Serve.sp_arch in
  List.iter
    (fun j ->
      Alcotest.(check bool)
        (j.Serve.jr_tenant ^ " no slower than isolated")
        true
        (j.Serve.jr_cycles <= iso_cycles))
    res.Serve.res_jobs

let test_serve_no_dedup_no_hits () =
  let spec =
    Serve.spec ~quantum:10_000 ~servers:1 ~dedup:false
      [ Serve.tenant "alpha" (micro 7); Serve.tenant "beta" (micro 7) ]
  in
  let res = Serve.run ~mode spec in
  Alcotest.(check int) "no hits without dedup" 0 res.Serve.res_dedup_hits;
  check_vs_isolated spec res

(* unique published bytes of a mix, measured on an unbounded run —
   bounds derived from this are guaranteed to force churn without
   being smaller than any single fragment *)
let footprint tenants =
  let res = Serve.run ~mode (Serve.spec ~quantum:8_000 ~servers:3 tenants) in
  res.Serve.res_store_final

let test_serve_bounded_evicts () =
  (* a bound at half the mix's footprint forces churn; correctness
     must survive service-triggered flushes under every policy *)
  let tenants =
    [
      Serve.tenant ~jobs:2 "a" (micro 11);
      Serve.tenant "b" (micro 12);
      Serve.tenant "c" (micro ~iters:300 13);
    ]
  in
  let bound = max 1 (footprint tenants / 2) in
  List.iter
    (fun policy ->
      let spec = Serve.spec ~quantum:8_000 ~policy ~bound ~servers:3 tenants in
      let res = Serve.run ~mode spec in
      Alcotest.(check bool)
        (Store.policy_name policy ^ ": store peak within bound")
        true
        (res.Serve.res_store_peak <= bound);
      Alcotest.(check bool)
        (Store.policy_name policy ^ ": evictions happened")
        true
        (res.Serve.res_evictions > 0);
      check_vs_isolated spec res)
    [ Store.Flush_all; Store.Fifo; Store.Generational ]

let test_serve_flush_marks_applied () =
  (* under flush-all with a tight bound, active tenants get invalidated
     and their runtimes must actually flush *)
  let tenants =
    [
      Serve.tenant "a" (micro 21);
      Serve.tenant "b" (micro 22);
      Serve.tenant "c" (micro 23);
    ]
  in
  let bound = max 1 (footprint tenants / 2) in
  let spec =
    Serve.spec ~quantum:4_000 ~policy:Store.Flush_all ~bound ~servers:3 tenants
  in
  let res = Serve.run ~mode spec in
  Alcotest.(check bool) "marks issued" true (res.Serve.res_flush_marks > 0);
  Alcotest.(check bool) "flushes applied" true (res.Serve.res_flushes > 0);
  check_vs_isolated spec res

let test_serve_open_loop () =
  let spec =
    Serve.spec ~quantum:10_000
      ~schedule:(Serve.Open_loop { period = 5_000 })
      ~servers:1
      [ Serve.tenant ~jobs:2 "a" (micro 31); Serve.tenant "b" (micro 32) ]
  in
  let res = Serve.run ~mode spec in
  Alcotest.(check int) "all jobs served" 3 (List.length res.Serve.res_jobs);
  List.iter
    (fun j ->
      Alcotest.(check bool) "completion after arrival" true
        (j.Serve.jr_completion > j.Serve.jr_arrival))
    res.Serve.res_jobs;
  (* round-robin arrivals: a#0 at 0, b#0 at 5000, a#1 at 10000 *)
  let arrival t ix =
    let j =
      List.find
        (fun j -> j.Serve.jr_tenant = t && j.Serve.jr_index = ix)
        res.Serve.res_jobs
    in
    j.Serve.jr_arrival
  in
  Alcotest.(check int) "a#0 arrival" 0 (arrival "a" 0);
  Alcotest.(check int) "b#0 arrival" 5_000 (arrival "b" 0);
  Alcotest.(check int) "a#1 arrival" 10_000 (arrival "a" 1)

let test_serve_closed_loop_streams () =
  let spec =
    Serve.spec ~quantum:10_000 ~servers:1
      [ Serve.tenant ~jobs:3 "a" (micro 41) ]
  in
  let res = Serve.run ~mode spec in
  let jobs = res.Serve.res_jobs in
  Alcotest.(check int) "three jobs" 3 (List.length jobs);
  List.iteri
    (fun i j ->
      if i > 0 then
        let prev = List.nth jobs (i - 1) in
        Alcotest.(check int) "closed loop: arrival = previous completion"
          prev.Serve.jr_completion j.Serve.jr_arrival)
    jobs

let test_serve_registry_labels () =
  let spec =
    Serve.spec ~quantum:10_000
      [ Serve.tenant "alpha" (micro 7); Serve.tenant "beta" (micro 7) ]
  in
  let res = Serve.run ~mode spec in
  let counters = Registry.counters res.Serve.res_registry in
  let get id = List.assoc_opt id counters in
  Alcotest.(check (option int))
    "per-tenant job counter" (Some 1)
    (get {|serve.jobs{tenant="alpha"}|});
  Alcotest.(check bool) "per-tenant dedup counter exists" true
    (get {|serve.dedup_hits{tenant="beta"}|} <> None);
  Alcotest.(check bool) "p99 positive" true
    (Serve.latency_percentile res 99.0 > 0.0);
  Alcotest.(check bool) "tenant p99 positive" true
    (Serve.tenant_percentile res "alpha" 99.0 > 0.0)

let test_serve_report () =
  let spec =
    Serve.spec ~quantum:10_000 ~servers:2
      [ Serve.tenant ~jobs:2 "alpha" (micro 7); Serve.tenant "beta" (micro 7) ]
  in
  let res = Serve.run ~mode spec in
  let rp = Serve.report_of_result res in
  Alcotest.(check int) "jobs" 3 rp.Serve.rp_jobs;
  Alcotest.(check int) "tenant lines" 2 (List.length rp.Serve.rp_tenants);
  Alcotest.(check bool) "throughput positive" true (rp.Serve.rp_throughput > 0.0);
  Alcotest.(check bool) "mips positive" true (rp.Serve.rp_agg_mips > 0.0);
  Alcotest.(check bool) "p50 <= p99" true (rp.Serve.rp_p50 <= rp.Serve.rp_p99)

let test_serve_fast_return_rejected () =
  let cfg = { Config.default with Config.returns = Config.Fast_return } in
  match
    Serve.spec ~cfg ~bound:4096 [ Serve.tenant "a" (micro 1) ]
  with
  | _ -> Alcotest.fail "bounded fast-return spec must be rejected"
  | exception Serve.Error _ -> ()

(* strip the registry (an abstract mutable value) for structural
   comparison of two runs *)
let comparable res =
  ( res.Serve.res_jobs,
    res.Serve.res_epochs,
    res.Serve.res_makespan,
    res.Serve.res_instrs,
    res.Serve.res_cycles,
    res.Serve.res_dedup_hits,
    res.Serve.res_flush_marks,
    res.Serve.res_flushes,
    ( res.Serve.res_store_peak,
      res.Serve.res_store_final,
      res.Serve.res_evictions,
      res.Serve.res_evicted_bytes ) )

let test_serve_jobs_independence () =
  let spec =
    Serve.spec ~quantum:6_000 ~policy:Store.Fifo ~bound:8_000 ~servers:3
      [
        Serve.tenant ~jobs:2 "a" (micro 51);
        Serve.tenant "b" (micro 52);
        Serve.tenant "c" (micro 51);
      ]
  in
  let serial = Serve.run ~mode spec in
  let parallel =
    Pool.with_pool ~jobs:4 (fun pool -> Serve.run ~pool ~mode spec)
  in
  Alcotest.(check bool) "serial = 4 workers" true
    (comparable serial = comparable parallel)

(* qcheck: random tenant mixes under random policies/bounds — checksums
   match isolated runs, the bound holds, and a 3-worker pool changes
   nothing *)
let qcheck_serve_invariants =
  let open QCheck in
  let policy_gen = oneofl [ Store.Flush_all; Store.Fifo; Store.Generational ] in
  let mix_gen =
    list_of_size
      Gen.(2 -- 3)
      (pair (0 -- 3) (oneofl [ 200; 300; 400 ]))
  in
  Test.make ~name:"serve: isolated-identical, bounded, jobs-independent"
    ~count:8
    (triple policy_gen (oneofl [ 4_096; 8_192; 0 ]) mix_gen)
    (fun (policy, bound, mix) ->
      assume (mix <> []);
      let tenants =
        List.mapi
          (fun i (seed, iters) ->
            Serve.tenant
              (Printf.sprintf "t%d" i)
              (micro ~iters (seed + 1)))
          mix
      in
      let spec =
        Serve.spec ~quantum:7_000 ~policy ~bound ~servers:2 tenants
      in
      let res = Serve.run ~mode spec in
      let parallel =
        Pool.with_pool ~jobs:3 (fun pool -> Serve.run ~pool ~mode spec)
      in
      (bound = 0 || res.Serve.res_store_peak <= bound)
      && comparable res = comparable parallel
      && List.for_all
           (fun j ->
             let prog =
               List.assoc j.Serve.jr_tenant
                 (List.map
                    (fun t -> (t.Serve.tn_name, t.Serve.tn_prog))
                    spec.Serve.sp_tenants)
             in
             let cks, out, _ =
               isolated prog spec.Serve.sp_cfg spec.Serve.sp_arch
             in
             cks = j.Serve.jr_checksum && out = j.Serve.jr_output)
           res.Serve.res_jobs)

let test_serve_cfi_instruments () =
  (* a whole service under landing-pad CFI: jobs stay bit-identical to
     isolated runs, dedup still hits under the uniform policy (the
     content key includes the policy name, so identical tenants share),
     and the per-tenant cfi instruments agree with the job rows *)
  let cfg = { Config.default with Config.cfi = Config.Cfi_landing_pad } in
  let spec =
    Serve.spec ~quantum:10_000 ~servers:1 ~cfg
      [ Serve.tenant "alpha" (micro 7); Serve.tenant "beta" (micro 7) ]
  in
  let res = Serve.run ~mode spec in
  check_vs_isolated spec res;
  Alcotest.(check bool) "dedup still hits under a uniform policy" true
    (res.Serve.res_dedup_hits > 0);
  List.iter
    (fun j ->
      Alcotest.(check bool) (j.Serve.jr_tenant ^ " paid checks") true
        (j.Serve.jr_cfi_checks > 0);
      Alcotest.(check int)
        (j.Serve.jr_tenant ^ " audits clean")
        0 j.Serve.jr_cfi_violations)
    res.Serve.res_jobs;
  let elided =
    List.fold_left (fun a j -> a + j.Serve.jr_cfi_elided) 0 res.Serve.res_jobs
  in
  Alcotest.(check bool) "hit paths elided checks" true (elided > 0);
  let counters = Registry.counters res.Serve.res_registry in
  let get id = Option.value ~default:0 (List.assoc_opt id counters) in
  let sum name =
    get (Printf.sprintf {|%s{tenant="alpha"}|} name)
    + get (Printf.sprintf {|%s{tenant="beta"}|} name)
  in
  Alcotest.(check int) "cfi.checks instrument matches jobs"
    (List.fold_left (fun a j -> a + j.Serve.jr_cfi_checks) 0 res.Serve.res_jobs)
    (sum "cfi.checks");
  Alcotest.(check int) "cfi.elided instrument matches jobs" elided
    (sum "cfi.elided");
  Alcotest.(check int) "cfi.violations instrument zero" 0 (sum "cfi.violations");
  let rp = Serve.report_of_result res in
  Alcotest.(check int) "report aggregates checks"
    (List.fold_left (fun a j -> a + j.Serve.jr_cfi_checks) 0 res.Serve.res_jobs)
    rp.Serve.rp_cfi_checks;
  (* a policy-off run of the same mix reports no cfi activity *)
  let off =
    Serve.run ~mode
      (Serve.spec ~quantum:10_000 ~servers:1
         ~cfg:{ Config.default with Config.cfi = Config.Cfi_none }
         [ Serve.tenant "alpha" (micro 7); Serve.tenant "beta" (micro 7) ])
  in
  List.iter
    (fun j ->
      Alcotest.(check int) "no checks under Cfi_none" 0 j.Serve.jr_cfi_checks;
      Alcotest.(check int) "no elision accounting under Cfi_none" 0
        j.Serve.jr_cfi_elided)
    off.Serve.res_jobs

let test_serve_fingerprint_keyed_on_policy () =
  (* two specs identical except for the CFI policy must not share a
     memo entry (or, through it, a baseline row) *)
  let t = [ Serve.tenant "t0" (micro 1) ] in
  let off =
    Serve.spec ~quantum:10_000
      ~cfg:{ Config.default with Config.cfi = Config.Cfi_none }
      t
  in
  let on =
    Serve.spec ~quantum:10_000
      ~cfg:{ Config.default with Config.cfi = Config.Ret_integrity }
      t
  in
  Alcotest.(check bool) "fingerprints differ" true
    (Serve.fingerprint off <> Serve.fingerprint on)

let test_serve_workload_tenants () =
  (* suite workloads as tenants, two of them identical for dedup *)
  let gzip = Serve.Workload { wl = "gzip"; size = 400 } in
  let mcf = Serve.Workload { wl = "mcf"; size = 500 } in
  let spec =
    Serve.spec ~quantum:20_000 ~servers:1
      [
        Serve.tenant "gzip-1" gzip;
        Serve.tenant "gzip-2" gzip;
        Serve.tenant "mcf" mcf;
      ]
  in
  let res = Serve.run ~mode spec in
  Alcotest.(check bool) "identical binaries dedup" true
    (res.Serve.res_dedup_hits > 0);
  check_vs_isolated spec res

let () =
  Alcotest.run "sdt_serve"
    [
      ( "store",
        [
          Alcotest.test_case "fifo bound" `Quick test_store_fifo_bound;
          Alcotest.test_case "flush-all drops everything" `Quick
            test_store_flush_all;
          Alcotest.test_case "generational bulk eviction" `Quick
            test_store_generational;
          Alcotest.test_case "per-tenant budget" `Quick test_store_budget;
          Alcotest.test_case "oversize rejected" `Quick
            test_store_reject_oversize;
          Alcotest.test_case "duplicate key is Present" `Quick
            test_store_present;
          QCheck_alcotest.to_alcotest qcheck_store_bound_invariant;
        ] );
      ( "serve",
        [
          Alcotest.test_case "single tenant matches isolated" `Quick
            test_serve_single_tenant;
          Alcotest.test_case "identical tenants dedup" `Quick
            test_serve_dedup_identical_tenants;
          Alcotest.test_case "no dedup, no hits" `Quick
            test_serve_no_dedup_no_hits;
          Alcotest.test_case "bounded store evicts, stays correct" `Quick
            test_serve_bounded_evicts;
          Alcotest.test_case "flush marks applied" `Quick
            test_serve_flush_marks_applied;
          Alcotest.test_case "open-loop arrivals" `Quick test_serve_open_loop;
          Alcotest.test_case "closed-loop streams" `Quick
            test_serve_closed_loop_streams;
          Alcotest.test_case "registry labels" `Quick test_serve_registry_labels;
          Alcotest.test_case "report shape" `Quick test_serve_report;
          Alcotest.test_case "bounded fast-return rejected" `Quick
            test_serve_fast_return_rejected;
          Alcotest.test_case "cfi instruments" `Quick
            test_serve_cfi_instruments;
          Alcotest.test_case "fingerprint keyed on policy" `Quick
            test_serve_fingerprint_keyed_on_policy;
          Alcotest.test_case "jobs independence" `Quick
            test_serve_jobs_independence;
          Alcotest.test_case "workload tenants" `Quick
            test_serve_workload_tenants;
          QCheck_alcotest.to_alcotest qcheck_serve_invariants;
        ] );
    ]
