(* serve-churn: [Serve.run] on a 2-domain pool over F11's 8-tenant churn
   mix, open-loop arrivals at a rate the service keeps up with, FIFO
   eviction at a tight bound so the fragment store is written
   throughout. *)

open Workload
module Serve = Sdt_serve.Serve
module Store = Sdt_serve.Store
module Synthetic = Sdt_workloads.Synthetic

let arch = Arch.arch_a
let jobs_per_tenant = function Full -> 30 | Quick -> 3
let period = 120_000

let micro seed =
  Serve.Micro
    {
      Synthetic.ib_sites = 4;
      targets = 8;
      fns = 2;
      recursion_depth = 1;
      iters = 600;
      seed;
    }

let tenants o =
  let jobs = jobs_per_tenant o.scale in
  let m k = micro (micro_seed ~seed:o.seed k) in
  let wl wl size = Serve.Workload { wl; size } in
  [
    Serve.tenant ~jobs "gzip-a" (wl "gzip" 800);
    Serve.tenant ~jobs "gzip-b" (wl "gzip" 800);
    Serve.tenant ~jobs "perlbmk" (wl "perlbmk" 2400);
    Serve.tenant ~jobs "parser" (wl "parser" 6000);
    (* m1 twice: an identical binary pair for cross-tenant dedup *)
    Serve.tenant ~jobs "m1-a" (m 1);
    Serve.tenant ~jobs "m1-b" (m 1);
    Serve.tenant ~jobs "m2" (m 2);
    Serve.tenant ~jobs "m3" (m 3);
  ]

let setup o =
  let tenants = tenants o in
  let spec =
    Serve.spec ~arch ~cfg ~policy:Store.Fifo ~bound:2048 ~quantum:10_000
      ~servers:3 ~schedule:(Serve.Open_loop { period }) tenants
  in
  let progs, build_s =
    build_programs ~arch
      (List.map
         (fun t -> ("serve:" ^ t.Serve.tn_name, fun () -> Serve.program_of t.Serve.tn_prog))
         tenants)
  in
  (* isolated native references, one per tenant *)
  let refs =
    Array.of_list
      (List.map (fun (key, prog) -> Run.native ~arch ~key (fun () -> prog)) progs)
  in
  Run.clear_cache ();
  let expected = List.fold_left (fun a t -> a + t.Serve.tn_jobs) 0 tenants in
  let pool = Pool.create ~jobs:pool_jobs in
  let pass pool =
    let t0 = Measure.now () in
    let g = Measure.gc_mark () in
    let res, exec =
      Measure.timed (fun () ->
          match
            Telemetry.span ~cat:"serve" ~name:"serve.run" (fun () ->
                Serve.run ?pool ~mode spec)
          with
          | r -> Some r
          | exception e ->
              report_exn "Serve.run" e;
              None)
    in
    let gc = Measure.gc_since g in
    match res with
    | None ->
        {
          Measure.wall = Measure.now () -. t0;
          exec;
          evaluate = 0.0;
          render = 0.0;
          instrs = 0;
          units = expected;
          failed = expected;
          jobs = 0;
          gc;
          det = [];
        }
    | Some res ->
        let jobs = res.Serve.res_jobs in
        let bad =
          List.filter
            (fun j ->
              let n = refs.(j.Serve.jr_tenant_ix) in
              j.Serve.jr_checksum <> n.Run.n_checksum
              || j.Serve.jr_output <> n.Run.n_output)
            jobs
        in
        List.iter
          (fun j ->
            Printf.eprintf "perfbench: job %s#%d differs from its native run\n%!"
              j.Serve.jr_tenant j.Serve.jr_index)
          bad;
        let failed = List.length bad + max 0 (expected - List.length jobs) in
        let wall = Measure.now () -. t0 in
        let f = float_of_int in
        {
          Measure.wall;
          exec;
          evaluate = 0.0;
          render = 0.0;
          instrs = res.Serve.res_instrs;
          units = expected;
          failed;
          jobs = List.length jobs;
          gc;
          det =
            sim_layers
              ~slowdowns:
                (List.map
                   (fun j ->
                     f j.Serve.jr_cycles
                     /. f refs.(j.Serve.jr_tenant_ix).Run.n_cycles)
                   jobs)
              ~cycles:(List.map (fun j -> j.Serve.jr_latency) jobs)
            @ [
                ("serve.epochs", f res.Serve.res_epochs);
                ("serve.evictions", f res.Serve.res_evictions);
                ("serve.flushes", f res.Serve.res_flushes);
                ("serve.flush_marks", f res.Serve.res_flush_marks);
                ("serve.dedup_hits", f res.Serve.res_dedup_hits);
                ("serve.latency_samples", f (List.length jobs));
                ("core.flushes", f res.Serve.res_flushes);
              ];
        }
  in
  {
    build_ms = 1000.0 *. build_s;
    rep = (fun () -> pass (Some pool));
    extras =
      (fun reps ->
        let serial = pass None in
        let pooled = Measure.median (List.map (fun r -> r.Measure.exec) reps) in
        [
          ("par.scaling", Measure.ratio serial.Measure.exec pooled);
          ("gc.minor_words_per_instr",
           Measure.ratio serial.Measure.gc.Measure.words
             (float_of_int serial.Measure.instrs));
        ]
        @ march_contrast ~arch progs);
    probe = (fun () -> load_create (List.map (fun (_, p) -> (arch, p)) progs));
    traced =
      (fun r spans ->
        let quanta =
          List.filter
            (fun s -> String.starts_with ~prefix:"quantum." s.Measure.name)
            spans
        in
        [
          ("par.worker_busy_share", pool_busy_share spans ~wall:r.Measure.exec);
          ("serve.quantum_busy_s", Measure.busy_s quanta);
          ("serve.barrier_s", r.Measure.exec -. Measure.covered_s quanta);
        ]);
    teardown = (fun () -> Pool.shutdown pool);
  }
