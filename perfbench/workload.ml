(* What every benchmark workload provides to the run loop in bench.ml. *)

module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Config = Sdt_core.Config
module Runtime = Sdt_core.Runtime
module Loader = Sdt_machine.Loader
module Run = Sdt_harness.Run
module Telemetry = Sdt_par.Telemetry
module Pool = Sdt_par.Pool

type scale = Full | Quick  (** [Quick] is the selftest size *)

type opts = { seed : int; scale : scale }

type instance = {
  build_ms : float;  (** program build time of this set-up *)
  rep : unit -> Measure.rep;  (** one measured repetition *)
  extras : Measure.rep list -> (string * float) list;
      (** untraced single-domain passes run after the measured phase *)
  probe : unit -> (string * float) list;  (** load/create loop, traced *)
  traced : Measure.rep -> Measure.span list -> (string * float) list;
      (** layer numbers read off the traced repetition's spans *)
  teardown : unit -> unit;
}

(* Pinned against the environment: [Config.default] folds in SDT_CFI,
   so the policy is set explicitly (bench.ml refuses to run while
   SDT_CFI or SDT_EXEC_MODE is set at all). *)
let cfg = { Config.default with Config.cfi = Config.Cfi_none }

let mode = `Block
let pool_jobs = 2

(* the workload seed, spread over the Synthetic seed range *)
let micro_seed ~seed k = ((seed * 7919) + (k * 104_729)) land 0xFFFF

let report_exn what e =
  Printf.eprintf "perfbench: %s failed: %s\n%!" what (Printexc.to_string e)

(* host time and calling-domain allocation of a native run on [arch],
   with the memo cleared so it is really simulated *)
let native_cost ~arch ~key prog =
  Run.clear_cache ();
  let g = Measure.gc_mark () in
  let n, t = Measure.timed (fun () -> Run.native ~arch ~key (fun () -> prog)) in
  (t, (Measure.gc_since g).Measure.words, n.Run.n_instrs)

(* march bypass: native runs on [arch] minus the same runs on the ideal
   machine, which has no caches or predictors to model *)
let march_contrast ~arch progs =
  let sum arch =
    List.fold_left
      (fun (t, w, i) (key, prog) ->
        let t', w', i' = native_cost ~arch ~key prog in
        (t +. t', w +. w', i + i'))
      (0.0, 0.0, 0) progs
  in
  let ta, wa, ia = sum arch in
  let ti, wi, ii = sum Arch.ideal in
  Run.clear_cache ();
  let fi = float_of_int in
  [
    ("march.host_ns_per_instr", 1e9 *. ((ta /. fi ia) -. (ti /. fi ii)));
    ("march.minor_words_per_instr", (wa /. fi ia) -. (wi /. fi ii));
  ]

(* mean ms per [Loader.load] and per [Runtime.create] over every
   (program, arch) pair, [passes] times over *)
let load_create ?(passes = 3) pairs =
  let n = ref 0 and t_load = ref 0.0 and t_create = ref 0.0 in
  for _ = 1 to passes do
    List.iter
      (fun (arch, prog) ->
        incr n;
        let _, t =
          Measure.timed (fun () ->
              Telemetry.span ~cat:"machine" ~name:"machine.load" (fun () ->
                  Loader.load ~timing:(Timing.create arch) prog))
        in
        t_load := !t_load +. t;
        let _, t =
          Measure.timed (fun () ->
              Telemetry.span ~cat:"core" ~name:"core.create" (fun () ->
                  Runtime.create ~cfg ~arch prog))
        in
        t_create := !t_create +. t)
      pairs
  done;
  let per x = 1000.0 *. x /. float_of_int (max 1 !n) in
  [ ("machine.load_ms", per !t_load); ("core.create_ms", per !t_create) ]

(* set-up: build every program, then load it and create its SDT runtime
   once, so a program or configuration the library refuses fails before
   anything is timed; returns the programs and their build time *)
let build_programs ~arch named =
  let progs, build_s =
    Telemetry.span ~cat:"workloads" ~name:"workloads.build" (fun () ->
        Measure.timed (fun () -> List.map (fun (key, f) -> (key, f ())) named))
  in
  ignore (load_create ~passes:1 (List.map (fun (_, p) -> (arch, p)) progs));
  (progs, build_s)

(* block-cache counters over one repetition, per simulated instruction *)
let machine_layer (b0 : Run.block_cache_stats) instrs =
  let b = Run.block_cache_stats () in
  let decodes = float_of_int (b.Run.decodes - b0.Run.decodes) in
  let refresh = float_of_int (b.Run.invalidations - b0.Run.invalidations) in
  let chain = float_of_int (b.Run.chain_hits - b0.Run.chain_hits) in
  let i = float_of_int instrs in
  [
    ("machine.block_decodes", decodes);
    ("machine.refresh_decodes", refresh);
    ("machine.refresh_ratio", Measure.ratio refresh decodes);
    ("machine.decodes_per_minstr", Measure.per_m decodes i);
    ("machine.chain_hits_per_kinstr", Measure.per_k chain i);
  ]

(* simulated timing-model and translator counters summed over SDT runs *)
let sdt_layers (l : Run.sdt list) =
  let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 l) in
  let instrs = sum (fun s -> s.Run.s_instrs) in
  let st f = sum (fun s -> f s.Run.s_stats) in
  let module S = Sdt_core.Stats in
  let translated = st (fun s -> s.S.blocks_translated) in
  let links = st (fun s -> s.S.links) in
  let ib_misses = st S.total_ib_misses in
  [
    ("march.icache_misses_per_kinstr",
     Measure.per_k (sum (fun s -> s.Run.s_icache_misses)) instrs);
    ("march.dcache_misses_per_kinstr",
     Measure.per_k (sum (fun s -> s.Run.s_dcache_misses)) instrs);
    ("march.ind_misp_per_kinstr",
     Measure.per_k (sum (fun s -> s.Run.s_ind_misp)) instrs);
    ("core.blocks_translated", translated);
    ("core.links", links);
    ("core.ib_misses", ib_misses);
    ("core.flushes", st (fun s -> s.S.flushes));
    (* translator entries: block translations, link patches, IB misses *)
    ("core.traps_per_minstr", Measure.per_m (translated +. links +. ib_misses) instrs);
  ]

(* simulated cycles of translated jobs, and their geomean slowdown *)
let sim_layers ~slowdowns ~cycles =
  let kc = List.map (fun c -> float_of_int c /. 1000.0) cycles in
  [
    ("sim_slowdown_geomean", Measure.geomean slowdowns);
    ("sim_p50_kcycles", Measure.percentile 0.50 kc);
    ("sim_p95_kcycles", Measure.percentile 0.95 kc);
  ]

let memo_layer (c : Run.cache_stats) =
  let h = float_of_int c.Run.hits and s = float_of_int c.Run.simulated in
  [
    ("harness.cells_simulated", s);
    ("harness.memo_hits", h);
    ("harness.memo_hit_ratio", Measure.ratio h (h +. s));
  ]

let pool_busy_share spans ~wall =
  let tasks =
    List.filter (fun s -> s.Measure.cat = "pool" && s.Measure.name = "task") spans
  in
  Measure.ratio (Measure.busy_s tasks) (wall *. float_of_int pool_jobs)
