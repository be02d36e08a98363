module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Machine = Sdt_machine.Machine
module Memory = Sdt_machine.Memory
module Loader = Sdt_machine.Loader
module Program = Sdt_isa.Program
module Observer = Sdt_observe.Observer
module Metrics = Sdt_observe.Metrics

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type mech_instance =
  | M_dispatch
  | M_ibtc of Ibtc.t
  | M_sieve of Sieve.t
  | M_adapt of Adapt.t

type t = {
  env : Env.t;
  mutable ret : Translate.ret_plan;
  mutable mech : mech_instance;
  entry : int;
  cfi : Cfi.t option;  (** the active policy engine, if any *)
  mutable started : bool;
}

let wire_mech_dispatch env =
  env.Env.mech_routine <- env.Env.translator_entry;
  env.Env.emit_ib <-
    (fun env ~site_pc:_ ~tail ->
      Env.emit_goto_routine env ~tail env.Env.translator_entry)

let setup_shared t =
  let env = t.env in
  env.Env.translator_entry <- Dispatch.emit_routine env;
  (match env.Env.cfg.Config.mech with
  | Config.Dispatch ->
      t.mech <- M_dispatch;
      wire_mech_dispatch env
  | Config.Ibtc icfg ->
      let i = Ibtc.create env icfg in
      t.mech <- M_ibtc i;
      env.Env.mech_routine <-
        (if icfg.Config.shared then Ibtc.routine i else env.Env.translator_entry);
      env.Env.emit_ib <-
        (fun env ~site_pc:_ ~tail -> ignore (Ibtc.emit_site i env ~tail))
  | Config.Sieve scfg ->
      let s = Sieve.create env scfg in
      t.mech <- M_sieve s;
      env.Env.mech_routine <- Sieve.routine s;
      env.Env.emit_ib <-
        (fun env ~site_pc:_ ~tail -> Sieve.emit_site s env ~tail)
  | Config.Adaptive acfg ->
      let a = Adapt.create env acfg in
      t.mech <- M_adapt a;
      (* return-policy and exhausted-prediction fallbacks go through the
         full dispatch routine: they are not per-site misses *)
      env.Env.mech_routine <- env.Env.translator_entry;
      env.Env.emit_ib <-
        (fun env ~site_pc ~tail -> Adapt.emit_site a env ~site_pc ~tail));
  t.ret <-
    (if env.Env.cfg.Config.cfi = Config.Ret_integrity then
       (* return integrity polices every return through an auditing
          shadow stack, whatever return policy was configured (validate
          already rejected Fast_return, which bypasses the translator) *)
       let depth =
         match env.Env.cfg.Config.returns with
         | Config.Shadow_stack { depth } -> depth
         | Config.As_ib | Config.Return_cache _ | Config.Fast_return -> 1024
       in
       Translate.Plan_shadow (Shadow_stack.create ~audit:true env ~depth)
     else
       match env.Env.cfg.Config.returns with
       | Config.As_ib -> Translate.Plan_as_ib
       | Config.Return_cache { entries } ->
           Translate.Plan_retcache (Retcache.create env ~entries)
       | Config.Shadow_stack { depth } ->
           Translate.Plan_shadow (Shadow_stack.create env ~depth)
       | Config.Fast_return -> Translate.Plan_fast)

let reemit_shared t =
  (* Shared routines are re-emitted in exactly the creation order, so
     they land at the same addresses; mechanism tables are merely
     cleared (their storage is stable across flushes). *)
  let env = t.env in
  let te = Dispatch.emit_routine env in
  if te <> env.Env.translator_entry then
    error "flush: dispatch routine moved (%#x -> %#x)" env.Env.translator_entry
      te;
  (match t.mech with
  | M_dispatch -> wire_mech_dispatch env
  | M_ibtc i ->
      Ibtc.on_flush i env;
      env.Env.mech_routine <-
        (match env.Env.cfg.Config.mech with
        | Config.Ibtc { shared = true; _ } -> Ibtc.routine i
        | Config.Ibtc _ | Config.Dispatch | Config.Sieve _
        | Config.Adaptive _ ->
            env.Env.translator_entry)
  | M_sieve s ->
      Sieve.on_flush s env;
      env.Env.mech_routine <- Sieve.routine s
  | M_adapt a ->
      Adapt.on_flush a env;
      env.Env.mech_routine <- env.Env.translator_entry);
  match t.ret with
  | Translate.Plan_retcache rc -> Retcache.on_flush rc t.env
  | Translate.Plan_shadow sh -> Shadow_stack.on_flush sh t.env
  | Translate.Plan_as_ib | Translate.Plan_fast -> ()

let flush_env t () =
  let env = t.env in
  if env.Env.cfg.Config.returns = Config.Fast_return then
    error
      "fragment cache overflow under fast returns: translated return \
       addresses live in application state and cannot be invalidated; \
       increase code_capacity";
  env.Env.stats.Stats.flushes <- env.Env.stats.Stats.flushes + 1;
  env.Env.generation <- env.Env.generation + 1;
  Env.observe env (Sdt_observe.Event.Flush { generation = env.Env.generation });
  (* every emitted address is now invalid: drop the region map and entry
     triggers before the shared routines re-register themselves *)
  Option.iter Observer.on_flush env.Env.obs;
  Hashtbl.reset env.Env.frags;
  Hashtbl.reset env.Env.traps;
  env.Env.ib_site_counters <- [];
  Emitter.reset ~force:true env.Env.em;
  reemit_shared t;
  (* the flushed generation's fragment bodies are gone; membership and
     violation history survive, like the adaptive census *)
  Option.iter Cfi.on_flush t.cfi;
  match env.Env.service with
  | Some s -> s.Env.sv_flushed ()
  | None -> ()

let ensure t app_pc =
  let env = t.env in
  (* a serving-layer invalidation (shared-store eviction hit one of this
     tenant's fragments) is applied lazily, here: translation lookups
     are the one boundary every cached code address passes through, so
     flushing now reuses the ordinary overflow path and the caller
     transparently receives a fresh-generation fragment *)
  (match env.Env.service with
  | Some s when s.Env.sv_flush_pending -> env.Env.flush ()
  | Some _ | None -> ());
  (* every policy refuses to translate a target outside application
     text; for shepherding this is the whole policy *)
  (match t.cfi with Some c -> Cfi.check c env ~target:app_pc | None -> ());
  match Hashtbl.find_opt env.Env.frags app_pc with
  | Some frag -> frag
  | None -> (
      let before = env.Env.stats.Stats.insts_translated in
      let before_bytes = ref (Emitter.used_bytes env.Env.em) in
      let frag =
        try Translate.block env ~ret:t.ret app_pc
        with Emitter.Code_full -> (
          env.Env.flush ();
          before_bytes := Emitter.used_bytes env.Env.em;
          try Translate.block env ~ret:t.ret app_pc
          with Emitter.Code_full ->
            error "a single block overflows the whole code region")
      in
      let n = env.Env.stats.Stats.insts_translated - before in
      (match env.Env.service with
      | None -> Env.charge env (n * env.Env.arch.Arch.translate_per_inst)
      | Some s ->
          let bytes = Emitter.used_bytes env.Env.em - !before_bytes in
          Env.charge env (s.Env.sv_charge ~app_pc ~insts:n ~bytes));
      frag)

(* The standard metric sources. Sources are polled only at sample time,
   so the occupancy scans cost nothing between samples. *)
let register_metrics t obs ~timing =
  match Observer.metrics obs with
  | None -> ()
  | Some m ->
      let env = t.env in
      let stats = env.Env.stats in
      let machine = env.Env.machine in
      List.iter
        (fun (name, _) ->
          Metrics.int_source m ("stats." ^ name) (fun () ->
              List.assoc name (Stats.to_assoc stats)))
        (Stats.to_assoc stats);
      Metrics.int_source m "instructions" (fun () ->
          machine.Machine.c.Machine.instructions);
      Metrics.int_source m "ib_dynamic" (fun () ->
          Machine.ib_dynamic_count machine);
      Metrics.int_source m "fragments" (fun () ->
          Hashtbl.length env.Env.frags);
      Metrics.int_source m "code_bytes" (fun () ->
          Emitter.used_bytes env.Env.em);
      let code_capacity =
        env.Env.layout.Layout.code_limit - env.Env.layout.Layout.code_base
      in
      Metrics.float_source m "code_occupancy" (fun () ->
          float_of_int (Emitter.used_bytes env.Env.em)
          /. float_of_int (max 1 code_capacity));
      Metrics.int_source m "runtime_cycles" (fun () ->
          Timing.runtime_cycles timing);
      Metrics.int_source m "icache_misses" (fun () ->
          Timing.icache_misses timing);
      Metrics.int_source m "dcache_misses" (fun () ->
          Timing.dcache_misses timing);
      Metrics.int_source m "cond_mispredicts" (fun () ->
          Timing.cond_mispredicts timing);
      Metrics.int_source m "indirect_mispredicts" (fun () ->
          Timing.indirect_mispredicts timing);
      Metrics.int_source m "ras_mispredicts" (fun () ->
          Timing.ras_mispredicts timing);
      match t.mech with
      | M_dispatch -> ()
      | M_ibtc i ->
          Metrics.float_source m "ibtc_occupancy" (fun () ->
              Ibtc.occupancy i env);
          (* cumulative, and approximate: the denominator counts every
             executed indirect transfer, including ones a return policy
             or prediction slot absorbed before the IBTC probe *)
          Metrics.float_source m "ibtc_hit_rate" (fun () ->
              let misses =
                stats.Stats.ibtc_misses_full + stats.Stats.ibtc_misses_fast
              in
              let ibs = Machine.ib_dynamic_count machine in
              if ibs = 0 then 0.0
              else 1.0 -. (float_of_int misses /. float_of_int ibs))
      | M_sieve s ->
          Metrics.int_source m "sieve_stubs" (fun () -> Sieve.stub_count s);
          Metrics.int_source m "sieve_max_chain" (fun () -> Sieve.max_chain s);
          Metrics.float_source m "sieve_avg_chain" (fun () -> Sieve.avg_chain s)
      | M_adapt a ->
          Metrics.int_source m "adapt_clock" (fun () -> Adapt.clock a);
          List.iter
            (fun (name, _) ->
              Metrics.float_source m name (fun () ->
                  List.assoc name (Adapt.mech_stats a)))
            (Adapt.mech_stats a)

let install_probes obs ~timing =
  Timing.set_probe timing
    (Some
       (fun ~pc ev ~cycles ->
         Observer.step obs ~pc ~cycles;
         match ev with
         | Timing.Icall { pc; target; _ }
         | Timing.Ijump { pc; target }
         | Timing.Return { pc; target } ->
             Observer.ib_transfer obs ~pc ~target
         | _ -> ()));
  Timing.set_runtime_probe timing (Some (fun n -> Observer.runtime_cycles obs n))

let create ~cfg ~arch ?(timing = Timing.create arch) ?observer
    (program : Program.t) =
  (* translation follows [arch] and cycles are charged to [timing]'s
     arch: two different ones would measure neither *)
  if Timing.arch timing <> arch then
    invalid_arg
      (Printf.sprintf "Runtime.create: ~arch is %s but ~timing models %s"
         arch.Arch.name (Timing.arch timing).Arch.name);
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> error "invalid configuration: %s" msg);
  let machine = Loader.load ~timing program in
  let layout =
    Layout.create
      ~mem_size:(Memory.size machine.Machine.mem)
      ~code_capacity:cfg.Config.code_capacity
  in
  let em =
    Emitter.create ~mem:machine.Machine.mem ~base:layout.Layout.code_base
      ~limit:layout.Layout.code_limit
  in
  let env = Env.create ~cfg ~arch ~machine ~em ~layout in
  (* before any code is emitted, so shared-routine regions register *)
  env.Env.obs <- observer;
  let cfi =
    match cfg.Config.cfi with
    | Config.Cfi_none -> None
    | Config.Cfi_shepherd | Config.Cfi_landing_pad | Config.Cfi_compartment _
    | Config.Ret_integrity ->
        (* the application's text is the segment holding the entry *)
        let text_lo, text_hi =
          match
            List.find_opt
              (fun { Program.base; data } ->
                program.Program.entry >= base
                && program.Program.entry < base + Bytes.length data)
              program.Program.segments
          with
          | Some { Program.base; data } -> (base, base + Bytes.length data)
          | None -> (program.Program.entry, program.Program.entry + 4)
        in
        let c = Cfi.create env ~text_lo ~text_hi ~entry:program.Program.entry in
        Cfi.install c env;
        (match Cfi.link_guard c env with
        | Some g -> Machine.set_cfi_guard machine (Some g)
        | None -> ());
        Some c
  in
  let t =
    {
      env;
      ret = Translate.Plan_as_ib;
      mech = M_dispatch;
      entry = program.Program.entry;
      cfi;
      started = false;
    }
  in
  setup_shared t;
  env.Env.ensure_translated <- (fun pc -> ensure t pc);
  env.Env.flush <- flush_env t;
  Machine.set_trap_handler machine (fun m ~code ~trap_pc ->
      match Hashtbl.find_opt env.Env.traps trap_pc with
      | Some h -> h m ~trap_pc
      | None -> error "stray trap %d at %#x" code trap_pc);
  (match observer with
  | None -> ()
  | Some obs ->
      register_metrics t obs ~timing;
      install_probes obs ~timing);
  t

let start t =
  if not t.started then (
    (try
       let entry_frag = ensure t t.entry in
       (* the initial transfer is statically verified: enter the body *)
       t.env.Env.machine.Machine.pc <- Env.body_entry t.env entry_frag
     with Translate.Unsupported msg -> error "unsupported application: %s" msg);
    t.started <- true)

let run ?max_steps ?(mode = `Block) t =
  let go () =
    start t;
    try Machine.run_mode ?max_steps mode t.env.Env.machine
    with Translate.Unsupported msg -> error "unsupported application: %s" msg
  in
  match t.env.Env.obs with
  | None -> go ()
  | Some obs -> Fun.protect ~finally:(fun () -> Observer.finish obs) go

let advance ?max_steps ?(mode = `Block) t =
  start t;
  let m = t.env.Env.machine in
  let before = m.Machine.c.Machine.instructions in
  (try Machine.run_mode ?max_steps mode m with
  | Machine.Error _
    when Machine.exit_code m = None
         && m.Machine.c.Machine.instructions > before ->
      (* the step budget elapsed mid-run: machine state is intact and
         resumable. A Machine.Error with no forward progress is a real
         fault (e.g. an illegal instruction as the very next step) and
         propagates. *)
      ()
  | Translate.Unsupported msg -> error "unsupported application: %s" msg);
  match Machine.exit_code m with
  | Some code -> `Exited code
  | None -> `Running

let machine t = t.env.Env.machine
let stats t = t.env.Env.stats
let env t = t.env
let code_bytes t = Emitter.used_bytes t.env.Env.em

let fragments t =
  Hashtbl.fold (fun app frag acc -> (app, frag) :: acc) t.env.Env.frags []
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let mech_stats t =
  match t.mech with
  | M_dispatch -> []
  | M_ibtc i -> [ ("ibtc_table_bytes", float_of_int (Ibtc.table_bytes i)) ]
  | M_sieve s ->
      [
        ("sieve_stubs", float_of_int (Sieve.stub_count s));
        ("sieve_max_chain", float_of_int (Sieve.max_chain s));
        ("sieve_avg_chain", Sieve.avg_chain s);
      ]
  | M_adapt a -> Adapt.mech_stats a

let sieve_buckets t =
  match t.mech with
  | M_sieve s -> Sieve.chain_lengths s
  | M_dispatch | M_ibtc _ | M_adapt _ -> []

let adapt_sites t =
  match t.mech with
  | M_adapt a -> Adapt.sites a t.env
  | M_dispatch | M_ibtc _ | M_sieve _ -> []

let adapt_site_at t addr =
  match t.mech with
  | M_adapt a -> Adapt.site_at a t.env addr
  | M_dispatch | M_ibtc _ | M_sieve _ -> None

let ib_site_profile t =
  let mem = t.env.Env.machine.Machine.mem in
  (* overlapping basic blocks can translate the same application IB more
     than once; merge counters by application PC *)
  let by_pc = Hashtbl.create 64 in
  List.iter
    (fun (pc, slot) ->
      let prev = Option.value (Hashtbl.find_opt by_pc pc) ~default:0 in
      Hashtbl.replace by_pc pc (prev + Memory.load_word mem slot))
    t.env.Env.ib_site_counters;
  Hashtbl.fold (fun pc count acc -> (pc, count) :: acc) by_pc []
  |> List.sort (fun (pa, a) (pb, b) ->
         if a = b then compare pa pb else compare b a)

let cfi_elided t =
  match t.env.Env.cfi with
  | None -> 0
  | Some _ ->
      max 0
        (Machine.ib_dynamic_count t.env.Env.machine
        - t.env.Env.stats.Stats.cfi_checks)

let cfi_report t =
  match t.cfi with None -> [] | Some c -> Cfi.report c

let cfi_violations_at t pc =
  match t.cfi with None -> 0 | Some c -> Cfi.violations_at c pc

let cfi_violation_sites t =
  match t.cfi with None -> [] | Some c -> Cfi.violation_sites c

let cfi_compartment_of t addr =
  match t.cfi with None -> None | Some c -> Cfi.compartment_of c addr

let instrumented_memops t =
  Memory.load_word t.env.Env.machine.Machine.mem
    t.env.Env.layout.Layout.counter_slot

let flush t = flush_env t ()
