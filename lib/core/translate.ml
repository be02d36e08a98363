module Inst = Sdt_isa.Inst
module Reg = Sdt_isa.Reg
module Arch = Sdt_march.Arch
module Machine = Sdt_machine.Machine
module Memory = Sdt_machine.Memory

type ret_plan =
  | Plan_as_ib
  | Plan_retcache of Retcache.t
  | Plan_shadow of Shadow_stack.t
  | Plan_fast

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let jump_region_target pc target =
  (* direct J/Jal semantics: target lives in the 256MiB region of pc+4 *)
  ((pc + 4) land 0xF000_0000) lor (target lsl 2)

(* An exit stub for a direct transfer to [app_target]. With linking it
   is a single trap word that the first execution patches into a direct
   jump; without linking it is a constant-target entry into the full
   dispatch path, taken on every execution. *)
let emit_exit_stub (env : Env.t) app_target =
  let em = env.Env.em in
  if env.Env.cfg.Config.link_direct then begin
    let stub_at = Emitter.here em in
    let gen = env.Env.generation in
    Env.emit_trap env ~code:Env.trap_link (fun m ~trap_pc:_ ->
        let frag = env.Env.ensure_translated app_target in
        (* a patched link is a statically verified direct transfer: it
           enters past the landing pad, which polices indirect claims *)
        let entry = Env.body_entry env frag in
        Env.charge env
          (env.Env.arch.Arch.trap_cycles + env.Env.arch.Arch.lookup_cycles);
        if env.Env.generation = gen then begin
          env.Env.stats.Stats.links <- env.Env.stats.Stats.links + 1;
          Env.observe env
            (Sdt_observe.Event.Link_patched { app_target; frag });
          Emitter.patch em stub_at (Inst.J ((entry lsr 2) land 0x3FF_FFFF))
        end;
        m.Machine.pc <- entry)
  end
  else begin
    Emitter.li32 em Reg.k0 app_target;
    Emitter.jump_abs em `J env.Env.translator_entry
  end

let emit_mv_k0 env rs =
  Emitter.emit env.Env.em (Inst.Add (Reg.k0, rs, Reg.zero))

let is_memop (i : Inst.t) =
  match i with
  | Inst.Lw _ | Inst.Lb _ | Inst.Lbu _ | Inst.Sw _ | Inst.Sb _ -> true
  | _ -> false

(* instrumentation: bump the counter slot before a memory operation *)
let emit_memop_probe (env : Env.t) =
  let em = env.Env.em in
  Emitter.li32 em Reg.k1 env.Env.layout.Layout.counter_slot;
  Emitter.emit em (Inst.Lw (Reg.at, Reg.k1, 0));
  Emitter.emit em (Inst.Addi (Reg.at, Reg.at, 1));
  Emitter.emit em (Inst.Sw (Reg.at, Reg.k1, 0))

(* instrumentation: bump a per-site execution counter *)
let emit_site_counter (env : Env.t) ~site_pc =
  let em = env.Env.em in
  let slot = Layout.alloc env.Env.layout ~bytes:4 in
  Memory.store_word env.Env.machine.Machine.mem slot 0;
  env.Env.ib_site_counters <- (site_pc, slot) :: env.Env.ib_site_counters;
  Emitter.li32 em Reg.k1 slot;
  Emitter.emit em (Inst.Lw (Reg.at, Reg.k1, 0));
  Emitter.emit em (Inst.Addi (Reg.at, Reg.at, 1));
  Emitter.emit em (Inst.Sw (Reg.at, Reg.k1, 0))

(* the profiling stage of an IB site: an optional execution counter *)
let emit_profile_stage (env : Env.t) ~site_pc =
  if env.Env.cfg.Config.profile_ib_sites then
    Env.observing_emit env "site counter" (fun () ->
        emit_site_counter env ~site_pc)

(* The staged IB-site pipeline: profiling stage (optional site counter),
   policy stage (the installed CFI hooks' per-site emission), prediction
   stage (optional inline target prediction), then the mechanism stage —
   every mechanism, static or adaptive, goes through this one path, so a
   policy composes with all of them identically. *)
let emit_mech ?(pred = false) ?cont ?(kind = Env.Ib_jump) (env : Env.t)
    ~site_pc ~tail =
  env.Env.stats.Stats.ib_sites <- env.Env.stats.Stats.ib_sites + 1;
  emit_profile_stage env ~site_pc;
  Env.cfi_emit_site env ~site_pc ~kind;
  if pred && env.Env.cfg.Config.pred_depth > 0 then
    Env.observing_emit env "pred slots" (fun () ->
        Target_pred.emit_site env ~depth:env.Env.cfg.Config.pred_depth ~tail
          ?cont ());
  let mech_name =
    match env.Env.cfg.Config.mech with
    | Config.Dispatch -> "dispatch call"
    | Config.Ibtc _ -> "ibtc probe"
    | Config.Sieve _ -> "sieve probe"
    | Config.Adaptive _ -> "adaptive site"
  in
  Env.observing_emit env mech_name (fun () ->
      env.Env.emit_ib env ~site_pc ~tail)

let translate_direct_call (env : Env.t) ~ret ~callee ~app_ret =
  let em = env.Env.em in
  match ret with
  | Plan_as_ib ->
      Emitter.li32 em Reg.ra app_ret;
      emit_exit_stub env callee
  | Plan_retcache rc ->
      let re = Emitter.fresh em in
      Retcache.emit_call_site rc env ~app_ret ~re;
      Emitter.li32 em Reg.ra app_ret;
      emit_exit_stub env callee;
      Retcache.emit_return_entry rc env ~app_ret ~re;
      emit_exit_stub env app_ret
  | Plan_shadow sh ->
      let re = Emitter.fresh em in
      Shadow_stack.emit_call_site sh env ~app_ret ~re;
      Emitter.li32 em Reg.ra app_ret;
      emit_exit_stub env callee;
      Emitter.place em re;
      emit_exit_stub env app_ret
  | Plan_fast ->
      (* a real jal so the hardware RAS pairs with the callee's return;
         the jal is linked (patched to jal fragment) on first execution *)
      let lstub = Emitter.fresh em in
      let jal_at = Emitter.here em in
      Emitter.jump_to em `Jal lstub;
      emit_exit_stub env app_ret;
      Emitter.place em lstub;
      let gen = env.Env.generation in
      Env.emit_trap env ~code:Env.trap_link_call (fun m ~trap_pc:_ ->
          let frag = env.Env.ensure_translated callee in
          let entry = Env.body_entry env frag in
          Env.charge env
            (env.Env.arch.Arch.trap_cycles + env.Env.arch.Arch.lookup_cycles);
          if env.Env.generation = gen then begin
            env.Env.stats.Stats.links <- env.Env.stats.Stats.links + 1;
            Env.observe env
              (Sdt_observe.Event.Link_patched { app_target = callee; frag });
            Emitter.patch em jal_at (Inst.Jal ((entry lsr 2) land 0x3FF_FFFF))
          end;
          m.Machine.pc <- entry)

let translate_icall (env : Env.t) ~ret ~rd ~rs ~app_ret =
  let em = env.Env.em in
  match ret with
  | Plan_fast when rd = Reg.ra ->
      emit_mv_k0 env rs;
      let cont = Emitter.fresh em in
      emit_mech ~pred:true ~cont ~kind:Env.Ib_call env ~site_pc:(app_ret - 4)
        ~tail:Env.Tail_jalr_ra;
      Emitter.place em cont;
      emit_exit_stub env app_ret
  | Plan_as_ib | Plan_retcache _ | Plan_shadow _ | Plan_fast ->
      (* transparent translation; return-policy call setup only pairs
         with returns when the call writes $ra *)
      let paired = rd = Reg.ra in
      let re =
        match ret with
        | Plan_retcache rc when paired ->
            let re = Emitter.fresh em in
            Retcache.emit_call_site rc env ~app_ret ~re;
            Some (`Rc (rc, re))
        | Plan_shadow sh when paired ->
            let re = Emitter.fresh em in
            Shadow_stack.emit_call_site sh env ~app_ret ~re;
            Some (`Sh re)
        | Plan_as_ib | Plan_retcache _ | Plan_shadow _ | Plan_fast -> None
      in
      emit_mv_k0 env rs;
      Emitter.li32 em rd app_ret;
      emit_mech ~pred:true ~kind:Env.Ib_call env ~site_pc:(app_ret - 4)
        ~tail:Env.Tail_jr;
      (match re with
      | Some (`Rc (rc, re)) ->
          Retcache.emit_return_entry rc env ~app_ret ~re;
          emit_exit_stub env app_ret
      | Some (`Sh re) ->
          Emitter.place em re;
          emit_exit_stub env app_ret
      | None -> ())

let translate_return (env : Env.t) ~ret ~site_pc =
  match ret with
  | Plan_as_ib ->
      emit_mv_k0 env Reg.ra;
      emit_mech ~kind:Env.Ib_return env ~site_pc ~tail:Env.Tail_jr
  | Plan_retcache rc ->
      (* the return mechanisms bypass emit_mech, so they run the
         profiling and policy site stages themselves: their miss paths
         fall back through the shared mechanism routine, where the
         monitor reads the site *)
      emit_profile_stage env ~site_pc;
      Env.cfi_emit_site env ~site_pc ~kind:Env.Ib_return;
      Retcache.emit_return_site rc env
  | Plan_shadow sh ->
      emit_profile_stage env ~site_pc;
      Env.cfi_emit_site env ~site_pc ~kind:Env.Ib_return;
      Shadow_stack.emit_return_site sh env ~site_pc
  | Plan_fast ->
      emit_profile_stage env ~site_pc;
      Emitter.emit env.Env.em (Inst.Jr Reg.ra)

let block (env : Env.t) ~ret app_pc =
  match Hashtbl.find_opt env.Env.frags app_pc with
  | Some frag -> frag
  | None ->
      let em = env.Env.em in
      let mem = env.Env.machine.Machine.mem in
      let frag = Emitter.here em in
      Hashtbl.replace env.Env.frags app_pc frag;
      let stats = env.Env.stats in
      stats.Stats.blocks_translated <- stats.Stats.blocks_translated + 1;
      let insts_before = stats.Stats.insts_translated in
      let count_inst () =
        stats.Stats.insts_translated <- stats.Stats.insts_translated + 1
      in
      (* under superblock formation, taken sides of conditional branches
         get their exit stubs deferred to the end of the fragment so the
         fall-through path (NET's "next executing tail" heuristic) can
         keep translating inline *)
      let deferred = ref [] in
      (* application PCs already inlined into this fragment: following a
         jump back into them would unroll loops indefinitely *)
      let seen = Hashtbl.create 16 in
      let rec go pc n =
        if n >= env.Env.cfg.Config.block_limit then emit_exit_stub env pc
        else begin
          Hashtbl.replace seen pc ();
          let i = Memory.fetch mem pc in
          count_inst ();
          match i with
          | Inst.Beq _ | Inst.Bne _ | Inst.Blt _ | Inst.Bge _ | Inst.Bltu _
          | Inst.Bgeu _
            when env.Env.cfg.Config.follow_direct_jumps
                 && n + 1 < env.Env.cfg.Config.block_limit ->
              let off = Option.get (Inst.branch_offset i) in
              let taken = pc + 4 + (off * 4) in
              let ltaken = Emitter.fresh em in
              Emitter.branch_to em i ltaken;
              deferred := (ltaken, taken) :: !deferred;
              go (pc + 4) (n + 1)
          | Inst.Beq _ | Inst.Bne _ | Inst.Blt _ | Inst.Bge _ | Inst.Bltu _
          | Inst.Bgeu _ ->
              let off = Option.get (Inst.branch_offset i) in
              let taken = pc + 4 + (off * 4) in
              let fall = pc + 4 in
              let ltaken = Emitter.fresh em in
              Emitter.branch_to em i ltaken;
              emit_exit_stub env fall;
              Emitter.place em ltaken;
              emit_exit_stub env taken
          | Inst.J target ->
              let dest = jump_region_target pc target in
              if
                env.Env.cfg.Config.follow_direct_jumps
                && n + 1 < env.Env.cfg.Config.block_limit
                && (not (Hashtbl.mem seen dest))
                && not (Hashtbl.mem env.Env.frags dest)
              then
                (* superblock formation: elide the jump and keep
                   translating at the destination — but only forward into
                   untranslated code; jumps back into this trace (loops)
                   or to existing fragments link instead of duplicating *)
                go dest (n + 1)
              else emit_exit_stub env dest
          | Inst.Jal target ->
              translate_direct_call env ~ret
                ~callee:(jump_region_target pc target)
                ~app_ret:(pc + 4)
          | Inst.Jr rs when rs = Reg.ra -> translate_return env ~ret ~site_pc:pc
          | Inst.Jr rs ->
              if Reg.is_reserved rs then
                unsupported "jr through reserved register at %#x" pc;
              emit_mv_k0 env rs;
              emit_mech ~pred:true env ~site_pc:pc ~tail:Env.Tail_jr
          | Inst.Jalr (rd, rs) ->
              if Reg.is_reserved rs || Reg.is_reserved rd then
                unsupported "jalr touching reserved register at %#x" pc;
              translate_icall env ~ret ~rd ~rs ~app_ret:(pc + 4)
          | Inst.Halt -> Emitter.emit em Inst.Halt
          | Inst.Trap _ ->
              unsupported "application trap instruction at %#x" pc
          | Inst.Illegal w ->
              unsupported "undecodable word %#x at %#x" w pc
          | Inst.Nop | Inst.Add _ | Inst.Sub _ | Inst.Mul _ | Inst.Div _
          | Inst.Rem _ | Inst.And _ | Inst.Or _ | Inst.Xor _ | Inst.Nor _
          | Inst.Slt _ | Inst.Sltu _ | Inst.Sllv _ | Inst.Srlv _
          | Inst.Srav _ | Inst.Sll _ | Inst.Srl _ | Inst.Sra _ | Inst.Addi _
          | Inst.Slti _ | Inst.Sltiu _ | Inst.Andi _ | Inst.Ori _
          | Inst.Xori _ | Inst.Lui _ | Inst.Lw _ | Inst.Lb _ | Inst.Lbu _
          | Inst.Sw _ | Inst.Sb _ | Inst.Syscall ->
              if Inst.uses_reserved i then
                unsupported "reserved register used by application at %#x" pc;
              if env.Env.cfg.Config.count_memops && is_memop i then
                emit_memop_probe env;
              Emitter.emit em i;
              go (pc + 4) (n + 1)
        end
      in
      (* policy landing pad first: every fragment's indirect entry point
         verifies the claimed target before the body runs *)
      Env.cfi_emit_pad env ~app_pc;
      go app_pc 0;
      List.iter
        (fun (l, target) ->
          Emitter.place em l;
          emit_exit_stub env target)
        (List.rev !deferred);
      Env.observe_region env ~lo:frag ~hi:(Emitter.here em)
        (Sdt_observe.Profile.App app_pc);
      Env.observe env
        (Sdt_observe.Event.Block_translated
           {
             app_pc;
             frag;
             insts = stats.Stats.insts_translated - insts_before;
           });
      frag
