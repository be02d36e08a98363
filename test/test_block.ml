(* Tests for the decoded basic-block interpreter: bit-exactness of
   block mode against the per-step path (native and under every SDT
   mechanism), and correctness under self-modifying code — the block
   cache must notice guest stores and host [write_bytes] patches into
   decoded code and re-decode before the stale block runs again. *)

module Word = Sdt_isa.Word
module Reg = Sdt_isa.Reg
module Inst = Sdt_isa.Inst
module Encode = Sdt_isa.Encode
module Builder = Sdt_isa.Builder
module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Memory = Sdt_machine.Memory
module Machine = Sdt_machine.Machine
module Block = Sdt_machine.Block
module Loader = Sdt_machine.Loader
module Config = Sdt_core.Config
module Stats = Sdt_core.Stats
module Runtime = Sdt_core.Runtime
module Suite = Sdt_workloads.Suite
module Synthetic = Sdt_workloads.Synthetic
module Run = Sdt_harness.Run

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string

(* Everything the harness reports for a run; two runs are equivalent
   exactly when these records are equal. *)
type fingerprint = {
  cycles : int;
  runtime_cycles : int;
  instructions : int;
  output : string;
  checksum : int;
  icache_misses : int;
  dcache_misses : int;
  cond_misp : int;
  ind_misp : int;
  ras_misp : int;
  stats : (string * int) list;
}

let fingerprint ~timing ~stats m =
  {
    cycles = Timing.cycles timing;
    runtime_cycles = Timing.runtime_cycles timing;
    instructions = m.Machine.c.Machine.instructions;
    output = Machine.output m;
    checksum = m.Machine.checksum;
    icache_misses = Timing.icache_misses timing;
    dcache_misses = Timing.dcache_misses timing;
    cond_misp = Timing.cond_mispredicts timing;
    ind_misp = Timing.indirect_mispredicts timing;
    ras_misp = Timing.ras_mispredicts timing;
    stats;
  }

let native_fingerprint arch program mode =
  let timing = Timing.create arch in
  let m = Loader.load ~timing program in
  Machine.run_mode mode m;
  fingerprint ~timing ~stats:[] m

let sdt_fingerprint arch cfg program mode =
  let timing = Timing.create arch in
  let rt = Runtime.create ~cfg ~arch ~timing program in
  Runtime.run ~mode rt;
  fingerprint ~timing ~stats:(Stats.to_assoc (Runtime.stats rt))
    (Runtime.machine rt)

let pp_fingerprint fp =
  Printf.sprintf
    "cycles=%d runtime=%d instrs=%d checksum=%d ic=%d dc=%d cond=%d ind=%d \
     ras=%d out=%S"
    fp.cycles fp.runtime_cycles fp.instructions fp.checksum fp.icache_misses
    fp.dcache_misses fp.cond_misp fp.ind_misp fp.ras_misp fp.output

let check_equivalent label step block =
  if step <> block then
    Alcotest.failf "%s diverged:\n  step:  %s\n  block: %s" label
      (pp_fingerprint step) (pp_fingerprint block)

(* Three-way: per-step execution is the semantic reference; both block
   modes (chained, the default, and with links disabled) must be
   bit-identical to it. *)
let check_three_way label fp_of_mode =
  let step = fp_of_mode `Step in
  List.iter
    (fun mode ->
      let fp = fp_of_mode mode in
      if step <> fp then
        Alcotest.failf "%s diverged:\n  step: %s\n  %s: %s" label
          (pp_fingerprint step)
          (Machine.string_of_mode mode)
          (pp_fingerprint fp))
    [ `Block; `Block_nochain ]

(* ------------------------------------------------------------------ *)
(* Native equivalence: all 14 workloads x archA/archB and ideal, the
   model of every machine loaded without [~timing] *)

let test_native_equivalence () =
  List.iter
    (fun (e : Suite.entry) ->
      let program = Suite.program e `Test in
      check Alcotest.bool
        (e.Suite.name ^ ": Loader.load without ~timing runs on ideal")
        true
        (Timing.arch (Loader.load program).Machine.timing = Arch.ideal);
      List.iter
        (fun arch ->
          check_three_way
            (Printf.sprintf "native %s on %s" e.Suite.name arch.Arch.name)
            (native_fingerprint arch program))
        [ Arch.arch_a; Arch.arch_b; Arch.ideal ])
    Suite.all

(* ------------------------------------------------------------------ *)
(* SDT equivalence: all 14 workloads x archA/archB x every mechanism *)

let mech_configs =
  [
    ("dispatch", Config.baseline);
    ("ibtc-shared", Config.default);
    ( "ibtc-per-branch",
      {
        Config.default with
        mech =
          Ibtc
            {
              Config.default_ibtc with
              shared = false;
              miss = Config.Full_switch;
            };
        returns = Config.As_ib;
      } );
    ( "sieve",
      {
        Config.default with
        mech = Sieve { buckets = 512; insert_at_head = true };
        returns = Config.Shadow_stack { depth = 64 };
      } );
    ( "adaptive",
      { Config.default with mech = Config.Adaptive Config.default_adaptive } );
  ]

let test_sdt_equivalence () =
  List.iter
    (fun (e : Suite.entry) ->
      let program = Suite.program e `Test in
      List.iter
        (fun arch ->
          List.iter
            (fun (mech_name, cfg) ->
              check_three_way
                (Printf.sprintf "sdt %s/%s on %s" e.Suite.name mech_name
                   arch.Arch.name)
                (sdt_fingerprint arch cfg program))
            mech_configs)
        [ Arch.arch_a; Arch.arch_b ])
    Suite.all

(* ------------------------------------------------------------------ *)
(* Self-modifying code: a guest store that patches an instruction
   *later in the currently-executing block*. The straight-line run from
   [main] decodes as one block containing the original [addi $a0,5];
   the [sw] overwrites that word before execution reaches it, so the
   executor must abandon the stale decoding mid-block. *)

let smc_program () =
  let b = Builder.create () in
  let start = Builder.here b in
  let target = Builder.fresh_label b in
  Builder.li b Reg.t1 (Encode.inst (Inst.Addi (Reg.a0, Reg.zero, 9)));
  Builder.la b Reg.t2 target;
  Builder.emit b (Inst.Sw (Reg.t1, Reg.t2, 0));
  Builder.place b target;
  Builder.emit b (Inst.Addi (Reg.a0, Reg.zero, 5));
  Builder.li b Reg.v0 1;
  Builder.syscall b;
  Builder.halt b;
  Builder.assemble b ~entry:start

let test_smc_store_word () =
  List.iter
    (fun mode ->
      let m = Loader.load (smc_program ()) in
      Machine.run_mode mode m;
      check string
        (Printf.sprintf "patched instruction executed (%s)"
           (Machine.string_of_mode mode))
        "9" (Machine.output m))
    Machine.modes;
  (* and the modes agree on every counter, not just the output *)
  let program = smc_program () in
  check_three_way "smc store_word" (native_fingerprint Arch.arch_a program)

(* Host-side patching, linker-style: a trap handler overwrites an
   *already executed* instruction via [Memory.write_bytes] (the same
   entry point the SDT loader and emitter patching go through). The
   loop body runs once with the original word, is patched by the host
   between iterations, and must show the new code on re-entry. *)

let smc_write_bytes_program () =
  let b = Builder.create () in
  let start = Builder.here b in
  let target = Builder.fresh_label b in
  let done_ = Builder.fresh_label b in
  Builder.li b Reg.t3 2;
  let loop = Builder.here b in
  Builder.place b target;
  Builder.emit b (Inst.Addi (Reg.a0, Reg.zero, 5));
  Builder.li b Reg.v0 1;
  Builder.syscall b;
  Builder.emit b (Inst.Trap 1);
  Builder.emit b (Inst.Addi (Reg.t3, Reg.t3, -1));
  Builder.bne b Reg.t3 Reg.zero loop;
  Builder.place b done_;
  Builder.halt b;
  (Builder.assemble b ~entry:start, target)

let test_smc_write_bytes () =
  List.iter
    (fun mode ->
      let program, _ = smc_write_bytes_program () in
      (* the patch target is the first loop instruction: find it by
         scanning for the original encoding in the text segment *)
      let original = Encode.inst (Inst.Addi (Reg.a0, Reg.zero, 5)) in
      let replacement = Encode.inst (Inst.Addi (Reg.a0, Reg.zero, 9)) in
      let m = Loader.load program in
      let patch_addr = ref (-1) in
      let a = ref 0 in
      while !patch_addr < 0 do
        if Memory.load_word m.Machine.mem !a = original then patch_addr := !a;
        a := !a + 4
      done;
      let patched = ref false in
      Machine.set_trap_handler m (fun m ~code:_ ~trap_pc ->
          if not !patched then begin
            patched := true;
            let bytes = Bytes.create 4 in
            Bytes.set_int32_le bytes 0 (Int32.of_int replacement);
            Memory.write_bytes m.Machine.mem !patch_addr bytes
          end;
          m.Machine.pc <- trap_pc + 4);
      Machine.run_mode mode m;
      check string
        (Printf.sprintf "host patch visible on re-entry (%s)"
           (Machine.string_of_mode mode))
        "59" (Machine.output m))
    Machine.modes

(* The SDT's own self-modification — fragment emission and exit-stub
   linking through [Memory.store_word] — exercised end to end: a
   translated run in block mode, where the translator keeps patching
   code the block cache has already decoded and executed. *)

let test_smc_translator_patching () =
  let e = Option.get (Suite.find "perlbmk") in
  let program = Suite.program e `Test in
  List.iter
    (fun (mech_name, cfg) ->
      check_three_way
        ("translator patching under " ^ mech_name)
        (sdt_fingerprint Arch.arch_a cfg program))
    mech_configs

(* ------------------------------------------------------------------ *)
(* qcheck differential: random synthetic programs x mechanisms x
   arches; block mode must be bit-identical to step mode on every
   measured quantity. *)

let qcheck_block_equivalence =
  let open QCheck in
  let gen =
    Gen.(
      let* ib_sites = 1 -- 6 in
      let* targets = 2 -- 16 in
      let* fns = 0 -- 4 in
      let* recursion_depth = 0 -- 4 in
      let* iters = 20 -- 120 in
      let* seed = 0 -- 1000 in
      let* arch = oneofl [ Arch.arch_a; Arch.arch_b; Arch.arch_c ] in
      let* mech =
        oneofl
          [
            Config.Dispatch;
            Config.Ibtc Config.default_ibtc;
            Config.Ibtc { Config.default_ibtc with shared = false };
            Config.Sieve { buckets = 256; insert_at_head = true };
            Config.Adaptive Config.default_adaptive;
          ]
      in
      let* returns =
        oneofl
          [
            Config.As_ib;
            Config.Return_cache { entries = 1024 };
            Config.Shadow_stack { depth = 256 };
          ]
      in
      let* pred_depth = oneofl [ 0; 1; 2 ] in
      return
        ( { Synthetic.ib_sites; targets; fns; recursion_depth; iters; seed },
          arch,
          mech,
          returns,
          pred_depth ))
  in
  let arb =
    make
      ~print:(fun (p, arch, mech, returns, pred) ->
        Printf.sprintf "sites=%d targets=%d fns=%d rec=%d iters=%d seed=%d \
                        arch=%s %s pred=%d"
          p.Synthetic.ib_sites p.Synthetic.targets p.Synthetic.fns
          p.Synthetic.recursion_depth p.Synthetic.iters p.Synthetic.seed
          arch.Arch.name
          (Config.describe { Config.default with mech; returns })
          pred)
      gen
  in
  QCheck.Test.make ~count:40
    ~name:"step vs block vs chained bit-identical (random programs)" arb
    (fun (params, arch, mech, returns, pred_depth) ->
      let cfg = { Config.default with mech; returns; pred_depth } in
      let program = Synthetic.build params in
      let native_step = native_fingerprint arch program `Step in
      let sdt_step = sdt_fingerprint arch cfg program `Step in
      List.for_all
        (fun mode ->
          native_step = native_fingerprint arch program mode
          && sdt_step = sdt_fingerprint arch cfg program mode)
        [ `Block; `Block_nochain ])

(* qcheck differential for the adaptive IB mechanism: over random
   synthetic programs x arch x return policy, a run under Adaptive must
   be output-bit-exact against every static mechanism and against
   native — same program output (the syscall stream), same memory
   checksum, same exit code, same final application register file.
   Only timing and the translated instruction stream may differ. The
   adaptive thresholds are set low so test-sized programs actually
   take tier transitions mid-run rather than comparing a permanent
   inline cache. *)
let qcheck_adaptive_differential =
  let open QCheck in
  let eager =
    Config.Adaptive
      {
        Config.default_adaptive with
        ic_rebinds = 1;
        poly_entropy_bits = 1.0;
        site_ibtc_entries = 16;
        ibtc_promote_misses = 2;
        site_sieve_buckets = 8;
        sieve_promote_chain = 2;
        demote_window = 64;
      }
  in
  let statics =
    [
      Config.Dispatch;
      Config.Ibtc Config.default_ibtc;
      Config.Ibtc { Config.default_ibtc with shared = false };
      Config.Sieve { buckets = 256; insert_at_head = true };
    ]
  in
  (* the translator-reserved registers ($at, $k0, $k1) are scratch for
     whichever mechanism ran last; every other register is application
     state and must agree *)
  let reserved = [ Reg.at; Reg.k0; Reg.k1 ] in
  let observable arch cfg program =
    let timing = Timing.create arch in
    let rt = Runtime.create ~cfg ~arch ~timing program in
    Runtime.run ~mode:`Block rt;
    let m = Runtime.machine rt in
    ( Machine.output m,
      m.Machine.checksum,
      Machine.exit_code m,
      List.init 32 (fun r ->
          if List.mem r reserved then 0 else Machine.reg m r) )
  in
  let native_observable arch program =
    let timing = Timing.create arch in
    let m = Loader.load ~timing program in
    Machine.run_blocks m;
    ( Machine.output m,
      m.Machine.checksum,
      Machine.exit_code m,
      List.init 32 (fun r ->
          if List.mem r reserved then 0 else Machine.reg m r) )
  in
  let gen =
    Gen.(
      let* ib_sites = 1 -- 6 in
      let* targets = 2 -- 16 in
      let* fns = 0 -- 4 in
      let* recursion_depth = 0 -- 4 in
      let* iters = 20 -- 120 in
      let* seed = 0 -- 1000 in
      let* arch = oneofl [ Arch.arch_a; Arch.arch_b; Arch.arch_c ] in
      let* returns =
        oneofl
          [
            Config.As_ib;
            Config.Return_cache { entries = 1024 };
            Config.Shadow_stack { depth = 256 };
          ]
      in
      return
        ({ Synthetic.ib_sites; targets; fns; recursion_depth; iters; seed },
         arch,
         returns))
  in
  let arb =
    make
      ~print:(fun (p, arch, returns) ->
        Printf.sprintf
          "sites=%d targets=%d fns=%d rec=%d iters=%d seed=%d arch=%s %s"
          p.Synthetic.ib_sites p.Synthetic.targets p.Synthetic.fns
          p.Synthetic.recursion_depth p.Synthetic.iters p.Synthetic.seed
          arch.Arch.name
          (Config.describe { Config.default with returns }))
      gen
  in
  QCheck.Test.make ~count:30
    ~name:"adaptive output-bit-exact vs every static mechanism" arb
    (fun (params, arch, returns) ->
      let program = Synthetic.build params in
      let adaptive =
        observable arch { Config.default with mech = eager; returns } program
      in
      adaptive = native_observable arch program
      && List.for_all
           (fun mech ->
             observable arch { Config.default with mech; returns } program
             = adaptive)
           statics)

(* SMC variant: the guest toggles an instruction inside its own hot
   loop every iteration (XOR with the difference of two encodings), so
   every pass both aborts the current block mid-body (the store
   patches ahead of itself) and bumps the generation under the loop's
   already-forged back-edge link. The abort re-enters through the cache
   probe, which recompiles the stale block and drops its links, so every
   iteration pays an invalidation. All three modes must agree, and the
   output must prove the patches actually executed (alternating
   +2/+1). *)

let smc_toggle_program iters =
  let enc_a = Encode.inst (Inst.Addi (Reg.a0, Reg.a0, 1)) in
  let enc_b = Encode.inst (Inst.Addi (Reg.a0, Reg.a0, 2)) in
  let b = Builder.create () in
  let start = Builder.here b in
  let site = Builder.fresh_label b in
  let loop_head = Builder.fresh_label b in
  Builder.li b Reg.t1 (enc_a lxor enc_b) (* toggle mask *);
  Builder.la b Reg.t2 site;
  Builder.li b Reg.t5 iters;
  Builder.place b loop_head;
  (* patch the site before control reaches it, two instructions on *)
  Builder.emit b (Inst.Lw (Reg.t6, Reg.t2, 0));
  Builder.emit b (Inst.Xor (Reg.t6, Reg.t6, Reg.t1));
  Builder.emit b (Inst.Sw (Reg.t6, Reg.t2, 0));
  Builder.place b site;
  Builder.emit b (Inst.Addi (Reg.a0, Reg.a0, 1));
  Builder.emit b (Inst.Addi (Reg.t5, Reg.t5, -1));
  Builder.bne b Reg.t5 Reg.zero loop_head;
  Builder.li b Reg.v0 1;
  Builder.syscall b;
  Builder.halt b;
  Builder.assemble b ~entry:start

(* Cross-block SMC: the loop is split into two chained blocks by a
   never-taken branch; block 1 computes a store target that is a dead
   scratch word on every iteration except the trigger one, where it
   points at the first instruction of block 2 — live decoded code in a
   *different* block, which the loop reaches again through its chain
   links.
   Iterations before the trigger add 1, the trigger iteration and every
   one after it add 2 (the trigger iteration already executes the
   patched word), so the output is [iters + trigger]. *)

let smc_cross_block_program ~iters ~trigger =
  let b = Builder.create () in
  let start = Builder.here b in
  let site = Builder.fresh_label b in
  let loop_head = Builder.fresh_label b in
  let scratch = Builder.fresh_label b in
  Builder.li b Reg.t5 iters;
  Builder.li b Reg.t3 trigger;
  Builder.li b Reg.t9 (Encode.inst (Inst.Addi (Reg.a0, Reg.a0, 2)));
  Builder.la b Reg.t7 site;
  Builder.la b Reg.t8 scratch;
  Builder.emit b (Inst.Sub (Reg.t4, Reg.t7, Reg.t8)) (* site - scratch *);
  Builder.place b loop_head;
  Builder.emit b (Inst.Xor (Reg.t6, Reg.t5, Reg.t3));
  Builder.emit b (Inst.Sltiu (Reg.t6, Reg.t6, 1)) (* t5 = trigger? *);
  Builder.emit b (Inst.Mul (Reg.t7, Reg.t6, Reg.t4));
  Builder.emit b (Inst.Add (Reg.t2, Reg.t8, Reg.t7)) (* scratch or site *);
  Builder.emit b (Inst.Sw (Reg.t9, Reg.t2, 0));
  (* never taken: forces a block boundary so the store above and the
     patch site below live in different chained blocks *)
  Builder.bne b Reg.zero Reg.zero loop_head;
  Builder.place b site;
  Builder.emit b (Inst.Addi (Reg.a0, Reg.a0, 1));
  Builder.emit b (Inst.Addi (Reg.t5, Reg.t5, -1));
  Builder.bne b Reg.t5 Reg.zero loop_head;
  Builder.li b Reg.v0 1;
  Builder.syscall b;
  Builder.halt b;
  (* dead scratch word past the halt: stored to every non-trigger
     iteration, never fetched, so those stores cannot bump the code
     generation *)
  Builder.place b scratch;
  Builder.nop b;
  Builder.assemble b ~entry:start

let qcheck_smc_chain_severing =
  let open QCheck in
  let arb =
    make
      ~print:(fun (iters, trigger, arch) ->
        Printf.sprintf "iters=%d trigger=%d arch=%s" iters trigger
          arch.Arch.name)
      Gen.(
        let* iters = 1 -- 60 in
        let* trigger = 1 -- iters in
        let* arch = oneofl [ Arch.arch_a; Arch.arch_b; Arch.arch_c ] in
        return (iters, trigger, arch))
  in
  (* step output is [expected] and both block modes match step exactly *)
  let agrees arch program expected =
    let step = native_fingerprint arch program `Step in
    step.output = expected
    && List.for_all
         (fun mode -> step = native_fingerprint arch program mode)
         [ `Block; `Block_nochain ]
  in
  QCheck.Test.make ~count:30
    ~name:"mid-run code patching severs chains bit-exactly" arb
    (fun (iters, trigger, arch) ->
      (* toggle: iteration i executes +2 when the toggle flipped A->B
         (odd i) *)
      let toggled =
        let sum = ref 0 in
        for i = 1 to iters do
          sum := !sum + (if i land 1 = 1 then 2 else 1)
        done;
        string_of_int !sum
      in
      agrees arch (smc_toggle_program iters) toggled
      && agrees arch
           (smc_cross_block_program ~iters ~trigger)
           (string_of_int (iters + trigger)))

(* ------------------------------------------------------------------ *)
(* Direct-mapped collision regression: two hot call targets whose
   start PCs alias the same block-cache slot (4 * Block.slots bytes
   apart). Each call evicts the other's block from the table, but
   chained links keep the evicted ("ghost") block reachable — the
   generation never changes, so decodes stay bounded no matter how hot
   the aliasing pair gets. With chaining disabled every transition
   re-probes the thrashing slot and re-decodes both blocks once per
   iteration. *)

let collision_iters = 200

let collision_program () =
  let b = Builder.create () in
  let start = Builder.here b in
  let f1 = Builder.fresh_label b in
  let f2 = Builder.fresh_label b in
  let loop_head = Builder.fresh_label b in
  Builder.li b Reg.t5 collision_iters;
  Builder.place b loop_head;
  Builder.jal b f1;
  Builder.la b Reg.t0 f2;
  Builder.jalr b Reg.t0;
  Builder.emit b (Inst.Addi (Reg.t5, Reg.t5, -1));
  Builder.bne b Reg.t5 Reg.zero loop_head;
  Builder.li b Reg.v0 1;
  Builder.syscall b;
  Builder.halt b;
  let f1_addr = Builder.text_pos b in
  Builder.place b f1;
  Builder.emit b (Inst.Addi (Reg.a0, Reg.a0, 1));
  Builder.ret b;
  (* pad so f2's start PC maps to the same direct-mapped slot as f1 *)
  while Builder.text_pos b < f1_addr + (4 * Block.slots) do
    Builder.nop b
  done;
  Builder.place b f2;
  Builder.emit b (Inst.Addi (Reg.a0, Reg.a0, 2));
  Builder.ret b;
  Builder.assemble b ~entry:start

let decode_count program ~chain =
  let m = Loader.load program in
  Machine.run_blocks ~chain m;
  check string "collision output" (string_of_int (3 * collision_iters))
    (Machine.output m);
  match Machine.block_stats m with
  | Some s -> List.assoc "decodes" s
  | None -> Alcotest.fail "block cache missing after run_blocks"

let test_collision_decode_ceiling () =
  let program = collision_program () in
  let chained = decode_count program ~chain:true in
  let nochain = decode_count program ~chain:false in
  if chained > 20 then
    Alcotest.failf "chained decodes not bounded: %d (ceiling 20)" chained;
  if nochain < 2 * collision_iters then
    Alcotest.failf
      "expected the nochain control to thrash (>= %d decodes), got %d — is \
       the slot aliasing still real?"
      (2 * collision_iters) nochain;
  (* and the aliasing pair stays bit-exact in every mode *)
  check_three_way "collision program" (native_fingerprint Arch.arch_a program)

(* ------------------------------------------------------------------ *)
(* Observer fallback: with a probe installed, run_blocks must take the
   per-step path (metrics sampling polls per-instruction state), and
   the run still matches an unprobed block run on every total. *)

let test_probe_falls_back () =
  let e = Option.get (Suite.find "gzip") in
  let program = Suite.program e `Test in
  let arch = Arch.arch_a in
  let timing = Timing.create arch in
  let m = Loader.load ~timing program in
  let events = ref 0 in
  Timing.set_probe timing (Some (fun ~pc:_ _ ~cycles:_ -> incr events));
  Machine.run_blocks m;
  let probed = fingerprint ~timing ~stats:[] m in
  check int "probe saw every instruction" probed.instructions !events;
  let plain = native_fingerprint arch program `Block in
  check_equivalent "probed run matches unprobed totals" plain probed

(* ------------------------------------------------------------------ *)
(* Allocation gate: in steady state the simulation loop allocates
   nothing on the minor heap. Each cell runs at two sizes of the same
   program; the difference in [Gc.minor_words] over the difference in
   simulated instructions is the marginal allocation per instruction,
   in which loading, translation and block compilation (the same at
   both sizes) cancel out. The figure is exact and deterministic:
   everything runs on this one domain, and [Gc.minor_words] counts the
   calling domain only. *)

let alloc_bound = 0.02

let alloc_programs =
  let suite name =
    let e = Option.get (Suite.find name) in
    (name, fun k -> e.Suite.build ~size:(k * e.Suite.ref_size / 2))
  in
  List.map suite [ "perlbmk"; "gcc"; "mcf" ]
  @ [
      ( "micro",
        fun k ->
          Synthetic.build
            { Synthetic.default with Synthetic.seed = 7; iters = k * 1_000 } );
    ]

let alloc_configs =
  [
    ("ibtc", Config.default);
    ("sieve", { Config.default with mech = Config.Sieve Config.default_sieve });
    ( "adaptive",
      { Config.default with mech = Config.Adaptive Config.default_adaptive } );
  ]

(* minor words and simulated instructions spent by [f] *)
let alloc_of f =
  let w0 = Gc.minor_words () and i0 = Run.simulated_instructions () in
  f ();
  (Gc.minor_words () -. w0, Run.simulated_instructions () - i0)

(* (label, (words, instructions)) of the native run and every SDT
   configuration of one program size; the native run is measured on its
   own and then served from the memo to the SDT runs *)
let alloc_cells arch name program =
  Run.clear_cache ();
  let key = name and build () = program in
  let native = alloc_of (fun () -> ignore (Run.native ~arch ~key build)) in
  ("native", native)
  :: List.map
       (fun (label, cfg) ->
         (label, alloc_of (fun () -> ignore (Run.sdt ~arch ~cfg ~key build))))
       alloc_configs

let test_steady_state_allocation () =
  let saved = Run.get_exec_mode () in
  Fun.protect
    ~finally:(fun () ->
      Run.set_exec_mode saved;
      Run.clear_cache ())
    (fun () ->
      let failures = ref [] in
      List.iter
        (fun mode ->
          Run.set_exec_mode mode;
          List.iter
            (fun (arch : Arch.t) ->
              List.iter
                (fun (name, build) ->
                  let small = alloc_cells arch name (build 1) in
                  let large = alloc_cells arch name (build 2) in
                  List.iter2
                    (fun (label, (w1, i1)) (_, (w2, i2)) ->
                      let per_instr = (w2 -. w1) /. float_of_int (i2 - i1) in
                      if i2 <= i1 || per_instr > alloc_bound then
                        failures :=
                          Printf.sprintf "%s %s %s %s: %.4f words/instr"
                            (Machine.string_of_mode mode)
                            arch.Arch.name name label per_instr
                          :: !failures)
                    small large)
                alloc_programs)
            [ Arch.arch_a; Arch.arch_b; Arch.arch_c ])
        Machine.modes;
      if !failures <> [] then
        Alcotest.failf "marginal allocation above %.2f words/instr:\n  %s"
          alloc_bound
          (String.concat "\n  " (List.rev !failures)))

(* ------------------------------------------------------------------ *)
(* The exec-mode names: every mode round-trips through its name, and
   nothing else parses — a removed or misspelt mode must not fall back
   to a default. *)

let test_mode_names () =
  List.iter
    (fun (name, mode) ->
      match Machine.mode_of_string name with
      | Ok m when m = mode ->
          check string "round trip" name (Machine.string_of_mode m)
      | _ -> Alcotest.failf "mode_of_string rejects %S" name)
    [ ("step", `Step); ("block", `Block); ("block-nochain", `Block_nochain) ];
  List.iter
    (fun name ->
      match Machine.mode_of_string name with
      | Ok _ -> Alcotest.failf "mode_of_string accepts %S" name
      | Error msg ->
          check string "error lists the valid modes"
            (Printf.sprintf "unknown exec mode %S (want step, block, \
                             block-nochain)" name)
            msg)
    [ "trace"; ""; "blocknochain"; "Block" ]

let () =
  Alcotest.run "sdt_block"
    [
      ( "equivalence",
        [
          Alcotest.test_case "native: 14 workloads x 2 arches and ideal"
            `Quick test_native_equivalence;
          Alcotest.test_case "sdt: workloads x arches x mechanisms" `Quick
            test_sdt_equivalence;
          QCheck_alcotest.to_alcotest qcheck_block_equivalence;
          QCheck_alcotest.to_alcotest qcheck_adaptive_differential;
        ] );
      ( "self-modifying code",
        [
          Alcotest.test_case "guest store_word patches own block" `Quick
            test_smc_store_word;
          Alcotest.test_case "host write_bytes patches executed code" `Quick
            test_smc_write_bytes;
          Alcotest.test_case "translator patching, all mechanisms" `Quick
            test_smc_translator_patching;
          QCheck_alcotest.to_alcotest qcheck_smc_chain_severing;
        ] );
      ( "chaining",
        [
          Alcotest.test_case "slot collision: bounded decodes via links"
            `Quick test_collision_decode_ceiling;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "steady state allocates nothing" `Quick
            test_steady_state_allocation;
        ] );
      ( "observer",
        [ Alcotest.test_case "probe falls back to step path" `Quick
            test_probe_falls_back ] );
      ( "exec modes",
        [ Alcotest.test_case "names parse exactly" `Quick test_mode_names ] );
    ]
