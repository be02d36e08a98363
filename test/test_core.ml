(* Tests for the sdt_core library: configuration, layout, emitter, and
   above all translation correctness — a program run under the SDT must
   produce bit-identical output, checksum and exit code to a native run,
   for every IB mechanism and return policy. *)

module Word = Sdt_isa.Word
module Reg = Sdt_isa.Reg
module Inst = Sdt_isa.Inst
module Builder = Sdt_isa.Builder
module Assembler = Sdt_isa.Assembler
module Program = Sdt_isa.Program
module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Machine = Sdt_machine.Machine
module Memory = Sdt_machine.Memory
module Loader = Sdt_machine.Loader
module Config = Sdt_core.Config
module Layout = Sdt_core.Layout
module Emitter = Sdt_core.Emitter
module Stats = Sdt_core.Stats
module Runtime = Sdt_core.Runtime
module Adapt = Sdt_core.Adapt
module Cfi = Sdt_core.Cfi

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_validate () =
  let ok cfg = Config.validate cfg = Ok () in
  check bool "default valid" true (ok Config.default);
  check bool "baseline valid" true (ok Config.baseline);
  let bad_ibtc =
    { Config.default with mech = Ibtc { Config.default_ibtc with entries = 100 } }
  in
  check bool "non-pow2 ibtc rejected" false (ok bad_ibtc);
  let big =
    { Config.default with mech = Ibtc { Config.default_ibtc with entries = 1 lsl 17 } }
  in
  check bool "oversize ibtc rejected" false (ok big);
  let bad_ret = { Config.default with returns = Return_cache { entries = 3 } } in
  check bool "bad retcache rejected" false (ok bad_ret);
  let bad_pred = { Config.default with pred_depth = 9 } in
  check bool "bad pred depth rejected" false (ok bad_pred);
  let bad_cfi =
    {
      Config.default with
      returns = Config.Fast_return;
      cfi = Config.Ret_integrity;
    }
  in
  check bool "ret-integrity over fast returns rejected" false (ok bad_cfi);
  let bad_comp =
    { Config.default with cfi = Config.Cfi_compartment { count = 0 } }
  in
  check bool "zero compartments rejected" false (ok bad_comp);
  let big_comp =
    { Config.default with cfi = Config.Cfi_compartment { count = 500 } }
  in
  check bool "oversize compartment count rejected" false (ok big_comp)

let test_config_describe () =
  (* pin the policy: SDT_CFI retargets [baseline], and this test checks
     the un-suffixed rendering *)
  check string "baseline" "dispatch+ret:as-ib"
    (Config.describe { Config.baseline with cfi = Config.Cfi_none });
  check string "policy suffix" "dispatch+ret:as-ib+cfi:pad"
    (Config.describe { Config.baseline with cfi = Config.Cfi_landing_pad });
  check bool "default mentions ibtc" true
    (String.length (Config.describe Config.default) > 0
    && String.sub (Config.describe Config.default) 0 4 = "ibtc")

(* ------------------------------------------------------------------ *)
(* Layout *)

let test_layout () =
  let l = Layout.create ~mem_size:Loader.default_mem_size ~code_capacity:0x10000 in
  check bool "code region placed" true (l.Layout.code_base = 0x0040_0000);
  check bool "ctx after code" true (l.Layout.ctx_base >= l.Layout.code_limit);
  let a = Layout.alloc l ~bytes:64 in
  let b = Layout.alloc l ~bytes:64 in
  check bool "allocations disjoint" true (b >= a + 64);
  check bool "word aligned" true (a land 3 = 0 && b land 3 = 0);
  check bool "oom raises" true
    (match Layout.alloc l ~bytes:0x1000_0000 with
    | exception Layout.Out_of_memory -> true
    | _ -> false);
  check bool "in_code" true (Layout.in_code l 0x0040_0010);
  check bool "not in_code" false (Layout.in_code l l.Layout.ctx_base)

(* ------------------------------------------------------------------ *)
(* Emitter *)

let with_emitter f =
  let mem = Memory.create ~size_bytes:0x10000 in
  let em = Emitter.create ~mem ~base:0x1000 ~limit:0x2000 in
  f mem em

let test_emitter_basic () =
  with_emitter (fun mem em ->
      check int "starts at base" 0x1000 (Emitter.here em);
      Emitter.emit em (Inst.Addi (Reg.t0, Reg.zero, 5));
      check int "advances" 0x1004 (Emitter.here em);
      check int "used" 4 (Emitter.used_bytes em);
      (match Memory.fetch mem 0x1000 with
      | Inst.Addi (_, _, 5) -> ()
      | i -> Alcotest.failf "bad word: %s" (Inst.to_string i));
      Emitter.li32 em Reg.t1 0xDEAD_BEEF;
      check int "li32 is 2 words" 0x100C (Emitter.here em))

let test_emitter_labels () =
  with_emitter (fun mem em ->
      let l = Emitter.fresh em in
      Emitter.branch_to em (Inst.Beq (Reg.t0, Reg.zero, 0)) l;
      Emitter.emit em Inst.Nop;
      check int "one unresolved" 1 (Emitter.unresolved em);
      Emitter.place em l;
      check int "resolved" 0 (Emitter.unresolved em);
      (match Memory.fetch mem 0x1000 with
      | Inst.Beq (_, _, off) -> check int "offset skips nop" 1 off
      | i -> Alcotest.failf "bad branch: %s" (Inst.to_string i));
      (* li32_label backward *)
      let l2 = Emitter.fresh em in
      Emitter.place em l2;
      Emitter.li32_label em Reg.t2 l2;
      match Memory.fetch mem (Emitter.addr_of em l2) with
      | Inst.Lui (_, hi) ->
          check int "hi half" (Word.hi16 (Emitter.addr_of em l2)) hi
      | i -> Alcotest.failf "bad lui: %s" (Inst.to_string i))

let test_emitter_full () =
  let mem = Memory.create ~size_bytes:0x10000 in
  let em = Emitter.create ~mem ~base:0x1000 ~limit:0x1008 in
  Emitter.emit em Inst.Nop;
  Emitter.emit em Inst.Nop;
  check bool "full raises" true
    (match Emitter.emit em Inst.Nop with
    | exception Emitter.Code_full -> true
    | _ -> false)

let test_emitter_patch_and_reset () =
  with_emitter (fun mem em ->
      Emitter.emit em Inst.Nop;
      Emitter.patch em 0x1000 Inst.Halt;
      check bool "patched" true (Memory.fetch mem 0x1000 = Inst.Halt);
      check bool "patch outside rejected" true
        (match Emitter.patch em 0x1004 Inst.Halt with
        | exception Invalid_argument _ -> true
        | _ -> false);
      let l = Emitter.fresh em in
      Emitter.jump_to em `J l;
      check bool "reset with pending refs rejected" true
        (match Emitter.reset em with
        | exception Invalid_argument _ -> true
        | _ -> false);
      Emitter.reset ~force:true em;
      check int "cursor rewound" 0x1000 (Emitter.here em);
      check int "no unresolved after force" 0 (Emitter.unresolved em))

(* ------------------------------------------------------------------ *)
(* Translation correctness *)

(* A program exercising every IB flavour: recursion (returns), a
   function-pointer table (indirect calls), a jump table (indirect
   jumps), plus loops, memory traffic and syscalls. *)
let torture_src =
  {|
        .data
fptab:  .word 0, 0, 0, 0        # patched at runtime with f0..f3
jtab:   .word 0, 0, 0, 0
        .text
main:   li   $s7, 2
        # fill the function-pointer table
        la   $t0, fptab
        la   $t1, f0
        sw   $t1, 0($t0)
        la   $t1, f1
        sw   $t1, 4($t0)
        la   $t1, f2
        sw   $t1, 8($t0)
        la   $t1, f3
        sw   $t1, 12($t0)
        la   $t0, jtab
        la   $t1, c0
        sw   $t1, 0($t0)
        la   $t1, c1
        sw   $t1, 4($t0)
        la   $t1, c2
        sw   $t1, 8($t0)
        la   $t1, c3
        sw   $t1, 12($t0)
        # main loop: i = 0..59
        li   $s0, 0
        li   $s1, 60
loop:   andi $t2, $s0, 3        # select function pointer
        sll  $t2, $t2, 2
        la   $t3, fptab
        add  $t3, $t3, $t2
        lw   $t3, 0($t3)
        move $a0, $s0
        jalr $t3                # indirect call
        move $a0, $v0
        li   $v0, 4
        syscall                 # checksum result
        # jump table dispatch
        andi $t2, $s0, 3
        sll  $t2, $t2, 2
        la   $t3, jtab
        add  $t3, $t3, $t2
        lw   $t3, 0($t3)
        jr   $t3                # indirect jump
c0:     addi $s2, $s2, 1
        j    join
c1:     addi $s2, $s2, 3
        j    join
c2:     addi $s2, $s2, 5
        j    join
c3:     addi $s2, $s2, 7
join:   addi $s0, $s0, 1
        blt  $s0, $s1, loop
        # recursion: fib(12)
        li   $a0, 12
        jal  fib
        move $a0, $v0
        li   $v0, 1
        syscall
        move $a0, $s2
        li   $v0, 4
        syscall
        li   $a0, 0
        li   $v0, 5
        syscall

f0:     add  $v0, $a0, $a0
        ret
f1:     mul  $v0, $a0, $a0
        ret
f2:     addi $v0, $a0, 100
        ret
f3:     sub  $v0, $zero, $a0
        ret

# v0 = fib(a0), naive recursion: lots of returns
fib:    blt  $a0, $s7, fbase
        push $ra
        push $a0
        addi $a0, $a0, -1
        jal  fib
        pop  $a0
        push $v0
        addi $a0, $a0, -2
        jal  fib
        pop  $t0
        add  $v0, $v0, $t0
        pop  $ra
        ret
fbase:  li   $v0, 1
        ret
|}

let torture_program = lazy (Assembler.assemble_string torture_src)

type run_outcome = {
  out : string;
  chk : int;
  code : int option;
  cycles : int option;
}

let run_native ?(timed = false) program =
  let timing = if timed then Some (Timing.create Arch.arch_a) else None in
  let m = Loader.load ?timing program in
  Machine.run ~max_steps:10_000_000 m;
  {
    out = Machine.output m;
    chk = m.Machine.checksum;
    code = Machine.exit_code m;
    cycles = Option.map Timing.cycles timing;
  }

let run_sdt ?(timed = false) ?(arch = Arch.arch_a) ~cfg program =
  let timing = if timed then Some (Timing.create arch) else None in
  let rt = Runtime.create ~cfg ~arch ?timing program in
  Runtime.run ~max_steps:50_000_000 rt;
  let m = Runtime.machine rt in
  ( {
      out = Machine.output m;
      chk = m.Machine.checksum;
      code = Machine.exit_code m;
      cycles = Option.map Timing.cycles timing;
    },
    rt )

let all_mechs : (string * Config.mechanism) list =
  [
    ("dispatch", Config.Dispatch);
    ("ibtc-shared-fast", Config.Ibtc Config.default_ibtc);
    ( "ibtc-shared-full",
      Config.Ibtc { Config.default_ibtc with miss = Config.Full_switch } );
    ( "ibtc-shared-routine",
      Config.Ibtc { Config.default_ibtc with inline_lookup = false } );
    ( "ibtc-per-branch",
      Config.Ibtc
        { Config.default_ibtc with shared = false; per_site_entries = 16 } );
    ( "ibtc-per-branch-full",
      Config.Ibtc
        {
          Config.default_ibtc with
          shared = false;
          per_site_entries = 8;
          miss = Config.Full_switch;
        } );
    ( "ibtc-mult-hash",
      Config.Ibtc { Config.default_ibtc with hash = Config.Multiplicative } );
    ( "ibtc-tiny",
      Config.Ibtc { Config.default_ibtc with entries = 4 } );
    ( "ibtc-2way",
      Config.Ibtc { Config.default_ibtc with ways = 2 } );
    ( "ibtc-2way-tiny",
      Config.Ibtc { Config.default_ibtc with ways = 2; entries = 8 } );
    ("sieve-head", Config.Sieve Config.default_sieve);
    ( "sieve-tail",
      Config.Sieve { Config.default_sieve with insert_at_head = false } );
    ("sieve-tiny", Config.Sieve { Config.buckets = 4; insert_at_head = true });
    ("adaptive", Config.Adaptive Config.default_adaptive);
    (* thresholds low enough that the torture program walks the whole
       lattice — promotions, table growth and demotion scans all fire
       within a test-sized run *)
    ( "adaptive-eager",
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
        } );
  ]

let all_returns : (string * Config.return_policy) list =
  [
    ("as-ib", Config.As_ib);
    ("retcache", Config.Return_cache { entries = 1024 });
    ("retcache-tiny", Config.Return_cache { entries = 4 });
    ("shadow", Config.Shadow_stack { depth = 128 });
    ("shadow-tiny", Config.Shadow_stack { depth = 4 });
    ("fast", Config.Fast_return);
  ]

let equivalence_case ~cfg () =
  let program = Lazy.force torture_program in
  let native = run_native program in
  let sdt, _rt = run_sdt ~cfg program in
  check string "output matches" native.out sdt.out;
  check int "checksum matches" native.chk sdt.chk;
  check (Alcotest.option int) "exit code matches" native.code sdt.code

let mech_equivalence_cases =
  List.concat_map
    (fun (mname, mech) ->
      List.map
        (fun (rname, returns) ->
          let cfg = { Config.default with mech; returns } in
          Alcotest.test_case
            (Printf.sprintf "%s + %s" mname rname)
            `Quick (equivalence_case ~cfg))
        all_returns)
    all_mechs

let test_pred_equivalence () =
  List.iter
    (fun depth ->
      let cfg = { Config.default with pred_depth = depth } in
      equivalence_case ~cfg ())
    [ 1; 2; 4 ]

let test_pred_fast_return_equivalence () =
  (* prediction slots at fast-return indirect call sites perform real
     jals; the whole matrix must stay bit-identical *)
  List.iter
    (fun depth ->
      List.iter
        (fun mech ->
          equivalence_case
            ~cfg:
              {
                Config.default with
                mech;
                returns = Config.Fast_return;
                pred_depth = depth;
              }
            ())
        [ Config.Ibtc Config.default_ibtc; Config.Sieve Config.default_sieve ])
    [ 1; 2 ]

let test_nolink_equivalence () =
  equivalence_case ~cfg:{ Config.baseline with link_direct = false } ();
  equivalence_case ~cfg:{ Config.default with link_direct = false } ()

let test_spill_equivalence () =
  equivalence_case ~cfg:{ Config.default with spill = Config.Spill_always } ();
  equivalence_case ~cfg:{ Config.default with spill = Config.Spill_never } ()

let test_small_block_limit () =
  equivalence_case ~cfg:{ Config.default with block_limit = 2 } ();
  (* the limit takes effect: shorter fragments mean more of them *)
  let program = Lazy.force torture_program in
  let blocks block_limit =
    let _, rt = run_sdt ~cfg:{ Config.default with block_limit } program in
    (Runtime.stats rt).Stats.blocks_translated
  in
  check bool "limit 2 translates more blocks than 64" true
    (blocks 2 > blocks 64)

let test_trace_equivalence () =
  equivalence_case ~cfg:{ Config.default with follow_direct_jumps = true } ();
  equivalence_case
    ~cfg:
      {
        Config.default with
        follow_direct_jumps = true;
        mech = Config.Sieve Config.default_sieve;
        returns = Config.Fast_return;
      }
    ();
  (* traces duplicate code: still correct under flush pressure *)
  equivalence_case
    ~cfg:
      { Config.default with follow_direct_jumps = true; code_capacity = 0x400 }
    ()

let test_traces_reduce_links () =
  let program = Lazy.force torture_program in
  let _, plain = run_sdt ~cfg:Config.default program in
  let _, traced =
    run_sdt ~cfg:{ Config.default with follow_direct_jumps = true } program
  in
  check bool "fewer fragments with traces" true
    ((Runtime.stats traced).Stats.blocks_translated
    < (Runtime.stats plain).Stats.blocks_translated);
  check bool "traces duplicate code" true
    (Runtime.code_bytes traced > 0)

let test_instrumentation_counts () =
  let program = Lazy.force torture_program in
  let native = run_native program in
  ignore native;
  let m = Loader.load program in
  Machine.run ~max_steps:10_000_000 m;
  let truth = m.Machine.c.Machine.loads + m.Machine.c.Machine.stores in
  let cfg = { Config.default with count_memops = true } in
  let sdt_res, rt = run_sdt ~cfg program in
  ignore sdt_res;
  check int "memop count exact" truth (Runtime.instrumented_memops rt)

(* Every return policy profiles its return sites: the return cache,
   shadow stack and fast returns bypass the shared mechanism path, so
   each must run the profiling stage itself. A policy that rejects fast
   returns (under SDT_CFI) skips that case. *)
let test_ib_site_profile () =
  let program = Lazy.force torture_program in
  let m = Loader.load program in
  Machine.run ~max_steps:10_000_000 m;
  let truth = Machine.ib_dynamic_count m in
  List.iter
    (fun (name, returns) ->
      let cfg = { Config.default with profile_ib_sites = true; returns } in
      if Result.is_ok (Config.validate cfg) then begin
        let _, rt = run_sdt ~cfg program in
        let profile = Runtime.ib_site_profile rt in
        check bool (name ^ ": sites recorded") true (List.length profile > 2);
        let total = List.fold_left (fun acc (_, n) -> acc + n) 0 profile in
        check int (name ^ ": profile sums to dynamic IB count") truth total;
        (* hottest-first ordering *)
        let rec sorted = function
          | (_, a) :: ((_, b) :: _ as rest) -> a >= b && sorted rest
          | _ -> true
        in
        check bool (name ^ ": sorted hottest-first") true (sorted profile)
      end)
    [
      ("as-ib", Config.As_ib);
      ("retcache", Config.Return_cache { entries = 256 });
      ("shadow", Config.Shadow_stack { depth = 64 });
      ("fast", Config.Fast_return);
    ]

let test_flush_pressure () =
  (* a code region so small the fragment cache must flush repeatedly *)
  List.iter
    (fun (name, mech) ->
      ignore name;
      List.iter
        (fun returns ->
          let cfg =
            { Config.default with mech; returns; code_capacity = 0x400 }
          in
          let program = Lazy.force torture_program in
          let native = run_native program in
          let sdt, rt = run_sdt ~cfg program in
          check string "output under flush pressure" native.out sdt.out;
          check bool "flushed at least once" true
            ((Runtime.stats rt).Stats.flushes > 0))
        [ Config.As_ib; Config.Return_cache { entries = 256 };
          Config.Shadow_stack { depth = 64 } ])
    [ ("ibtc", Config.Ibtc Config.default_ibtc);
      ("sieve", Config.Sieve Config.default_sieve) ]

(* Adaptive state must survive fragment-cache flushes: only the emitted
   tier bodies die with the code region — the per-site state machine
   (tier, counters, transition history) is host-side and persists, so a
   promoted site re-enters at its earned tier when its fragment is
   retranslated instead of silently resetting to the bottom of the
   lattice. Every flush also exercises the SMC path: the re-emitted
   bodies and re-patched transfers go through simulated memory, where
   the block cache's chain-sever protocol retires stale decodings. *)
let test_adaptive_flush_survival () =
  let acfg =
    {
      Config.default_adaptive with
      ic_rebinds = 1;
      ibtc_promote_misses = 2;
      site_ibtc_entries = 16;
    }
  in
  let cfg =
    { Config.default with mech = Config.Adaptive acfg; code_capacity = 0x400 }
  in
  let program = Lazy.force torture_program in
  let native = run_native program in
  let sdt, rt = run_sdt ~cfg program in
  check string "output under flush pressure" native.out sdt.out;
  check int "checksum under flush pressure" native.chk sdt.chk;
  let stats = Runtime.stats rt in
  check bool "flushed at least once" true (stats.Stats.flushes > 0);
  check bool "promoted at least once" true (stats.Stats.adapt_promotions > 0);
  let promoted =
    List.filter
      (fun s -> s.Adapt.si_tier <> "inline-cache")
      (Runtime.adapt_sites rt)
  in
  check bool "a promoted site survives the flushes" true (promoted <> []);
  List.iter
    (fun s ->
      (* the history is cumulative across generations: it must still
         start at the bottom of the lattice and retain the promotion
         that predates the flushes — losing the record would recreate
         it with a fresh single-entry history at tier inline-cache *)
      match s.Adapt.si_transitions with
      | ("inline-cache", 0) :: rest ->
          check bool "history retains the promotion" true
            (List.exists (fun (tier, _) -> tier = s.Adapt.si_tier) rest)
      | _ -> Alcotest.fail "transition history lost across flush")
    promoted

let test_fast_return_flush_rejected () =
  let cfg =
    { Config.default with returns = Config.Fast_return; code_capacity = 0x400 }
  in
  let program = Lazy.force torture_program in
  check bool "overflow under fast returns is an error" true
    (match run_sdt ~cfg program with
    | exception Runtime.Error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Program shepherding *)

let rogue_src =
  (* a "hijacked" function pointer: the program jumps through a value
     that points into its own data segment *)
  {|
        .data
payload:.word 0x1234, 0x5678
        .text
main:   la   $t0, payload
        jr   $t0              # control-flow hijack
        halt
|}

let test_shepherd_catches_hijack () =
  let program = Assembler.assemble_string rogue_src in
  let cfg = { Config.default with cfi = Config.Cfi_shepherd } in
  let rt = Runtime.create ~cfg ~arch:Arch.arch_a program in
  (match Runtime.run ~max_steps:100_000 rt with
  | exception Cfi.Violation { target; _ } ->
      check int "violation reports the rogue target" Program.default_data_base
        target
  | exception e ->
      Alcotest.failf "expected Cfi.Violation, got %s" (Printexc.to_string e)
  | () -> Alcotest.fail "hijack executed to completion");
  (* without a policy the SDT happily translates the data bytes *)
  let rt2 =
    Runtime.create
      ~cfg:{ Config.default with cfi = Config.Cfi_none }
      ~arch:Arch.arch_a program
  in
  check bool "unpoliced run does not raise Cfi.Violation" true
    (match Runtime.run ~max_steps:100_000 rt2 with
    | exception Cfi.Violation _ -> false
    | exception _ -> true
    | () -> true)

let test_shepherd_no_false_positives () =
  (* the torture program (tables of legitimate function pointers) must
     run unmodified under enforcement *)
  equivalence_case ~cfg:{ Config.default with cfi = Config.Cfi_shepherd } ();
  equivalence_case
    ~cfg:
      {
        Config.default with
        cfi = Config.Cfi_shepherd;
        mech = Config.Sieve Config.default_sieve;
        returns = Config.Shadow_stack { depth = 128 };
      }
    ()

let test_shepherd_rejects_fast_returns () =
  let cfg =
    {
      Config.default with
      cfi = Config.Cfi_shepherd;
      returns = Config.Fast_return;
    }
  in
  check bool "config rejected" true (Config.validate cfg <> Ok ())

let test_shepherd_is_free () =
  (* shepherding emits nothing and charges nothing: on well-formed
     programs it is indistinguishable from no policy at all *)
  let module Suite = Sdt_workloads.Suite in
  let run cfg cfi program =
    let timing = Timing.create Arch.arch_a in
    let rt =
      Runtime.create ~cfg:{ cfg with Config.cfi } ~arch:Arch.arch_a ~timing
        program
    in
    Runtime.run ~max_steps:50_000_000 rt;
    let m = Runtime.machine rt in
    ( Timing.cycles timing,
      Machine.output m,
      m.Machine.checksum,
      Stats.to_assoc (Runtime.stats rt) )
  in
  let with_mech mech = { Config.default with mech } in
  List.iter
    (fun (e : Suite.entry) ->
      let program = Suite.program e `Test in
      List.iter
        (fun (mname, cfg) ->
          let label what = Printf.sprintf "%s/%s %s" e.Suite.name mname what in
          let c0, o0, k0, s0 = run cfg Config.Cfi_none program in
          let c1, o1, k1, s1 = run cfg Config.Cfi_shepherd program in
          check int (label "cycles") c0 c1;
          check string (label "output") o0 o1;
          check int (label "checksum") k0 k1;
          check Alcotest.(list (pair string int)) (label "stats") s0 s1)
        [
          ("dispatch", Config.baseline);
          ("ibtc", Config.default);
          ("sieve", with_mech (Config.Sieve Config.default_sieve));
          ("adaptive", with_mech (Config.Adaptive Config.default_adaptive));
        ])
    (Suite.all @ Suite.extra)

let test_cfi_names_round_trip () =
  List.iter
    (fun p ->
      check bool
        (Printf.sprintf "%s round-trips" (Config.cfi_name p))
        true
        (Config.cfi_of_string (Config.cfi_name p) = Ok p))
    [
      Config.Cfi_none;
      Config.Cfi_shepherd;
      Config.Cfi_landing_pad;
      Config.Cfi_compartment { count = 8 };
      Config.Cfi_compartment { count = 3 };
      Config.Ret_integrity;
    ];
  check bool "comp:N parses" true
    (Config.cfi_of_string "comp:8" = Ok (Config.Cfi_compartment { count = 8 }));
  match Config.cfi_of_string "bogus" with
  | Ok _ -> Alcotest.fail "unknown policy accepted"
  | Error msg ->
      let mentions sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
        in
        go 0
      in
      check bool "error lists shepherd" true (mentions "shepherd")

(* ------------------------------------------------------------------ *)
(* Shadow-stack edge cases *)

let deep_recursion_src =
  (* linear recursion 40 frames deep: far past a tiny shadow stack *)
  {|
main:   li   $a0, 40
        jal  down
        move $a0, $v0
        li   $v0, 1
        syscall
        li   $a0, 0
        li   $v0, 5
        syscall

# v0 = a0 + (a0-1) + ... + 1
down:   li   $t1, 1
        blt  $a0, $t1, dbase
        push $ra
        push $a0
        addi $a0, $a0, -1
        jal  down
        pop  $t0
        add  $v0, $v0, $t0
        pop  $ra
        ret
dbase:  li   $v0, 0
        ret
|}

let longjmp_src =
  (* f "longjmps": it overwrites $ra and returns somewhere other than
     its call site, leaving its own shadow frame unconsumed *)
  {|
main:   jal  f
cont:   addi $s2, $s2, 42      # skipped by the longjmp
skip:   move $a0, $s2
        li   $v0, 1
        syscall
        li   $a0, 0
        li   $v0, 5
        syscall

f:      la   $ra, skip
        ret
|}

(* shadow fallbacks happen in pure emitted code (no trap), so they are
   only visible through an observer's entry triggers — attach one and
   count [Shadow_fallback] events *)
let run_counting_fallbacks ~cfg program =
  let timing = Timing.create Arch.arch_a in
  let tracer = Sdt_observe.Trace.create () in
  let observer =
    Sdt_observe.Observer.create
      ~clock:(fun () -> Timing.cycles timing)
      ~trace:tracer ()
  in
  let rt = Runtime.create ~cfg ~arch:Arch.arch_a ~timing ~observer program in
  Runtime.run ~max_steps:50_000_000 rt;
  let m = Runtime.machine rt in
  let fallbacks =
    List.length
      (List.filter
         (fun e -> e.Sdt_observe.Event.kind = Sdt_observe.Event.Shadow_fallback)
         (Sdt_observe.Trace.events tracer))
  in
  ( {
      out = Machine.output m;
      chk = m.Machine.checksum;
      code = Machine.exit_code m;
      cycles = None;
    },
    fallbacks )

let test_shadow_overflow () =
  let program = Assembler.assemble_string deep_recursion_src in
  let native = run_native program in
  (* depth 4 overflows 40 frames in: pushes are skipped while the stack
     is full, so the frames that do pop were orphaned by the skipped
     pushes and mismatch — every such return falls back through the IB
     mechanism, bit-exactly *)
  let shallow, fallbacks =
    run_counting_fallbacks
      ~cfg:{ Config.default with returns = Config.Shadow_stack { depth = 4 } }
      program
  in
  check string "output after overflow" native.out shallow.out;
  check int "checksum after overflow" native.chk shallow.chk;
  check bool "orphaned returns fell back" true (fallbacks > 0);
  (* a deep-enough stack never falls back on the same program *)
  let deep, none =
    run_counting_fallbacks
      ~cfg:{ Config.default with returns = Config.Shadow_stack { depth = 128 } }
      program
  in
  check string "output when deep enough" native.out deep.out;
  check int "no fallbacks when deep enough" 0 none

let test_shadow_unmatched_return () =
  let program = Assembler.assemble_string longjmp_src in
  let native = run_native program in
  List.iter
    (fun mech ->
      let cfg =
        {
          Config.default with
          mech;
          returns = Config.Shadow_stack { depth = 16 };
        }
      in
      let res, fallbacks = run_counting_fallbacks ~cfg program in
      check string "longjmp output" native.out res.out;
      check (Alcotest.option int) "longjmp exit" native.code res.code;
      check bool "mismatch fell back through the IB mechanism" true
        (fallbacks > 0))
    [
      Config.Dispatch;
      Config.Ibtc Config.default_ibtc;
      Config.Sieve Config.default_sieve;
    ]

let prop_shadow_any_depth =
  (* overflow, self-healing after mismatches, and the auditing variant
     must preserve semantics at every depth *)
  QCheck.Test.make ~count:12 ~name:"shadow stack equivalent at any depth"
    QCheck.(pair (int_range 1 64) bool)
    (fun (depth, audit) ->
      let cfg =
        {
          Config.default with
          returns = Config.Shadow_stack { depth };
          cfi = (if audit then Config.Ret_integrity else Config.Cfi_none);
        }
      in
      let program = Lazy.force torture_program in
      let native = run_native program in
      let res, _ = run_sdt ~cfg program in
      res.out = native.out && res.chk = native.chk)

(* ------------------------------------------------------------------ *)
(* CFI policies *)

let cfi_policies =
  [
    ("pad", Config.Cfi_landing_pad);
    ("comp-3", Config.Cfi_compartment { count = 3 });
    ("comp-16", Config.Cfi_compartment { count = 16 });
    ("ret", Config.Ret_integrity);
  ]

let cfi_mechs =
  [
    ("dispatch", Config.Dispatch);
    ("ibtc", Config.Ibtc Config.default_ibtc);
    ("ibtc-tiny", Config.Ibtc { Config.default_ibtc with entries = 4 });
    ("sieve", Config.Sieve Config.default_sieve);
    ("adaptive", Config.Adaptive Config.default_adaptive);
  ]

let cfi_equivalence_cases =
  List.concat_map
    (fun (mname, mech) ->
      List.map
        (fun (pname, cfi) ->
          Alcotest.test_case
            (Printf.sprintf "%s + %s" mname pname)
            `Quick
            (equivalence_case ~cfg:{ Config.default with mech; cfi }))
        cfi_policies)
    cfi_mechs

let test_cfi_traces_and_flush () =
  (* the policy stage composes with translator trace formation (A4),
     flush pressure and a tiny shadow stack without perturbing guest
     results *)
  equivalence_case
    ~cfg:
      {
        Config.default with
        follow_direct_jumps = true;
        cfi = Config.Cfi_landing_pad;
      }
    ();
  equivalence_case
    ~cfg:
      {
        Config.default with
        code_capacity = 0x800;
        cfi = Config.Cfi_compartment { count = 8 };
      }
    ();
  equivalence_case
    ~cfg:
      {
        Config.default with
        returns = Config.Shadow_stack { depth = 4 };
        cfi = Config.Cfi_landing_pad;
      }
    ()

let test_cfi_catches_hijack () =
  (* the hard membership predicate stops a data-segment hijack without
     shepherding enabled *)
  let program = Assembler.assemble_string rogue_src in
  List.iter
    (fun mech ->
      let cfg =
        { Config.default with mech; cfi = Config.Cfi_landing_pad }
      in
      let rt = Runtime.create ~cfg ~arch:Arch.arch_a program in
      match Runtime.run ~max_steps:100_000 rt with
      | exception Cfi.Violation { target; _ } ->
          check int "violation reports the rogue target"
            Program.default_data_base target
      | exception e ->
          Alcotest.failf "expected Cfi.Violation, got %s"
            (Printexc.to_string e)
      | () -> Alcotest.fail "hijack executed to completion")
    [
      Config.Dispatch;
      Config.Ibtc Config.default_ibtc;
      Config.Sieve Config.default_sieve;
    ]

let forged_entry_src =
  (* a computed mid-function target: inside the text segment (so the
     hard predicate admits it) but never named as an entry point *)
  {|
main:   la   $t0, f
        addi $t0, $t0, 8
        jr   $t0
back:   move $a0, $s2
        li   $v0, 1
        syscall
        li   $a0, 0
        li   $v0, 5
        syscall

f:      addi $s2, $s2, 1
        addi $s2, $s2, 2
        addi $s2, $s2, 4
        addi $s2, $s2, 8
        j    back
|}

let test_cfi_compartment_audit () =
  let program = Assembler.assemble_string forged_entry_src in
  let native = run_native program in
  (* enough compartments that main and f land in different ones *)
  let cfg =
    { Config.default with cfi = Config.Cfi_compartment { count = 64 } }
  in
  let res, rt = run_sdt ~cfg program in
  check string "forged-entry output" native.out res.out;
  let s = Runtime.stats rt in
  check bool "transfer mediated" true (s.Stats.cfi_xcalls > 0);
  check bool "audit flagged the mid-function entry" true
    (s.Stats.cfi_violations > 0)

let test_cfi_ret_integrity_audit () =
  (* the longjmp under ret-integrity: the unmatched return is counted
     as a violation before taking the normal mechanism fallback *)
  let program = Assembler.assemble_string longjmp_src in
  let native = run_native program in
  let cfg = { Config.default with cfi = Config.Ret_integrity } in
  let res, rt = run_sdt ~cfg program in
  check string "audited output" native.out res.out;
  check bool "unmatched return counted" true
    ((Runtime.stats rt).Stats.cfi_violations > 0);
  (* the torture program's returns all match: it audits clean *)
  let _, rt2 = run_sdt ~cfg (Lazy.force torture_program) in
  check int "no violations on matched returns" 0
    (Runtime.stats rt2).Stats.cfi_violations

let test_cfi_elision_counts () =
  (* full dispatch re-validates every dynamic transfer; a hit-caching
     mechanism validates only on miss paths *)
  let program = Lazy.force torture_program in
  let m = Loader.load program in
  Machine.run ~max_steps:10_000_000 m;
  let ibs = Machine.ib_dynamic_count m in
  let _, drt =
    run_sdt ~cfg:{ Config.baseline with cfi = Config.Cfi_landing_pad } program
  in
  check int "dispatch checks every transfer" ibs
    (Runtime.stats drt).Stats.cfi_checks;
  let _, irt =
    run_sdt
      ~cfg:
        {
          Config.default with
          returns = Config.As_ib;
          cfi = Config.Cfi_landing_pad;
        }
      program
  in
  let ic = (Runtime.stats irt).Stats.cfi_checks in
  check bool "ibtc elides hit-path checks" true (ic * 2 <= ibs);
  check bool "ibtc still validates misses" true (ic > 0)

let test_stats_render_and_totals () =
  let s = Stats.create () in
  s.Stats.dispatch_entries <- 3;
  s.Stats.ibtc_misses_fast <- 2;
  s.Stats.sieve_misses <- 1;
  s.Stats.retcache_fallbacks <- 4;
  check int "total misses" 10 (Stats.total_ib_misses s);
  let rendered = Format.asprintf "%a" Stats.pp s in
  check bool "pp mentions dispatch" true
    (String.length rendered > 50);
  Stats.reset s;
  check int "reset" 0 (Stats.total_ib_misses s)

let test_stats_populated () =
  let program = Lazy.force torture_program in
  let _, rt = run_sdt ~cfg:Config.default program in
  let s = Runtime.stats rt in
  check bool "blocks" true (s.Stats.blocks_translated > 10);
  check bool "insts" true (s.Stats.insts_translated > s.Stats.blocks_translated);
  check bool "links" true (s.Stats.links > 0);
  check bool "ib sites" true (s.Stats.ib_sites > 0);
  check bool "ibtc misses counted" true (s.Stats.ibtc_misses_fast > 0);
  check bool "code emitted" true (Runtime.code_bytes rt > 0)

let test_sieve_stats () =
  let cfg = { Config.default with mech = Config.Sieve Config.default_sieve } in
  let program = Lazy.force torture_program in
  let _, rt = run_sdt ~cfg program in
  let pairs = Runtime.mech_stats rt in
  check bool "sieve stubs reported" true
    (match List.assoc_opt "sieve_stubs" pairs with
    | Some v -> v > 0.0
    | None -> false)

let test_dispatch_slower_than_ibtc () =
  let program = Lazy.force torture_program in
  let base, _ = run_sdt ~timed:true ~cfg:Config.baseline program in
  let ibtc, _ = run_sdt ~timed:true ~cfg:Config.default program in
  let native = run_native ~timed:true program in
  let c o = Option.get o.cycles in
  check bool "native fastest" true (c native < c ibtc);
  check bool "ibtc beats dispatch" true (c ibtc < c base)

let test_fast_returns_beat_as_ib () =
  let program = Lazy.force torture_program in
  let as_ib, _ =
    run_sdt ~timed:true ~cfg:{ Config.default with returns = Config.As_ib } program
  in
  let fast, _ =
    run_sdt ~timed:true
      ~cfg:{ Config.default with returns = Config.Fast_return }
      program
  in
  check bool "fast returns cheaper" true
    (Option.get fast.cycles < Option.get as_ib.cycles)

let test_archb_runs () =
  let program = Lazy.force torture_program in
  let native = run_native program in
  List.iter
    (fun cfg ->
      let sdt, _ = run_sdt ~timed:true ~arch:Arch.arch_b ~cfg program in
      check string "archB output" native.out sdt.out)
    [ Config.default; Config.baseline;
      { Config.default with mech = Config.Sieve Config.default_sieve } ]

let test_explicit_flush () =
  (* flushing mid-run must not break correctness: run a few steps,
     flush, continue *)
  let program = Lazy.force torture_program in
  let native = run_native program in
  let rt = Runtime.create ~cfg:Config.default ~arch:Arch.arch_a program in
  (* translate entry and run a little *)
  let m = Runtime.machine rt in
  (try Runtime.run ~max_steps:500 rt with Machine.Error _ -> ());
  check bool "still running" true (Machine.exit_code m = None);
  Runtime.flush rt;
  (* continue: the PC points into flushed code… which is exactly the
     hard case; the decode of zeroed memory is NOPs, so we must restart
     from a translated continuation instead. Flush APIs are only safe at
     translator entry points, so this test flushes and then re-enters
     through the runtime by translating the current *application* state:
     not recoverable in general — hence flush mid-run is only triggered
     inside trap handlers. Here we just verify a fresh runtime still
     produces the right answer after an early flush + rerun. *)
  let rt2 = Runtime.create ~cfg:Config.default ~arch:Arch.arch_a program in
  Runtime.flush rt2;
  Runtime.run ~max_steps:50_000_000 rt2;
  check string "output after pre-run flush" native.out
    (Machine.output (Runtime.machine rt2))

(* Control-flow corner cases the torture program does not reach *)

let nonra_link_src =
  (* jalr with a link register other than $ra: the callee returns via an
     indirect jump through that register (an ijump, not a return), which
     exercises the translator's rd<>ra paths — including the fallback
     under the fast-return policy *)
  {|
main:   la   $t3, f
        jalr $t0, $t3         # link in $t0
        move $a0, $v0
        li   $v0, 1
        syscall
        li   $a0, 0
        li   $v0, 5
        syscall
f:      li   $v0, 88
        jr   $t0              # "return" through $t0
|}

let overlapping_blocks_src =
  (* the same instructions belong to two fragments: one block enters at
     "top", another at "mid" (branched to directly), and both run
     through the same tail *)
  {|
main:   li   $s0, 0
        li   $s1, 2
again:  beq  $s0, $s1, done
top:    addi $s0, $s0, 1
mid:    addi $t0, $t0, 3
        addi $t1, $t1, 5
        j    again
done:   add  $a0, $t0, $t1
        li   $v0, 1
        syscall
        # now enter at mid directly, once
        la   $t2, mid
        li   $s1, 99          # make the loop exit via the branch below
        jr   $t2
|}

let reenter_entry_src =
  (* a jump back to the program entry: the entry block is translated
     twice from the runtime's perspective (once eagerly, once lazily) *)
  {|
main:   addi $s0, $s0, 1
        li   $t0, 3
        blt  $s0, $t0, back
        move $a0, $s0
        li   $v0, 1
        syscall
        halt
back:   j    main
|}

let corner_case ~src ~cfg () =
  let program = Assembler.assemble_string src in
  let native = run_native program in
  let res, _ = run_sdt ~cfg program in
  check string "output" native.out res.out;
  check (Alcotest.option int) "exit" native.code res.code

let test_corner_cases () =
  List.iter
    (fun cfg ->
      corner_case ~src:nonra_link_src ~cfg ();
      corner_case ~src:reenter_entry_src ~cfg ())
    [
      Config.baseline;
      Config.default;
      { Config.default with returns = Config.Fast_return };
      { Config.default with mech = Config.Sieve Config.default_sieve };
      { Config.default with pred_depth = 2; returns = Config.As_ib };
      { Config.default with follow_direct_jumps = true };
    ]

let test_overlapping_blocks () =
  (* mid-block entry terminates: $s1 = 99 is never reached by the loop
     counter, so the re-entered loop exits through "done" again… which
     would recurse; bound the run instead and only check no crash *)
  let program = Assembler.assemble_string overlapping_blocks_src in
  let rt = Runtime.create ~cfg:Config.default ~arch:Arch.arch_a program in
  (match Runtime.run ~max_steps:5_000 rt with
  | () -> ()
  | exception Machine.Error _ -> () (* step bound; fine *));
  check bool "overlapping fragments coexist" true
    ((Runtime.stats rt).Stats.blocks_translated >= 3)

(* ------------------------------------------------------------------ *)
(* Properties over randomised translator parameters *)

let torture_native =
  lazy
    (let program = Lazy.force torture_program in
     run_native program)

let prop_equivalence_any_capacity =
  (* the fragment cache may flush at any point; correctness must hold
     for every capacity (not just the fixed sizes tested above) *)
  QCheck.Test.make ~count:20 ~name:"equivalent under any code capacity"
    QCheck.(int_range 0x400 0x4000)
    (fun cap ->
      let cfg = { Config.default with code_capacity = cap land lnot 3 } in
      let program = Lazy.force torture_program in
      let native = Lazy.force torture_native in
      let res, _ = run_sdt ~cfg program in
      res.out = native.out && res.chk = native.chk)

let prop_equivalence_any_block_limit =
  QCheck.Test.make ~count:15 ~name:"equivalent under any block limit"
    QCheck.(int_range 1 128)
    (fun limit ->
      let cfg = { Config.default with block_limit = limit } in
      let program = Lazy.force torture_program in
      let native = Lazy.force torture_native in
      let res, _ = run_sdt ~cfg program in
      res.out = native.out && res.chk = native.chk)

let prop_timing_arch_independent_semantics =
  (* the timing model must never influence architectural state: the
     same configuration on any architecture produces identical output *)
  QCheck.Test.make ~count:10 ~name:"semantics independent of architecture"
    (QCheck.make
       QCheck.Gen.(oneofl [ Arch.arch_a; Arch.arch_b; Arch.arch_c; Arch.ideal ]))
    (fun arch ->
      let program = Lazy.force torture_program in
      let native = Lazy.force torture_native in
      let res, _ = run_sdt ~arch ~timed:true ~cfg:Config.default program in
      res.out = native.out && res.chk = native.chk)

let test_ideal_arch_cpi_one () =
  (* on the ideal architecture, cycles = instructions exactly, for the
     native run of a pure-ALU loop *)
  let src = {|
main:   li $t0, 0
        li $t1, 2000
loop:   addi $t0, $t0, 1
        blt $t0, $t1, loop
        halt
|} in
  let program = Assembler.assemble_string src in
  let timing = Timing.create Arch.ideal in
  let m = Loader.load ~timing program in
  Machine.run m;
  check int "CPI exactly 1" m.Machine.c.Machine.instructions
    (Timing.cycles timing)

let () =
  Alcotest.run "sdt_core"
    [
      ( "config",
        [
          Alcotest.test_case "validate" `Quick test_config_validate;
          Alcotest.test_case "describe" `Quick test_config_describe;
        ] );
      ("layout", [ Alcotest.test_case "regions" `Quick test_layout ]);
      ( "emitter",
        [
          Alcotest.test_case "basic" `Quick test_emitter_basic;
          Alcotest.test_case "labels" `Quick test_emitter_labels;
          Alcotest.test_case "code full" `Quick test_emitter_full;
          Alcotest.test_case "patch and reset" `Quick test_emitter_patch_and_reset;
        ] );
      ("equivalence", mech_equivalence_cases);
      ( "equivalence-extra",
        [
          Alcotest.test_case "inline prediction" `Quick test_pred_equivalence;
          Alcotest.test_case "prediction + fast returns" `Quick
            test_pred_fast_return_equivalence;
          Alcotest.test_case "no direct linking" `Quick test_nolink_equivalence;
          Alcotest.test_case "spill modes" `Quick test_spill_equivalence;
          Alcotest.test_case "tiny blocks" `Quick test_small_block_limit;
          Alcotest.test_case "superblock traces" `Quick test_trace_equivalence;
          Alcotest.test_case "traces reduce fragments" `Quick
            test_traces_reduce_links;
          Alcotest.test_case "memop instrumentation" `Quick
            test_instrumentation_counts;
          Alcotest.test_case "IB site profiling" `Quick test_ib_site_profile;
          Alcotest.test_case "flush pressure" `Quick test_flush_pressure;
          Alcotest.test_case "adaptive survives flushes" `Quick
            test_adaptive_flush_survival;
          Alcotest.test_case "fast-return flush rejected" `Quick
            test_fast_return_flush_rejected;
          Alcotest.test_case "explicit flush" `Quick test_explicit_flush;
          Alcotest.test_case "non-$ra link registers" `Quick test_corner_cases;
          Alcotest.test_case "overlapping blocks" `Quick
            test_overlapping_blocks;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_equivalence_any_capacity;
          QCheck_alcotest.to_alcotest prop_equivalence_any_block_limit;
          QCheck_alcotest.to_alcotest prop_timing_arch_independent_semantics;
          Alcotest.test_case "ideal CPI = 1" `Quick test_ideal_arch_cpi_one;
        ] );
      ( "shepherding",
        [
          Alcotest.test_case "catches hijack" `Quick test_shepherd_catches_hijack;
          Alcotest.test_case "no false positives" `Quick
            test_shepherd_no_false_positives;
          Alcotest.test_case "rejects fast returns" `Quick
            test_shepherd_rejects_fast_returns;
          Alcotest.test_case "shepherd is free" `Quick test_shepherd_is_free;
          Alcotest.test_case "policy names round-trip" `Quick
            test_cfi_names_round_trip;
        ] );
      ( "shadow-stack",
        [
          Alcotest.test_case "overflow leaves the stack full" `Quick
            test_shadow_overflow;
          Alcotest.test_case "unmatched return falls back" `Quick
            test_shadow_unmatched_return;
          QCheck_alcotest.to_alcotest prop_shadow_any_depth;
        ] );
      ("cfi-equivalence", cfi_equivalence_cases);
      ( "cfi",
        [
          Alcotest.test_case "traces, flush and tiny shadow" `Quick
            test_cfi_traces_and_flush;
          Alcotest.test_case "catches hijack without shepherd" `Quick
            test_cfi_catches_hijack;
          Alcotest.test_case "compartment audit" `Quick
            test_cfi_compartment_audit;
          Alcotest.test_case "ret-integrity audit" `Quick
            test_cfi_ret_integrity_audit;
          Alcotest.test_case "hit-path elision" `Quick test_cfi_elision_counts;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "stats render and totals" `Quick
            test_stats_render_and_totals;
          Alcotest.test_case "stats populated" `Quick test_stats_populated;
          Alcotest.test_case "sieve stats" `Quick test_sieve_stats;
          Alcotest.test_case "dispatch slower than ibtc" `Quick
            test_dispatch_slower_than_ibtc;
          Alcotest.test_case "fast returns beat as-ib" `Quick
            test_fast_returns_beat_as_ib;
          Alcotest.test_case "archB correctness" `Quick test_archb_runs;
        ] );
    ]
