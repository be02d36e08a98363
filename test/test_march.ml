(* Tests for the sdt_march library: cache geometry/LRU, branch
   predictors, architecture presets, timing accountant. *)

module Cache = Sdt_march.Cache
module Branch_pred = Sdt_march.Branch_pred
module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Cache *)

let cache_cfg ?(size = 1024) ?(line = 64) ?(assoc = 2) ?(penalty = 10) () =
  { Cache.size_bytes = size; line_bytes = line; assoc; miss_penalty = penalty }

let test_cache_basic () =
  let c = Cache.create (cache_cfg ()) in
  check bool "cold miss" false (Cache.access c 0x100);
  check bool "warm hit" true (Cache.access c 0x100);
  check bool "same line hit" true (Cache.access c 0x13F);
  check bool "next line miss" false (Cache.access c 0x140);
  check int "hits" 2 (Cache.hits c);
  check int "misses" 2 (Cache.misses c)

let test_cache_lru () =
  (* 1KiB, 64B lines, 2-way: 8 sets. Addresses 0, 0x200, 0x400 map to
     set 0; with 2 ways the third evicts the least recently used. *)
  let c = Cache.create (cache_cfg ()) in
  ignore (Cache.access c 0x0);
  ignore (Cache.access c 0x200);
  ignore (Cache.access c 0x0);
  ignore (Cache.access c 0x400);
  (* evicts 0x200 *)
  check bool "0x0 still resident" true (Cache.access c 0x0);
  check bool "0x200 evicted" false (Cache.access c 0x200)

let test_cache_direct_mapped () =
  let c = Cache.create (cache_cfg ~assoc:1 ()) in
  ignore (Cache.access c 0x0);
  ignore (Cache.access c 0x400);
  check bool "conflict evicts" false (Cache.access c 0x0)

let test_cache_reset () =
  let c = Cache.create (cache_cfg ()) in
  ignore (Cache.access c 0x0);
  Cache.reset c;
  check int "counters cleared" 0 (Cache.hits c + Cache.misses c);
  check bool "lines invalidated" false (Cache.access c 0x0)

let test_cache_bad_geometry () =
  let raises cfg =
    match Cache.create cfg with exception Invalid_argument _ -> true | _ -> false
  in
  check bool "non-pow2 line" true (raises (cache_cfg ~line:48 ()));
  check bool "zero assoc" true (raises (cache_cfg ~assoc:0 ()));
  check bool "non-pow2 sets" true (raises (cache_cfg ~size:768 ()))

let prop_cache_fits_working_set =
  (* any working set of <= assoc lines per set never misses after warmup *)
  QCheck.Test.make ~count:100 ~name:"cache: small working set stays resident"
    QCheck.(list_of_size Gen.(int_range 1 8) (int_bound 0xFFFF))
    (fun addrs ->
      let c = Cache.create (cache_cfg ~size:65536 ~assoc:8 ()) in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      List.for_all (fun a -> Cache.access c a) addrs)

(* ------------------------------------------------------------------ *)
(* Predictors *)

let test_cond_learns () =
  let p = Branch_pred.Cond.create ~bits:10 in
  (* always-taken branch: at most 2 initial mispredictions, then clean *)
  for _ = 1 to 100 do
    ignore (Branch_pred.Cond.predict_and_update p ~pc:0x1000 ~taken:true)
  done;
  check bool "few mispredicts" true (Branch_pred.Cond.mispredicts p <= 2);
  check int "lookups" 100 (Branch_pred.Cond.lookups p)

let test_cond_alternating () =
  let p = Branch_pred.Cond.create ~bits:10 in
  for i = 1 to 100 do
    ignore
      (Branch_pred.Cond.predict_and_update p ~pc:0x1000 ~taken:(i mod 2 = 0))
  done;
  (* bimodal 2-bit counters do poorly on alternation; just check it
     doesn't overcount *)
  check bool "bounded" true (Branch_pred.Cond.mispredicts p <= 100)

let test_btb_monomorphic () =
  let b = Branch_pred.Btb.create ~entries:64 in
  for _ = 1 to 50 do
    ignore (Branch_pred.Btb.predict_and_update b ~pc:0x2000 ~target:0x5000)
  done;
  check int "one cold miss" 1 (Branch_pred.Btb.mispredicts b)

let test_btb_megamorphic () =
  let b = Branch_pred.Btb.create ~entries:64 in
  for i = 1 to 50 do
    ignore
      (Branch_pred.Btb.predict_and_update b ~pc:0x2000
         ~target:(0x5000 + (i mod 4 * 4)))
  done;
  check bool "thrash mispredicts" true (Branch_pred.Btb.mispredicts b > 30)

let test_btb_disabled () =
  let b = Branch_pred.Btb.create ~entries:0 in
  check bool "disabled" false (Branch_pred.Btb.enabled b);
  for _ = 1 to 10 do
    ignore (Branch_pred.Btb.predict_and_update b ~pc:0x2000 ~target:0x5000)
  done;
  check int "always counted" 10 (Branch_pred.Btb.mispredicts b)

let test_ras_pairing () =
  let r = Branch_pred.Ras.create ~depth:8 in
  Branch_pred.Ras.push r 0x100;
  Branch_pred.Ras.push r 0x200;
  check bool "pop inner" true (Branch_pred.Ras.pop_predict r ~target:0x200);
  check bool "pop outer" true (Branch_pred.Ras.pop_predict r ~target:0x100);
  check bool "underflow mispredicts" false
    (Branch_pred.Ras.pop_predict r ~target:0x100);
  check int "one mispredict" 1 (Branch_pred.Ras.mispredicts r)

let test_ras_overflow_wraps () =
  let r = Branch_pred.Ras.create ~depth:2 in
  Branch_pred.Ras.push r 0x1;
  Branch_pred.Ras.push r 0x2;
  Branch_pred.Ras.push r 0x3;
  (* 0x1 was overwritten *)
  check bool "top ok" true (Branch_pred.Ras.pop_predict r ~target:0x3);
  check bool "second ok" true (Branch_pred.Ras.pop_predict r ~target:0x2);
  check bool "oldest lost" false (Branch_pred.Ras.pop_predict r ~target:0x1)

let prop_ras_lifo =
  QCheck.Test.make ~count:200 ~name:"ras: within depth, perfectly LIFO"
    QCheck.(list_of_size Gen.(int_range 1 8) (int_bound 0xFFFFF))
    (fun addrs ->
      let r = Branch_pred.Ras.create ~depth:8 in
      List.iter (Branch_pred.Ras.push r) addrs;
      List.for_all
        (fun a -> Branch_pred.Ras.pop_predict r ~target:a)
        (List.rev addrs))

(* ------------------------------------------------------------------ *)
(* Arch *)

let test_arch_presets () =
  check bool "archA has a BTB" true (Arch.arch_a.Arch.btb_entries > 0);
  check bool "archB has no BTB" true (Arch.arch_b.Arch.btb_entries = 0);
  check bool "archB pays fixed indirect" true (Arch.arch_b.Arch.indirect_fixed > 0);
  check bool "archA spills scratch" true (not Arch.arch_a.Arch.reserved_regs_free);
  check bool "archB keeps scratch" true Arch.arch_b.Arch.reserved_regs_free;
  (match Arch.by_name "ARCHA" with
  | Some a -> check Alcotest.string "lookup" "archA" a.Arch.name
  | None -> Alcotest.fail "by_name archA");
  check bool "unknown arch" true (Arch.by_name "z80" = None)

(* ------------------------------------------------------------------ *)
(* Timing *)

let test_timing_ideal () =
  let t = Timing.create Arch.ideal in
  Timing.instr t ~pc:0 Timing.Alu;
  Timing.instr t ~pc:4 (Timing.Load 0x100);
  Timing.instr t ~pc:8 (Timing.Return { pc = 8; target = 0x20 });
  check int "one cycle each" 3 (Timing.cycles t)

let test_timing_indirect_fixed () =
  let t = Timing.create Arch.arch_b in
  let before = Timing.cycles t in
  Timing.instr t ~pc:0 (Timing.Ijump { pc = 0; target = 0x100 });
  Timing.instr t ~pc:0 (Timing.Ijump { pc = 0; target = 0x100 });
  let per =
    (Timing.cycles t - before - (2 * Arch.arch_b.Arch.branch_cycles)) / 2
  in
  (* after the icache cold miss is excluded both jumps pay the fixed cost *)
  check bool "fixed cost each time" true
    (per >= Arch.arch_b.Arch.indirect_fixed)

let test_timing_btb_learns () =
  let t = Timing.create Arch.arch_a in
  (* warm the icache line and BTB *)
  Timing.instr t ~pc:0 (Timing.Ijump { pc = 0; target = 0x100 });
  let mid = Timing.cycles t in
  Timing.instr t ~pc:0 (Timing.Ijump { pc = 0; target = 0x100 });
  check int "predicted jump is base cost"
    Arch.arch_a.Arch.branch_cycles
    (Timing.cycles t - mid);
  check int "one mispredict" 1 (Timing.indirect_mispredicts t)

let test_timing_ras () =
  let t = Timing.create Arch.arch_a in
  Timing.instr t ~pc:0 (Timing.Call { next = 4 });
  let mid = Timing.cycles t in
  Timing.instr t ~pc:8 (Timing.Return { pc = 8; target = 4 });
  (* pc=8 shares the icache line fetched at pc=0; the return itself is
     predicted by the RAS, so only the base branch cost is charged *)
  check int "predicted return" Arch.arch_a.Arch.branch_cycles
    (Timing.cycles t - mid);
  check int "no ras mispredict" 0 (Timing.ras_mispredicts t)

let test_timing_runtime_bucket () =
  let t = Timing.create Arch.arch_a in
  Timing.add_runtime t 500;
  check int "runtime counted" 500 (Timing.runtime_cycles t);
  check int "total includes runtime" 500 (Timing.cycles t)

let test_timing_dcache_pollution () =
  let t = Timing.create Arch.ideal in
  (* ideal arch has no caches; loads cost 1 *)
  Timing.instr t ~pc:0 (Timing.Load 0x0);
  Timing.instr t ~pc:0 (Timing.Load 0x4000);
  check int "no cache penalties" 2 (Timing.cycles t);
  let t2 = Timing.create Arch.arch_a in
  Timing.instr t2 ~pc:0 (Timing.Load 0x0);
  check bool "cold dcache miss charged" true
    (Timing.cycles t2
    > Arch.arch_a.Arch.mem_cycles)

let test_arch_c_no_prediction () =
  let c = Arch.arch_c in
  check bool "no BTB" true (c.Arch.btb_entries = 0);
  check bool "no RAS" true (c.Arch.ras_depth = 0);
  check bool "no cond predictor" true (c.Arch.cond_bits = 0);
  check bool "tiny fixed indirect" true (c.Arch.indirect_fixed <= 4);
  check bool "in Arch.all" true (List.memq c Arch.all)

let test_all_presets_well_formed () =
  List.iter
    (fun (a : Arch.t) ->
      check bool (a.Arch.name ^ " positive costs") true
        (a.Arch.alu_cycles > 0 && a.Arch.mem_cycles > 0
        && a.Arch.branch_cycles > 0);
      check bool (a.Arch.name ^ " context regs sane") true
        (a.Arch.context_regs >= 1 && a.Arch.context_regs <= 31);
      (* cache geometries must construct *)
      Option.iter (fun cfg -> ignore (Cache.create cfg)) a.Arch.icache;
      Option.iter (fun cfg -> ignore (Cache.create cfg)) a.Arch.dcache)
    (Arch.ideal :: Arch.all)

let test_timing_base_costs () =
  (* with a warm icache line, each event class charges its base cost *)
  let t = Timing.create Arch.arch_b in
  Timing.instr t ~pc:0 Timing.Alu;  (* warm line + 1 *)
  let at ev =
    let before = Timing.cycles t in
    Timing.instr t ~pc:0 ev;
    Timing.cycles t - before
  in
  check int "alu" Arch.arch_b.Arch.alu_cycles (at Timing.Alu);
  check int "mul" Arch.arch_b.Arch.mul_cycles (at Timing.Mul_op);
  check int "div" Arch.arch_b.Arch.div_cycles (at Timing.Div_op);
  check int "jump" Arch.arch_b.Arch.branch_cycles (at Timing.Jump);
  check int "syscall" Arch.arch_b.Arch.syscall_cycles (at Timing.Syscall_op)

let test_timing_warm_load_cost () =
  let t = Timing.create Arch.arch_b in
  Timing.instr t ~pc:0 (Timing.Load 0x100);  (* cold: line fill both caches *)
  let before = Timing.cycles t in
  Timing.instr t ~pc:0 (Timing.Load 0x100);  (* warm *)
  check int "warm load = mem_cycles" Arch.arch_b.Arch.mem_cycles
    (Timing.cycles t - before)

let test_timing_return_without_ras () =
  (* archC has no RAS: returns fall back to the (absent) BTB and pay the
     fixed indirect cost *)
  let t = Timing.create Arch.arch_c in
  Timing.instr t ~pc:0 (Timing.Call { next = 4 });
  let before = Timing.cycles t in
  Timing.instr t ~pc:4 (Timing.Return { pc = 4; target = 4 });
  check int "return pays fixed indirect"
    (Arch.arch_c.Arch.branch_cycles + Arch.arch_c.Arch.indirect_fixed)
    (Timing.cycles t - before)

let test_timing_reset () =
  let t = Timing.create Arch.arch_a in
  Timing.instr t ~pc:0 (Timing.Load 0x0);
  Timing.add_runtime t 100;
  Timing.reset t;
  check int "cycles zeroed" 0 (Timing.cycles t);
  check int "runtime zeroed" 0 (Timing.runtime_cycles t);
  check int "dcache counters zeroed" 0 (Timing.dcache_misses t)

let test_icache_charged_per_fetch () =
  (* two instructions on different lines: two cold icache misses *)
  let t = Timing.create Arch.arch_a in
  Timing.instr t ~pc:0 Timing.Alu;
  Timing.instr t ~pc:4096 Timing.Alu;
  check int "two icache misses" 2 (Timing.icache_misses t)

(* The same-line MRU fast path in {!Timing.fetch_penalty} skips the
   cache model when consecutive fetches share an icache line. It must be
   invisible: misses and cycles identical to charging every fetch
   through {!Cache.access}. The reference below IS that naive protocol,
   run on a fresh cache over the same pc stream. (Skipping a same-line
   repeat cannot change LRU state — the line is already most recent.) *)
let prop_icache_mru_bitexact =
  QCheck.Test.make ~count:200
    ~name:"timing: same-line fetch fast path is bit-exact"
    QCheck.(
      list_of_size
        Gen.(int_range 1 48)
        (pair (int_bound 0xFFFF) (int_range 1 12)))
    (fun runs ->
      (* straight-line runs of adjacent words, like real fetch streams *)
      let pcs =
        List.concat_map
          (fun (start, len) -> List.init len (fun i -> (start + i) * 4))
          runs
      in
      let arch = Arch.arch_a in
      let t = Timing.create arch in
      List.iter (fun pc -> Timing.alu t ~pc) pcs;
      let cfg = Option.get arch.Arch.icache in
      let c = Cache.create cfg in
      let misses = ref 0 in
      List.iter (fun pc -> if not (Cache.access c pc) then incr misses) pcs;
      Timing.icache_misses t = !misses
      && Timing.cycles t
         = (List.length pcs * arch.Arch.alu_cycles)
           + (!misses * cfg.Cache.miss_penalty))

let prop_cache_miss_then_hit =
  QCheck.Test.make ~count:200 ~name:"cache: immediate re-access always hits"
    QCheck.(int_bound 0xFFFFF)
    (fun addr ->
      let c = Cache.create (cache_cfg ()) in
      ignore (Cache.access c addr);
      Cache.access c addr)

(* [Cache.access] against a naive reference LRU: each set is a list of
   resident lines, most recent first and at most [assoc] long; a miss
   pushes the line on the front and drops the tail. Streams draw from
   twice the cache's line capacity so hits, conflict misses and
   evictions all occur, and every way count the presets use is
   covered. *)
let prop_cache_matches_lru_model =
  let line = 16 in
  let gen =
    QCheck.Gen.(
      let* assoc = oneofl [ 1; 2; 4; 8 ] in
      let* sets = oneofl [ 1; 2; 4 ] in
      let* stream =
        list_size (int_range 1 400)
          (pair (int_bound ((2 * assoc * sets) - 1)) (int_bound (line - 1)))
      in
      return (assoc, sets, stream))
  in
  QCheck.Test.make ~count:300
    ~name:"cache: hit/miss sequence matches a list-based LRU model"
    (QCheck.make
       ~print:QCheck.Print.(triple int int (list (pair int int)))
       gen)
    (fun (assoc, sets, stream) ->
      let c =
        Cache.create (cache_cfg ~size:(sets * assoc * line) ~line ~assoc ())
      in
      let model = Array.make sets [] in
      let model_access l =
        let s = l land (sets - 1) in
        let hit = List.mem l model.(s) in
        model.(s) <-
          List.filteri
            (fun i _ -> i < assoc)
            (l :: List.filter (( <> ) l) model.(s));
        hit
      in
      let hits = ref 0 in
      let same =
        List.for_all
          (fun (l, off) ->
            let expect = model_access l in
            if expect then incr hits;
            Cache.access c ((l * line) + off) = expect)
          stream
      in
      same
      && Cache.hits c = !hits
      && Cache.misses c = List.length stream - !hits)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sdt_march"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_basic;
          Alcotest.test_case "lru" `Quick test_cache_lru;
          Alcotest.test_case "direct-mapped conflicts" `Quick test_cache_direct_mapped;
          Alcotest.test_case "reset" `Quick test_cache_reset;
          Alcotest.test_case "bad geometry" `Quick test_cache_bad_geometry;
          qt prop_cache_fits_working_set;
          qt prop_cache_miss_then_hit;
          qt prop_cache_matches_lru_model;
        ] );
      ( "predictors",
        [
          Alcotest.test_case "cond learns bias" `Quick test_cond_learns;
          Alcotest.test_case "cond alternating" `Quick test_cond_alternating;
          Alcotest.test_case "btb monomorphic" `Quick test_btb_monomorphic;
          Alcotest.test_case "btb megamorphic" `Quick test_btb_megamorphic;
          Alcotest.test_case "btb disabled" `Quick test_btb_disabled;
          Alcotest.test_case "ras pairing" `Quick test_ras_pairing;
          Alcotest.test_case "ras overflow" `Quick test_ras_overflow_wraps;
          qt prop_ras_lifo;
        ] );
      ("arch", [ Alcotest.test_case "presets" `Quick test_arch_presets ]);
      ( "arch-presets",
        [
          Alcotest.test_case "archC predictions absent" `Quick
            test_arch_c_no_prediction;
          Alcotest.test_case "all presets well-formed" `Quick
            test_all_presets_well_formed;
        ] );
      ( "timing",
        [
          Alcotest.test_case "ideal" `Quick test_timing_ideal;
          Alcotest.test_case "base costs" `Quick test_timing_base_costs;
          Alcotest.test_case "warm load" `Quick test_timing_warm_load_cost;
          Alcotest.test_case "return without RAS" `Quick
            test_timing_return_without_ras;
          Alcotest.test_case "reset" `Quick test_timing_reset;
          Alcotest.test_case "icache per fetch" `Quick
            test_icache_charged_per_fetch;
          qt prop_icache_mru_bitexact;
          Alcotest.test_case "fixed indirect cost" `Quick test_timing_indirect_fixed;
          Alcotest.test_case "btb learns" `Quick test_timing_btb_learns;
          Alcotest.test_case "ras pairs calls" `Quick test_timing_ras;
          Alcotest.test_case "runtime bucket" `Quick test_timing_runtime_bucket;
          Alcotest.test_case "cache presence" `Quick test_timing_dcache_pollution;
        ] );
    ]
