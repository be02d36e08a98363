(* Tests for sdt_par: pool determinism (results and exceptions are
   independent of the jobs count and of scheduling), fingerprint
   distinctness (no aliasing on shared names or elided config fields),
   and the single-flight memo with its on-disk level. *)

module Pool = Sdt_par.Pool
module Fingerprint = Sdt_par.Fingerprint
module Memo = Sdt_par.Memo
module Telemetry = Sdt_par.Telemetry
module Registry = Sdt_observe.Registry
module Jsonw = Sdt_observe.Jsonw
module Arch = Sdt_march.Arch
module Config = Sdt_core.Config

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let jobs_under_test = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_map_matches_serial () =
  let input = Array.init 100 (fun i -> i) in
  let f x = (x * x) + (x mod 7) in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let got = Pool.map pool f input in
          check bool
            (Printf.sprintf "jobs=%d matches Array.map" jobs)
            true
            (got = expected)))
    jobs_under_test

let test_map_empty_and_singleton () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          check bool "empty" true (Pool.map pool succ [||] = [||]);
          check bool "singleton" true (Pool.map pool succ [| 41 |] = [| 42 |])))
    jobs_under_test

let test_iter_visits_each_index_once () =
  let n = 257 in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          (* each task writes only its own slot, so no synchronisation
             is needed to observe the result *)
          let seen = Array.make n 0 in
          Pool.iter pool (fun i -> seen.(i) <- seen.(i) + 1)
            (Array.init n (fun i -> i));
          check bool
            (Printf.sprintf "jobs=%d all once" jobs)
            true
            (Array.for_all (fun c -> c = 1) seen)))
    jobs_under_test

let test_lowest_index_exception () =
  (* several tasks raise; the re-raised exception must be the one from
     the lowest index, whatever the scheduling *)
  let f i = if i mod 13 = 5 then failwith (Printf.sprintf "idx%d" i) else i in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          match Pool.map pool f (Array.init 100 (fun i -> i)) with
          | _ -> Alcotest.fail "expected an exception"
          | exception Failure msg ->
              check string
                (Printf.sprintf "jobs=%d lowest index wins" jobs)
                "idx5" msg))
    jobs_under_test

let test_pool_reusable_after_failure () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (match Pool.map pool (fun _ -> failwith "boom") [| 0; 1 |] with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure _ -> ());
      check bool "next batch fine" true
        (Pool.map pool succ [| 1; 2; 3 |] = [| 2; 3; 4 |]))

let test_with_pool_returns_and_jobs () =
  let v = Pool.with_pool ~jobs:3 (fun pool -> Pool.jobs pool * 7) in
  check int "with_pool passes the result out" 21 v;
  Pool.with_pool ~jobs:0 (fun pool ->
      check int "jobs <= 1 is serial" 1 (Pool.jobs pool));
  check bool "default_jobs positive" true (Pool.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* Fingerprint *)

let test_fingerprint_arch_no_alias () =
  (* the bug this module exists to fix: two arches sharing a [name]
     must not share a fingerprint *)
  let impostor = { Arch.arch_a with Arch.mul_cycles = 99 } in
  check string "impostor keeps the name" Arch.arch_a.Arch.name
    impostor.Arch.name;
  check bool "but not the fingerprint" true
    (Fingerprint.arch Arch.arch_a <> Fingerprint.arch impostor);
  check bool "cells differ too" true
    (Fingerprint.cell ~key:"k" ~arch:Arch.arch_a ~cfg:None
    <> Fingerprint.cell ~key:"k" ~arch:impostor ~cfg:None);
  (* cache geometry is part of the model, so it must be covered *)
  let blind = { Arch.arch_a with Arch.icache = None } in
  check bool "icache geometry covered" true
    (Fingerprint.arch Arch.arch_a <> Fingerprint.arch blind)

let test_fingerprint_config_covers_elided_fields () =
  (* Config.describe elides spill/block_limit/code_capacity; the
     fingerprint must not (the policy is pinned so the shepherd
     variant differs under any SDT_CFI) *)
  let base = { Config.default with Config.cfi = Config.Cfi_none } in
  let variants =
    [
      { base with Config.spill = Config.Spill_always };
      { base with Config.block_limit = base.Config.block_limit + 1 };
      { base with Config.code_capacity = base.Config.code_capacity * 2 };
      { base with Config.count_memops = true };
      { base with Config.cfi = Config.Cfi_shepherd };
    ]
  in
  List.iter
    (fun v ->
      check bool "variant distinct" true
        (Fingerprint.config base <> Fingerprint.config v))
    variants;
  let fps = List.map Fingerprint.config variants in
  check int "variants pairwise distinct"
    (List.length fps)
    (List.length (List.sort_uniq compare fps))

let test_fingerprint_cell_native_vs_cfg () =
  let native = Fingerprint.cell ~key:"k" ~arch:Arch.arch_a ~cfg:None in
  let cfg =
    Fingerprint.cell ~key:"k" ~arch:Arch.arch_a ~cfg:(Some Config.default)
  in
  check bool "native <> configured" true (native <> cfg);
  check bool "key matters" true
    (native <> Fingerprint.cell ~key:"k2" ~arch:Arch.arch_a ~cfg:None);
  check bool "versioned" true (String.length native > 3 && String.sub native 0 3 = "v2|")

let test_digest_shape () =
  let d = Fingerprint.digest "hello" in
  check int "md5 hex width" 32 (String.length d);
  check bool "hex chars" true
    (String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       d);
  check bool "distinct inputs" true (d <> Fingerprint.digest "world")

(* ------------------------------------------------------------------ *)
(* Memo *)

let int_memo namespace =
  Memo.create ~namespace
    ~to_json:(fun n -> Jsonw.Int n)
    ~of_json:(function Jsonw.Int n -> Some n | _ -> None)
    ()

let test_memo_computes_once () =
  let m = int_memo "t" in
  let calls = ref 0 in
  let compute () = incr calls; 42 in
  check int "first" 42 (Memo.find m "k" compute);
  check int "second" 42 (Memo.find m "k" compute);
  check int "computed once" 1 !calls;
  check int "one miss" 1 (Memo.misses m);
  check int "one hit" 1 (Memo.hits m);
  check int "other key recomputes" 42 (Memo.find m "k2" (fun () -> incr calls; 42));
  check int "two computes" 2 !calls

let test_memo_single_flight_across_domains () =
  let m = int_memo "t" in
  let computes = Atomic.make 0 in
  let compute () =
    Atomic.incr computes;
    (* widen the race window so concurrent finders really overlap *)
    let rec spin n = if n > 0 then spin (n - 1) in
    spin 3_000_000;
    7
  in
  Pool.with_pool ~jobs:4 (fun pool ->
      let results =
        Pool.map pool (fun _ -> Memo.find m "shared" compute) (Array.make 16 ())
      in
      check bool "all see the value" true (Array.for_all (( = ) 7) results));
  check int "single flight: one compute" 1 (Atomic.get computes);
  check int "one miss" 1 (Memo.misses m);
  check int "everyone else hit" 15 (Memo.hits m)

let test_memo_release_on_exception () =
  let m = int_memo "t" in
  let attempts = ref 0 in
  let flaky () =
    incr attempts;
    if !attempts = 1 then failwith "transient" else 5
  in
  (match Memo.find m "k" flaky with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  check int "retry succeeds" 5 (Memo.find m "k" flaky);
  check int "cached thereafter" 5 (Memo.find m "k" (fun () -> assert false))

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdt_par_test.%d.%.0f" (Unix.getpid ())
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

let test_memo_disk_round_trip () =
  with_temp_dir (fun dir ->
      let key = "v1|some|canonical|key" in
      let m1 = int_memo "rt" in
      Memo.set_dir m1 (Some dir);
      check int "cold compute" 11 (Memo.find m1 key (fun () -> 11));
      (* a fresh memo (fresh process, morally) with the same namespace
         and directory must serve the value from disk *)
      let m2 = int_memo "rt" in
      Memo.set_dir m2 (Some dir);
      check int "warm load" 11 (Memo.find m2 key (fun () -> Alcotest.fail "recomputed"));
      check int "disk hit counted" 1 (Memo.disk_hits m2);
      check int "no compute" 0 (Memo.misses m2);
      (* clear drops memory but not disk *)
      Memo.clear m2;
      check int "still on disk" 11
        (Memo.find m2 key (fun () -> Alcotest.fail "recomputed")))

let test_memo_disk_rejects_garbage () =
  with_temp_dir (fun dir ->
      let key = "v1|garbage|victim" in
      let path =
        Filename.concat dir
          (Printf.sprintf "g-%s.json" (Fingerprint.digest key))
      in
      let oc = open_out path in
      output_string oc "{not json";
      close_out oc;
      let m = int_memo "g" in
      Memo.set_dir m (Some dir);
      check int "recomputed past garbage" 3 (Memo.find m key (fun () -> 3));
      check int "counted as a miss" 1 (Memo.misses m);
      (* the rewrite must have repaired the entry *)
      let m2 = int_memo "g" in
      Memo.set_dir m2 (Some dir);
      check int "repaired on disk" 3
        (Memo.find m2 key (fun () -> Alcotest.fail "recomputed")))

let test_memo_disk_rejects_key_mismatch () =
  with_temp_dir (fun dir ->
      (* simulate an md5 collision / stale scheme: a well-formed entry
         filed under our digest but carrying a different canonical key *)
      let key = "v1|the|real|key" in
      let m0 = int_memo "c" in
      Memo.set_dir m0 (Some dir);
      ignore (Memo.find m0 key (fun () -> 1));
      let ours = Printf.sprintf "c-%s.json" (Fingerprint.digest key) in
      let other = "v1|an|impostor|key" in
      Sys.rename
        (Filename.concat dir ours)
        (Filename.concat dir
           (Printf.sprintf "c-%s.json" (Fingerprint.digest other)));
      let m = int_memo "c" in
      Memo.set_dir m (Some dir);
      check int "stored key verified, impostor rejected" 9
        (Memo.find m other (fun () -> 9));
      check int "no disk hit" 0 (Memo.disk_hits m))

(* a lookup that lands while the compute is in flight must block (the
   single-flight guarantee), be counted as a wait, and resume with the
   computed value *)
let test_memo_wait_counted () =
  let m = int_memo "w" in
  let started = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Memo.find m "k" (fun () ->
            Atomic.set started true;
            let rec spin n = if n > 0 then spin (n - 1) in
            spin 30_000_000;
            3))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  check int "waiter sees the computed value" 3
    (Memo.find m "k" (fun () -> Alcotest.fail "second compute"));
  check int "wait counted" 1 (Memo.waits m);
  check int "computing domain's own result" 3 (Domain.join d);
  check int "waiter also counts as a hit" 1 (Memo.hits m)

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  go 0

let with_sink f =
  let sink = Telemetry.create () in
  Telemetry.install sink;
  Fun.protect ~finally:(fun () -> Telemetry.uninstall ()) (fun () -> f sink)

let test_telemetry_disabled_noop () =
  Telemetry.uninstall ();
  check bool "no sink" true (Telemetry.active () = None);
  check bool "start is 0" true (Telemetry.start () = 0.);
  check int "elapsed is 0" 0 (Telemetry.elapsed_us (Telemetry.start ()));
  (* every hook must be callable with nothing installed *)
  Telemetry.finish ~cat:"c" ~name:"n" (Telemetry.start ());
  Telemetry.sample ~name:"q" 3;
  Telemetry.count "c" 1;
  Telemetry.observe "h" 5;
  check int "span passes the value through" 9
    (Telemetry.span ~cat:"c" ~name:"n" (fun () -> 9))

let test_telemetry_records () =
  with_sink (fun sink ->
      Telemetry.span ~cat:"t" ~name:"outer" (fun () ->
          Telemetry.count ~labels:[ ("k", "v") ] "t.events" 2;
          Telemetry.observe ~bounds:Telemetry.us_bounds "t.lat_us" 42;
          Telemetry.sample ~name:"t.depth" 1);
      check bool "trace events recorded" true (Telemetry.events sink >= 2);
      let chrome = Jsonw.to_string (Telemetry.to_chrome sink) in
      check bool "span exported" true (contains chrome {|"outer"|});
      check bool "counter sample exported" true (contains chrome "t.depth");
      check bool "worker track metadata" true (contains chrome "thread_name");
      let counters = Registry.counters (Telemetry.registry sink) in
      check bool "registry counter with labels" true
        (List.assoc_opt {|t.events{k="v"}|} counters = Some 2);
      check bool "metrics snapshot exports" true
        (contains (Jsonw.to_string (Telemetry.metrics_json sink)) "t.lat_us"))

let test_telemetry_span_survives_raise () =
  with_sink (fun sink ->
      (match Telemetry.span ~cat:"t" ~name:"boom" (fun () -> failwith "x") with
      | _ -> Alcotest.fail "expected the exception through"
      | exception Failure _ -> ());
      check bool "span still recorded" true (Telemetry.events sink >= 1);
      check bool "span named" true
        (contains (Jsonw.to_string (Telemetry.to_chrome sink)) {|"boom"|}))

(* the pool and memo hooks end-to-end: results are unchanged by a live
   sink, and the sink sees task/batch spans, queue-depth samples, and
   the memo's hit/miss accounting *)
let test_telemetry_pool_and_memo_instrumented () =
  let expected = Array.init 16 (fun i -> i mod 4) in
  with_sink (fun sink ->
      let m = int_memo "tele" in
      Pool.with_pool ~jobs:2 (fun pool ->
          let got =
            Pool.map pool
              (fun i -> Memo.find m (string_of_int (i mod 4)) (fun () -> i mod 4))
              (Array.init 16 (fun i -> i))
          in
          check bool "results unchanged under telemetry" true (got = expected));
      let counters = Registry.counters (Telemetry.registry sink) in
      let total prefix =
        List.fold_left
          (fun acc (id, v) ->
            if
              String.length id >= String.length prefix
              && String.sub id 0 (String.length prefix) = prefix
            then acc + v
            else acc)
          0 counters
      in
      check int "memo misses counted" 4 (total "memo.misses");
      check int "memo hits (incl. resumed waiters) counted" 12
        (total "memo.hits" + total "memo.waits");
      let chrome = Jsonw.to_string (Telemetry.to_chrome sink) in
      check bool "task spans" true (contains chrome {|"task"|});
      check bool "batch span" true (contains chrome {|"batch"|});
      check bool "queue depth sampled" true (contains chrome "pool.queue_depth"))

let () =
  Alcotest.run "sdt_par"
    [
      ( "pool",
        [
          Alcotest.test_case "map = Array.map" `Quick test_map_matches_serial;
          Alcotest.test_case "empty and singleton" `Quick
            test_map_empty_and_singleton;
          Alcotest.test_case "iter visits once" `Quick
            test_iter_visits_each_index_once;
          Alcotest.test_case "lowest-index exception" `Quick
            test_lowest_index_exception;
          Alcotest.test_case "reusable after failure" `Quick
            test_pool_reusable_after_failure;
          Alcotest.test_case "with_pool / jobs" `Quick
            test_with_pool_returns_and_jobs;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "arch name aliasing fixed" `Quick
            test_fingerprint_arch_no_alias;
          Alcotest.test_case "config covers elided fields" `Quick
            test_fingerprint_config_covers_elided_fields;
          Alcotest.test_case "cell native vs configured" `Quick
            test_fingerprint_cell_native_vs_cfg;
          Alcotest.test_case "digest shape" `Quick test_digest_shape;
        ] );
      ( "memo",
        [
          Alcotest.test_case "computes once" `Quick test_memo_computes_once;
          Alcotest.test_case "single flight across domains" `Quick
            test_memo_single_flight_across_domains;
          Alcotest.test_case "release on exception" `Quick
            test_memo_release_on_exception;
          Alcotest.test_case "disk round trip" `Quick test_memo_disk_round_trip;
          Alcotest.test_case "disk rejects garbage" `Quick
            test_memo_disk_rejects_garbage;
          Alcotest.test_case "disk rejects key mismatch" `Quick
            test_memo_disk_rejects_key_mismatch;
          Alcotest.test_case "wait counted" `Quick test_memo_wait_counted;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "disabled hooks no-op" `Quick
            test_telemetry_disabled_noop;
          Alcotest.test_case "records spans and metrics" `Quick
            test_telemetry_records;
          Alcotest.test_case "span survives a raise" `Quick
            test_telemetry_span_survives_raise;
          Alcotest.test_case "pool and memo instrumented" `Quick
            test_telemetry_pool_and_memo_instrumented;
        ] );
    ]
