(* Tests for the sdt_machine library: memory, syscalls, and the
   fetch-decode-execute core. *)

module Word = Sdt_isa.Word
module Reg = Sdt_isa.Reg
module Inst = Sdt_isa.Inst
module Decode = Sdt_isa.Decode
module Encode = Sdt_isa.Encode
module Builder = Sdt_isa.Builder
module Assembler = Sdt_isa.Assembler
module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Memory = Sdt_machine.Memory
module Machine = Sdt_machine.Machine
module Syscall = Sdt_machine.Syscall
module Loader = Sdt_machine.Loader
module Suite = Sdt_workloads.Suite

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Memory *)

let test_memory_words () =
  let m = Memory.create ~size_bytes:4096 in
  Memory.store_word m 0x100 0xDEAD_BEEF;
  check int "load back" 0xDEAD_BEEF (Memory.load_word m 0x100);
  check int "little endian byte 0" 0xEF (Memory.load_byte_u m 0x100);
  check int "little endian byte 3" 0xDE (Memory.load_byte_u m 0x103);
  Memory.store_byte m 0x100 0x01;
  check int "byte store visible in word" 0xDEAD_BE01 (Memory.load_word m 0x100)

let test_memory_faults () =
  let m = Memory.create ~size_bytes:4096 in
  let faults f = match f () with exception Memory.Fault _ -> true | _ -> false in
  check bool "misaligned load" true (faults (fun () -> Memory.load_word m 2));
  check bool "oob load" true (faults (fun () -> Memory.load_word m 4096));
  check bool "negative" true (faults (fun () -> Memory.load_byte_u m (-1)));
  check bool "oob store" true (faults (fun () -> Memory.store_word m 4094 0))

let test_memory_decode_cache_invalidation () =
  let m = Memory.create ~size_bytes:4096 in
  Memory.store_word m 0x200 (Encode.inst (Inst.Addi (Reg.t0, Reg.zero, 7)));
  (match Memory.fetch m 0x200 with
  | Inst.Addi (_, _, 7) -> ()
  | i -> Alcotest.failf "bad fetch: %s" (Inst.to_string i));
  (* patch the word — the stale decoding must be dropped *)
  Memory.store_word m 0x200 (Encode.inst (Inst.Addi (Reg.t0, Reg.zero, 9)));
  (match Memory.fetch m 0x200 with
  | Inst.Addi (_, _, 9) -> ()
  | i -> Alcotest.failf "stale decode cache: %s" (Inst.to_string i));
  (* byte stores must invalidate too *)
  Memory.store_byte m 0x200 0xFF;
  (match Memory.fetch m 0x200 with
  | Inst.Addi (_, _, 9) -> Alcotest.fail "stale decode after byte store"
  | _ -> ())

let test_memory_read_string () =
  let m = Memory.create ~size_bytes:4096 in
  String.iteri (fun i c -> Memory.store_byte m (0x300 + i) (Char.code c)) "via\000";
  check string "read" "via" (Memory.read_string m 0x300);
  (* strings are ASCII by contract: a byte >= 0x80 is not silently
     passed through but faulted, like any other malformed access *)
  Memory.store_byte m 0x400 (Char.code 'a');
  Memory.store_byte m 0x401 0x80;
  Memory.store_byte m 0x402 0x00;
  check bool "high byte faults" true
    (match Memory.read_string m 0x400 with
    | exception Memory.Fault _ -> true
    | _ -> false)

(* An empty bulk write stores nothing, so it must not drop a cached
   decoding or bump the generation — a spurious bump stales every
   decoded block. *)
let test_memory_empty_write_bytes () =
  let m = Memory.create ~size_bytes:4096 in
  Memory.store_word m 0x200 (Encode.inst (Inst.Addi (Reg.t0, Reg.zero, 7)));
  ignore (Memory.fetch m 0x200);
  let gen = Memory.code_gen m in
  List.iter (fun a -> Memory.write_bytes m a Bytes.empty) [ 0x200; 0x201; 0x203 ];
  check int "no bump" gen (Memory.code_gen m);
  Memory.write_bytes m 0x203 (Bytes.make 1 '\000');
  check int "one-byte write bumps" (gen + 1) (Memory.code_gen m)

(* Differential: the paged memory against a flat [Bytes] reference
   over random operation sequences aimed at page edges (pages are
   4 KiB). Values, fault kinds and addresses, the decode cache and the
   code generation must all agree. The reference invalidates a word's
   decoding on any store into it and counts a bump only when the word
   had been fetched. *)
type mem_op =
  | Load_word of int
  | Store_word of int * int
  | Load_byte_u of int
  | Load_byte_s of int
  | Store_byte of int * int
  | Fetch of int
  | Write_bytes of int * string
  | Digest of int * int
  | Read_string of int

type mem_outcome = Val of int | Ins of Inst.t | Str of string | Done | Faulted of int * string

let diff_page = 4096
let diff_size_bytes = (3 * diff_page) + 0x41 (* a partial fourth page, rounded up to 4 *)

let string_of_mem_op op =
  let hex a = if a < 0 then Printf.sprintf "-%#x" (-a) else Printf.sprintf "%#x" a in
  match op with
  | Load_word a -> "lw " ^ hex a
  | Store_word (a, w) -> Printf.sprintf "sw %s %#x" (hex a) w
  | Load_byte_u a -> "lbu " ^ hex a
  | Load_byte_s a -> "lb " ^ hex a
  | Store_byte (a, v) -> Printf.sprintf "sb %s %#x" (hex a) v
  | Fetch a -> "fetch " ^ hex a
  | Write_bytes (a, s) -> Printf.sprintf "write %s len=%d" (hex a) (String.length s)
  | Digest (lo, len) -> Printf.sprintf "digest %s len=%d" (hex lo) len
  | Read_string a -> "str " ^ hex a

let gen_mem_ops =
  let open QCheck.Gen in
  let size = (diff_size_bytes + 3) land lnot 3 in
  let addr =
    frequency
      [
        (6, map2 (fun k d -> (k * diff_page) + d) (0 -- 4) (-8 -- 8));
        (2, 0 -- (size - 1));
        (1, -16 -- -1);
        (1, size -- (size + 16));
      ]
  in
  let word_addr = frequency [ (4, map (fun a -> a land lnot 3) addr); (1, addr) ] in
  let word = map2 (fun hi lo -> (hi lsl 16) lor lo) (0 -- 0xFFFF) (0 -- 0xFFFF) in
  let len =
    frequency
      [ (1, return 0); (3, 1 -- 8); (2, (diff_page - 8) -- ((2 * diff_page) + 8)) ]
  in
  let ascii = map Char.chr (frequency [ (8, 0x61 -- 0x7A); (1, return 0) ]) in
  let data n = oneof [ string_size ~gen:char (return n); string_size ~gen:ascii (return n) ] in
  let op =
    frequency
      [
        (3, map (fun a -> Load_word a) word_addr);
        (3, map2 (fun a w -> Store_word (a, w)) word_addr word);
        (2, map (fun a -> Load_byte_u a) addr);
        (1, map (fun a -> Load_byte_s a) addr);
        (2, map2 (fun a v -> Store_byte (a, v)) addr (0 -- 0x1FF));
        (3, map (fun a -> Fetch a) word_addr);
        (2, addr >>= fun a -> len >>= fun n -> map (fun s -> Write_bytes (a, s)) (data n));
        (1, map2 (fun lo n -> Digest (lo, n)) addr len);
        (1, map (fun a -> Read_string a) addr);
      ]
  in
  list_size (1 -- 60) op

(* the flat reference model *)
type flat = { fb : Bytes.t; fetched : bool array; mutable gen : int }

let flat_fault addr kind = raise (Memory.Fault { addr; kind })

let flat_word f a kind =
  if a land 3 <> 0 then flat_fault a "align";
  if a < 0 || a + 4 > Bytes.length f.fb then flat_fault a kind

let flat_byte f a kind = if a < 0 || a >= Bytes.length f.fb then flat_fault a kind

let flat_le32 f a =
  Char.code (Bytes.get f.fb a)
  lor (Char.code (Bytes.get f.fb (a + 1)) lsl 8)
  lor (Char.code (Bytes.get f.fb (a + 2)) lsl 16)
  lor (Char.code (Bytes.get f.fb (a + 3)) lsl 24)

let flat_stored f widx =
  if f.fetched.(widx) then begin
    f.fetched.(widx) <- false;
    f.gen <- f.gen + 1
  end

let flat_apply f = function
  | Load_word a ->
      flat_word f a "load";
      Val (flat_le32 f a)
  | Store_word (a, w) ->
      flat_word f a "store";
      for i = 0 to 3 do
        Bytes.set f.fb (a + i) (Char.chr ((w lsr (8 * i)) land 0xFF))
      done;
      flat_stored f (a lsr 2);
      Done
  | Load_byte_u a ->
      flat_byte f a "load";
      Val (Char.code (Bytes.get f.fb a))
  | Load_byte_s a ->
      flat_byte f a "load";
      Val (Word.sext8 (Char.code (Bytes.get f.fb a)))
  | Store_byte (a, v) ->
      flat_byte f a "store";
      Bytes.set f.fb a (Char.chr (v land 0xFF));
      flat_stored f (a lsr 2);
      Done
  | Fetch a ->
      flat_word f a "fetch";
      f.fetched.(a lsr 2) <- true;
      Ins (Decode.inst (flat_le32 f a))
  | Write_bytes (a, s) ->
      let n = String.length s in
      if a < 0 || a + n > Bytes.length f.fb then flat_fault a "store";
      Bytes.blit_string s 0 f.fb a n;
      for i = a lsr 2 to ((a + n + 3) lsr 2) - 1 do
        if n > 0 then flat_stored f i
      done;
      Done
  | Digest (lo, len) ->
      if lo < 0 || len < 0 || lo + len > Bytes.length f.fb then flat_fault lo "digest";
      let prime = 0x100000001B3 in
      let h = ref 0x4CB2F29CE484222 in
      for i = 0 to (len lsr 2) - 1 do
        h := (!h lxor flat_le32 f (lo + (i * 4))) * prime land max_int
      done;
      for i = len land lnot 3 to len - 1 do
        h := (!h lxor Char.code (Bytes.get f.fb (lo + i))) * prime land max_int
      done;
      Val !h
  | Read_string a ->
      let buf = Buffer.create 16 in
      let rec go a =
        flat_byte f a "load";
        let c = Char.code (Bytes.get f.fb a) in
        if c <> 0 then begin
          if c >= 0x80 then flat_fault a "string";
          Buffer.add_char buf (Char.chr c);
          go (a + 1)
        end
      in
      go a;
      Str (Buffer.contents buf)

let paged_apply m = function
  | Load_word a -> Val (Memory.load_word m a)
  | Store_word (a, w) -> Memory.store_word m a w; Done
  | Load_byte_u a -> Val (Memory.load_byte_u m a)
  | Load_byte_s a -> Val (Memory.load_byte_s m a)
  | Store_byte (a, v) -> Memory.store_byte m a v; Done
  | Fetch a -> Ins (Memory.fetch m a)
  | Write_bytes (a, s) -> Memory.write_bytes m a (Bytes.of_string s); Done
  | Digest (lo, len) -> Val (Memory.digest_range m ~lo ~len)
  | Read_string a -> Str (Memory.read_string m a)

let outcome apply x op =
  try apply x op with Memory.Fault { addr; kind } -> Faulted (addr, kind)

let qcheck_paged_vs_flat =
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map string_of_mem_op ops))
      gen_mem_ops
  in
  QCheck.Test.make ~count:500 ~name:"paged memory matches a flat reference" arb
    (fun ops ->
      let m = Memory.create ~size_bytes:diff_size_bytes in
      let size = Memory.size m in
      if size <> (diff_size_bytes + 3) land lnot 3 then
        QCheck.Test.fail_reportf "size %d" size;
      let f =
        { fb = Bytes.make size '\000'; fetched = Array.make (size / 4) false;
          gen = Memory.code_gen m }
      in
      List.iteri
        (fun i op ->
          let want = outcome flat_apply f op and got = outcome paged_apply m op in
          if want <> got then
            QCheck.Test.fail_reportf "op %d (%s) differs" i (string_of_mem_op op);
          if Memory.code_gen m <> f.gen then
            QCheck.Test.fail_reportf "op %d (%s): code_gen %d, reference %d" i
              (string_of_mem_op op) (Memory.code_gen m) f.gen)
        ops;
      (* no store may reach the page every fresh memory shares *)
      let fresh = Memory.create ~size_bytes:diff_size_bytes in
      for a = 0 to (size / 4) - 1 do
        if Memory.load_word fresh (a * 4) <> 0 then
          QCheck.Test.fail_reportf "fresh memory word %#x is nonzero" (a * 4)
      done;
      true)

(* The allocation gate, the deterministic proxy for load cost: a
   machine's memory is paged, so loading a test-size workload into the
   default 10 MiB map allocates only the pages its segments cover, not
   the whole map. *)
let test_load_allocation () =
  List.iter
    (fun (e : Suite.entry) ->
      let p = Suite.program e `Test in
      ignore (Loader.load p);
      (* an empty minor heap: no collection runs inside the window *)
      Gc.minor ();
      let b0 = Gc.allocated_bytes () in
      ignore (Sys.opaque_identity (Loader.load ~mem_size:Loader.default_mem_size p));
      let bytes = Gc.allocated_bytes () -. b0 in
      if bytes >= 1048576. then
        Alcotest.failf "%s: Loader.load allocated %.0f bytes" e.Suite.name bytes)
    Suite.all

(* A load from a page no store has touched reads zero and allocates
   nothing, minor or major: it reads through the shared zero page
   instead of materialising one. The harness's own allocation is
   measured with an empty body and subtracted. *)
let test_unwritten_load_allocation () =
  let m = Memory.create ~size_bytes:Loader.default_mem_size in
  let acc = ref 0 in
  let loads () =
    for i = 0 to 9_999 do
      let a = (i * 1028) land (Loader.default_mem_size - 4) in
      acc := !acc lor Memory.load_word m a lor Memory.load_byte_u m (a + 1)
    done
  in
  let allocated f =
    Gc.minor ();
    let b0 = Gc.allocated_bytes () in
    f ();
    Gc.allocated_bytes () -. b0
  in
  let base = allocated (fun () -> ()) in
  let used = allocated loads in
  check int "reads zero" 0 !acc;
  check int "bytes allocated" 0 (int_of_float (used -. base))

(* ------------------------------------------------------------------ *)
(* Syscall *)

let test_checksum_mix () =
  let a = Syscall.mix_checksum 0 42 in
  let b = Syscall.mix_checksum a 43 in
  check bool "mix moves" true (a <> 0 && b <> a);
  check bool "32-bit" true (b >= 0 && b <= Word.mask)

(* ------------------------------------------------------------------ *)
(* Machine *)

let run_asm ?timing src =
  let p = Assembler.assemble_string src in
  let m = Loader.load ?timing p in
  Machine.run ~max_steps:2_000_000 m;
  m

let test_factorial_real () =
  let m =
    run_asm
      {|
main:   li   $t9, 2
        li   $a0, 10
        jal  fact
        move $a0, $v0
        li   $v0, 1
        syscall
        li   $a0, 10
        li   $v0, 2
        syscall
        halt

# v0 = fact(a0)
fact:   blt  $a0, $t9, fbase
        push $ra
        push $a0
        addi $a0, $a0, -1
        jal  fact
        pop  $a0
        pop  $ra
        mul  $v0, $v0, $a0
        ret
fbase:  li   $v0, 1
        ret
|}
  in
  check string "10! printed" "3628800\n" (Machine.output m);
  check (Alcotest.option int) "exit" (Some 0) (Machine.exit_code m)

let test_loop_and_memory () =
  let m =
    run_asm
      {|
        .data
acc:    .word 0
        .text
main:   la   $s0, acc
        li   $t0, 0          # i
        li   $t1, 100
loop:   lw   $t2, 0($s0)
        add  $t2, $t2, $t0
        sw   $t2, 0($s0)
        addi $t0, $t0, 1
        blt  $t0, $t1, loop
        lw   $a0, 0($s0)
        li   $v0, 1
        syscall
        halt
|}
  in
  check string "sum 0..99" "4950" (Machine.output m)

let test_syscalls () =
  let m =
    run_asm
      {|
        .data
msg:    .asciiz "ok\n"
        .text
main:   la   $a0, msg
        li   $v0, 3
        syscall
        li   $a0, -7
        li   $v0, 1
        syscall
        li   $a0, 1234
        li   $v0, 4
        syscall
        li   $a0, 3
        li   $v0, 5
        syscall
        halt
|}
  in
  check string "output" "ok\n-7" (Machine.output m);
  check (Alcotest.option int) "exit code" (Some 3) (Machine.exit_code m);
  check int "checksum" (Syscall.mix_checksum 0 1234) m.Machine.checksum

let test_indirect_branches_counted () =
  let m =
    run_asm
      {|
main:   la   $t0, f
        jalr $t0             # indirect call
        la   $t1, g
        jr   $t1             # indirect jump
g:      halt
f:      ret                  # return
|}
  in
  check int "icalls" 1 m.Machine.c.Machine.icalls;
  check int "returns" 1 m.Machine.c.Machine.returns;
  check int "ijumps" 1 m.Machine.c.Machine.ijumps;
  check int "ib total" 3 (Machine.ib_dynamic_count m)

let test_zero_register () =
  let m =
    run_asm
      {|
main:   li   $t0, 5
        add  $zero, $t0, $t0   # write to $zero is discarded
        move $a0, $zero
        li   $v0, 1
        syscall
        halt
|}
  in
  check string "zero stays zero" "0" (Machine.output m)

let test_illegal_raises () =
  let p = Assembler.assemble_string "main: halt" in
  let m = Loader.load p in
  (* overwrite the halt with a word that does not decode *)
  Memory.store_word m.Machine.mem p.Sdt_isa.Program.entry 0xFFFF_FFFF;
  check bool "illegal raises" true
    (match Machine.run m with exception Machine.Error _ -> true | _ -> false)

let test_trap_requires_handler () =
  let b = Builder.create () in
  let start = Builder.here b in
  Builder.emit b (Inst.Trap 3);
  Builder.halt b;
  let p = Builder.assemble b ~entry:start in
  let m = Loader.load p in
  check bool "unhandled trap raises" true
    (match Machine.run m with exception Machine.Error _ -> true | _ -> false)

let test_trap_handler_must_set_pc () =
  let b = Builder.create () in
  let start = Builder.here b in
  Builder.emit b (Inst.Trap 3);
  Builder.halt b;
  let p = Builder.assemble b ~entry:start in
  let m = Loader.load p in
  Machine.set_trap_handler m (fun _ ~code:_ ~trap_pc:_ -> () (* forgets pc *));
  check bool "poisoned pc faults" true
    (match Machine.run m with
    | exception Memory.Fault _ -> true
    | _ -> false)

let test_trap_handler_resumes () =
  let b = Builder.create () in
  let start = Builder.here b in
  Builder.emit b (Inst.Trap 7);
  let after = Builder.fresh_label b in
  Builder.place b after;
  Builder.emit b (Inst.Add (Reg.a0, Reg.t5, Reg.zero));
  Builder.emit b (Inst.Addi (Reg.v0, Reg.zero, 1));
  Builder.syscall b;
  Builder.halt b;
  let p = Builder.assemble b ~entry:start in
  let m = Loader.load p in
  Machine.set_trap_handler m (fun m ~code ~trap_pc ->
      Machine.set_reg m Reg.t5 (code * 10);
      m.Machine.pc <- trap_pc + 4);
  Machine.run m;
  check string "handler ran and resumed" "70" (Machine.output m)

let test_step_limit () =
  let m' = Assembler.assemble_string "main: j main" in
  let m = Loader.load m' in
  check bool "step limit raises" true
    (match Machine.run ~max_steps:1000 m with
    | exception Machine.Error _ -> true
    | _ -> false)

let test_native_timing_sane () =
  let timing = Timing.create Arch.arch_a in
  let m =
    run_asm ~timing
      {|
main:   li   $t0, 0
        li   $t1, 10000
loop:   addi $t0, $t0, 1
        blt  $t0, $t1, loop
        halt
|}
  in
  let instrs = m.Machine.c.Machine.instructions in
  let cycles = Timing.cycles timing in
  check bool "cycles >= instructions" true (cycles >= instrs);
  (* a predictable tight loop should be close to 1 cycle/instruction *)
  check bool "CPI < 2" true (cycles < 2 * instrs)

let test_word_ops_semantics () =
  let m =
    run_asm
      {|
main:   li   $t0, -8
        li   $t1, 3
        div  $t2, $t0, $t1     # -2
        rem  $t3, $t0, $t1     # -2
        mul  $t4, $t0, $t1     # -24
        sra  $t5, $t0, 1       # -4
        srl  $t6, $t0, 28      # 15
        add  $a0, $t2, $t3
        add  $a0, $a0, $t4
        add  $a0, $a0, $t5
        add  $a0, $a0, $t6
        li   $v0, 1
        syscall
        halt
|}
  in
  check string "signed arithmetic" (string_of_int (-2 - 2 - 24 - 4 + 15))
    (Machine.output m)

let test_unsigned_branches () =
  let m =
    run_asm
      {|
main:   li   $t0, -1          # 0xFFFFFFFF: huge unsigned
        li   $t1, 1
        li   $a0, 0
        bltu $t0, $t1, bad    # unsigned: not taken
        addi $a0, $a0, 1
        bgeu $t0, $t1, good   # unsigned: taken
bad:    li   $a0, 99
good:   li   $v0, 1
        syscall
        halt
|}
  in
  check string "unsigned compare semantics" "1" (Machine.output m)

let test_byte_sign_extension () =
  let m =
    run_asm
      {|
        .data
buf:    .byte 0x80, 0x7F
        .text
main:   la   $t0, buf
        lb   $t1, 0($t0)      # sign-extends to -128
        lbu  $t2, 0($t0)      # zero-extends to 128
        lb   $t3, 1($t0)      # 127 either way
        add  $a0, $t1, $t2    # -128 + 128 = 0
        add  $a0, $a0, $t3
        li   $v0, 1
        syscall
        halt
|}
  in
  check string "lb/lbu semantics" "127" (Machine.output m)

let test_sb_truncates () =
  let m =
    run_asm
      {|
        .data
buf:    .word 0
        .text
main:   la   $t0, buf
        li   $t1, 0x1FF       # store truncates to 0xFF
        sb   $t1, 0($t0)
        lbu  $a0, 0($t0)
        li   $v0, 1
        syscall
        halt
|}
  in
  check string "sb truncates to a byte" "255" (Machine.output m)

let test_jalr_rd_equals_rs () =
  (* jalr t0, t0: the target must be read before rd is written *)
  let m =
    run_asm
      {|
main:   la   $t0, f
        jalr $t0, $t0
        halt                  # unreachable: f exits
f:      li   $a0, 7
        li   $v0, 1
        syscall
        li   $a0, 0
        li   $v0, 5
        syscall
|}
  in
  check string "target read before link write" "7" (Machine.output m)

let test_unknown_syscall () =
  let p = Assembler.assemble_string "main: li $v0, 99
 syscall
 halt" in
  let m = Loader.load p in
  check bool "unknown syscall raises" true
    (match Machine.run m with
    | exception Syscall.Unknown 99 -> true
    | _ -> false)

let test_step_after_exit_is_noop () =
  let p = Assembler.assemble_string "main: halt" in
  let m = Loader.load p in
  Machine.run m;
  let before = m.Machine.c.Machine.instructions in
  Machine.step m;
  Machine.step m;
  check int "no instructions after exit" before m.Machine.c.Machine.instructions

let test_jump_region_semantics () =
  (* J targets are word indices within the 256MiB region of pc+4 *)
  let b = Builder.create () in
  let start = Builder.here b in
  let l = Builder.fresh_label b in
  Builder.j b l;
  Builder.halt b;  (* skipped *)
  Builder.place b l;
  Builder.emit b (Inst.Addi (Reg.a0, Reg.zero, 5));
  Builder.emit b (Inst.Addi (Reg.v0, Reg.zero, 1));
  Builder.syscall b;
  Builder.halt b;
  let p = Builder.assemble b ~entry:start in
  let m = Loader.load p in
  Machine.run m;
  check string "jump lands past halt" "5" (Machine.output m)

let () =
  Alcotest.run "sdt_machine"
    [
      ( "memory",
        [
          Alcotest.test_case "words and bytes" `Quick test_memory_words;
          Alcotest.test_case "faults" `Quick test_memory_faults;
          Alcotest.test_case "decode cache invalidation" `Quick
            test_memory_decode_cache_invalidation;
          Alcotest.test_case "strings" `Quick test_memory_read_string;
          Alcotest.test_case "empty write_bytes" `Quick test_memory_empty_write_bytes;
          QCheck_alcotest.to_alcotest qcheck_paged_vs_flat;
          Alcotest.test_case "load allocation" `Quick test_load_allocation;
          Alcotest.test_case "unwritten load allocation" `Quick
            test_unwritten_load_allocation;
        ] );
      ("syscall", [ Alcotest.test_case "checksum mix" `Quick test_checksum_mix ]);
      ( "machine",
        [
          Alcotest.test_case "factorial" `Quick test_factorial_real;
          Alcotest.test_case "loop and memory" `Quick test_loop_and_memory;
          Alcotest.test_case "syscalls" `Quick test_syscalls;
          Alcotest.test_case "ib counters" `Quick test_indirect_branches_counted;
          Alcotest.test_case "zero register" `Quick test_zero_register;
          Alcotest.test_case "illegal instruction" `Quick test_illegal_raises;
          Alcotest.test_case "unhandled trap" `Quick test_trap_requires_handler;
          Alcotest.test_case "trap must set pc" `Quick test_trap_handler_must_set_pc;
          Alcotest.test_case "trap resume" `Quick test_trap_handler_resumes;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "native timing" `Quick test_native_timing_sane;
          Alcotest.test_case "signed ops" `Quick test_word_ops_semantics;
          Alcotest.test_case "unsigned branches" `Quick test_unsigned_branches;
          Alcotest.test_case "byte sign extension" `Quick test_byte_sign_extension;
          Alcotest.test_case "sb truncation" `Quick test_sb_truncates;
          Alcotest.test_case "jalr rd=rs" `Quick test_jalr_rd_equals_rs;
          Alcotest.test_case "unknown syscall" `Quick test_unknown_syscall;
          Alcotest.test_case "step after exit" `Quick test_step_after_exit_is_noop;
          Alcotest.test_case "jump region" `Quick test_jump_region_semantics;
        ] );
    ]
