(* Program shepherding — the security use case the paper's introduction
   leads with. The SDT owns every control transfer, so it can enforce a
   control-flow policy: indirect branches may only enter the
   application's text segment. Validation happens on the translator's
   miss path — the IB mechanisms then cache only *validated* targets, so
   the policy costs nothing in steady state.

   Shepherding is the degenerate control-transfer policy
   ([Config.Cfi_shepherd], [via_run --cfi shepherd]): the text-range
   check every CFI policy makes on translator lookups, and nothing else.

   The example runs a victim program whose function-pointer table is
   "corrupted" to point into its data segment, then shows (a) the
   unprotected SDT following the rogue pointer and (b) the shepherded
   SDT stopping it, and finally measures the enforcement overhead on a
   legitimate workload: none.

   Run with: dune exec examples/shepherding.exe *)

module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Assembler = Sdt_isa.Assembler
module Config = Sdt_core.Config
module Cfi = Sdt_core.Cfi
module Runtime = Sdt_core.Runtime
module Suite = Sdt_workloads.Suite

let victim =
  {|
# a dispatcher whose table gets "corrupted" with a pointer into .data
        .data
table:  .word 0, 0
# "shellcode": these data words decode to
#   li $a0,'!' ; li $v0,2 ; syscall ; li $a0,1 ; li $v0,5 ; syscall
evil:   .word 0x20040021, 0x20020002, 0x0000000c
        .word 0x20040001, 0x20020005, 0x0000000c
        .text
main:   la   $t0, table
        la   $t1, ok               # entry 0: legitimate
        sw   $t1, 0($t0)
        la   $t1, evil             # entry 1: hijacked!
        sw   $t1, 4($t0)
        # first dispatch: fine
        lw   $t2, 0($t0)
        jalr $t2
        # second dispatch: follows the corrupted entry
        lw   $t2, 4($t0)
        jalr $t2
        halt

ok:     li   $a0, 'k'
        li   $v0, 2
        syscall
        ret
|}

let () =
  let program = Assembler.assemble_string victim in

  print_endline "1. unprotected SDT follows the corrupted pointer:";
  let with_policy cfi = { Config.default with cfi } in
  let rt =
    Runtime.create ~cfg:(with_policy Config.Cfi_none) ~arch:Arch.arch_a program
  in
  (match Runtime.run ~max_steps:100_000 rt with
  | () ->
      Printf.printf
        "   ...the \"shellcode\" in .data ran: output %S, exit code %s\n"
        (Sdt_machine.Machine.output (Runtime.machine rt))
        (match Sdt_machine.Machine.exit_code (Runtime.machine rt) with
        | Some c -> string_of_int c
        | None -> "-")
  | exception e ->
      Printf.printf "   ...crashed while executing data: %s\n"
        (Printexc.to_string e));

  print_endline "\n2. shepherded SDT stops it at the transfer:";
  let rt =
    Runtime.create
      ~cfg:(with_policy Config.Cfi_shepherd)
      ~arch:Arch.arch_a program
  in
  (match Runtime.run ~max_steps:100_000 rt with
  | () -> print_endline "   BUG: hijack not caught"
  | exception Cfi.Violation { target; _ } ->
      Printf.printf
        "   Cfi.Violation: transfer to 0x%x (the data segment) blocked \
         before the shellcode could run\n"
        target
  | exception e -> Printf.printf "   unexpected: %s\n" (Printexc.to_string e));

  (* enforcement is free in steady state: compare cycles on a real
     workload *)
  let e = Option.get (Suite.find "vortex") in
  let cycles cfi =
    let timing = Timing.create Arch.arch_a in
    let rt =
      Runtime.create ~cfg:(with_policy cfi) ~arch:Arch.arch_a ~timing
        (Suite.program e `Test)
    in
    Runtime.run rt;
    Timing.cycles timing
  in
  let off = cycles Config.Cfi_none and on_ = cycles Config.Cfi_shepherd in
  Printf.printf
    "\n3. enforcement cost on vortex: %d cycles unprotected, %d shepherded \
     (%+.3f%%)\n"
    off on_
    (100.0 *. (float_of_int on_ -. float_of_int off) /. float_of_int off)
