(** Program loading and the standard memory map.

    {v
      0x0000_1000  application text
      0x0010_0000  application data
      0x0030_0000  initial stack pointer (grows down)
      0x0040_0000  fragment cache code region    (SDT only)
      0x0090_0000  SDT data: tables, context, shadow stack
      0x00A0_0000  top of memory
    v} *)

module Program = Sdt_isa.Program
module Timing = Sdt_march.Timing

val default_mem_size : int
(** 0x00A0_0000 (10 MiB). *)

val default_stack_top : int
(** 0x0030_0000. *)

val load :
  ?mem_size:int -> ?stack_top:int -> ?timing:Timing.t -> Program.t -> Machine.t
(** Build a machine, copy the program's segments in, point [$sp] at the
    stack top and the PC at the entry. The machine charges its cycles
    to [timing], by default a fresh [Timing.create Arch.ideal]. *)
