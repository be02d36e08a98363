module Word = Sdt_isa.Word
module Reg = Sdt_isa.Reg
module Inst = Sdt_isa.Inst
module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing

exception Error of string

type counters = Counters.t = {
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  mutable cond_branches : int;
  mutable jumps : int;
  mutable calls : int;
  mutable icalls : int;
  mutable ijumps : int;
  mutable returns : int;
  mutable syscalls : int;
  mutable traps : int;
}

type status = Running | Exited of int

type t = {
  mem : Memory.t;
  regs : int array;
  mutable pc : int;
  timing : Timing.t;
  mutable status : status;
  out : Buffer.t;
  mutable checksum : int;
  c : counters;
  mutable trap_handler : t -> code:int -> trap_pc:int -> unit;
  mutable bcache : Block.cache option;
  mutable binspect : bool;
  mutable cfi_guard : (int -> bool) option;
}

let no_handler _ ~code ~trap_pc =
  raise
    (Error
       (Printf.sprintf "trap %d at %#x with no handler installed" code trap_pc))

let create ?(timing = Timing.create Arch.ideal) ~mem_size () =
  {
    mem = Memory.create ~size_bytes:mem_size;
    regs = Array.make 32 0;
    pc = 0;
    timing;
    status = Running;
    (* pre-sized: workloads print whole result lines; 256 bytes forced
       several doublings (and copies) on every run *)
    out = Buffer.create 4096;
    checksum = 0;
    c = Counters.create ();
    trap_handler = no_handler;
    bcache = None;
    binspect = false;
    cfi_guard = None;
  }

let set_trap_handler t h = t.trap_handler <- h

(* Install (or clear) the CFI link guard the block cache consults before
   caching an indirect chain link. Any live cache was built without it,
   so drop it; installation happens before the first run in practice. *)
let set_cfi_guard t g =
  t.cfi_guard <- g;
  t.bcache <- None

(* Request per-IB-site introspection from the next block cache. Must be
   set before the first [run_blocks] call to cover the whole run: a
   live cache with the wrong flag is rebuilt (losing its compiled
   blocks), which is correct but wasteful mid-run. *)
let set_block_introspect t on = t.binspect <- on
let block_cache t = t.bcache
let reg t r = if r = 0 then 0 else t.regs.(r)

let set_reg t r v = if r <> 0 then t.regs.(r) <- v land Word.mask

(* A sentinel PC installed before calling the trap handler; if the
   handler forgets to set a continuation the next fetch faults loudly
   instead of re-executing the trap. *)
let poison_pc = -4

let do_syscall t =
  t.c.syscalls <- t.c.syscalls + 1;
  let env =
    {
      Syscall.num = reg t Reg.v0;
      arg0 = reg t Reg.a0;
      put = Buffer.add_string t.out;
      mix = (fun v -> t.checksum <- Syscall.mix_checksum t.checksum v);
      read_str = Memory.read_string t.mem;
      exit = (fun code -> t.status <- Exited (code land 0xFF));
    }
  in
  Syscall.perform env

(* Register file accessors at module level: defining them inside the
   execution loop allocated two closures per executed instruction. *)
let[@inline] rget regs r = if r = 0 then 0 else Array.unsafe_get regs r

let[@inline] rset regs r v =
  if r <> 0 then Array.unsafe_set regs r (v land Word.mask)

(* Execute one already-fetched, already-counted instruction at [pc].
   Shared by the per-step path ({!step}) and the block executor; every
   arm assigns [t.pc] itself so fall-through and transfers look the
   same to both callers. *)
let exec t i pc =
  let next = pc + 4 in
  let regs = t.regs in
  let c = t.c in
  let tm = t.timing in
  match i with
  | Inst.Nop ->
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Add (rd, rs, rt) ->
      rset regs rd (Word.add (rget regs rs) (rget regs rt));
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Sub (rd, rs, rt) ->
      rset regs rd (Word.sub (rget regs rs) (rget regs rt));
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Mul (rd, rs, rt) ->
      rset regs rd (Word.mul (rget regs rs) (rget regs rt));
      t.pc <- next;
      Timing.mul tm ~pc
  | Inst.Div (rd, rs, rt) ->
      rset regs rd (Word.sdiv (rget regs rs) (rget regs rt));
      t.pc <- next;
      Timing.div tm ~pc
  | Inst.Rem (rd, rs, rt) ->
      rset regs rd (Word.srem (rget regs rs) (rget regs rt));
      t.pc <- next;
      Timing.div tm ~pc
  | Inst.And (rd, rs, rt) ->
      rset regs rd (Word.logand (rget regs rs) (rget regs rt));
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Or (rd, rs, rt) ->
      rset regs rd (Word.logor (rget regs rs) (rget regs rt));
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Xor (rd, rs, rt) ->
      rset regs rd (Word.logxor (rget regs rs) (rget regs rt));
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Nor (rd, rs, rt) ->
      rset regs rd (Word.lognot (Word.logor (rget regs rs) (rget regs rt)));
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Slt (rd, rs, rt) ->
      rset regs rd (if Word.lt_s (rget regs rs) (rget regs rt) then 1 else 0);
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Sltu (rd, rs, rt) ->
      rset regs rd (if Word.lt_u (rget regs rs) (rget regs rt) then 1 else 0);
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Sllv (rd, rt, rs) ->
      rset regs rd (Word.shl (rget regs rt) (rget regs rs));
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Srlv (rd, rt, rs) ->
      rset regs rd (Word.shr_l (rget regs rt) (rget regs rs));
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Srav (rd, rt, rs) ->
      rset regs rd (Word.shr_a (rget regs rt) (rget regs rs));
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Sll (rd, rt, sh) ->
      rset regs rd (Word.shl (rget regs rt) sh);
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Srl (rd, rt, sh) ->
      rset regs rd (Word.shr_l (rget regs rt) sh);
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Sra (rd, rt, sh) ->
      rset regs rd (Word.shr_a (rget regs rt) sh);
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Addi (rt, rs, imm) ->
      rset regs rt (Word.add (rget regs rs) (Word.of_signed imm));
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Slti (rt, rs, imm) ->
      rset regs rt
        (if Word.lt_s (rget regs rs) (Word.of_signed imm) then 1 else 0);
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Sltiu (rt, rs, imm) ->
      rset regs rt
        (if Word.lt_u (rget regs rs) (Word.of_signed imm) then 1 else 0);
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Andi (rt, rs, imm) ->
      rset regs rt (Word.logand (rget regs rs) imm);
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Ori (rt, rs, imm) ->
      rset regs rt (Word.logor (rget regs rs) imm);
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Xori (rt, rs, imm) ->
      rset regs rt (Word.logxor (rget regs rs) imm);
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Lui (rt, imm) ->
      rset regs rt (imm lsl 16);
      t.pc <- next;
      Timing.alu tm ~pc
  | Inst.Lw (rt, rs, off) ->
      let addr = Word.add (rget regs rs) (Word.of_signed off) in
      rset regs rt (Memory.load_word t.mem addr);
      c.loads <- c.loads + 1;
      t.pc <- next;
      Timing.load tm ~pc ~addr
  | Inst.Lb (rt, rs, off) ->
      let addr = Word.add (rget regs rs) (Word.of_signed off) in
      rset regs rt (Memory.load_byte_s t.mem addr);
      c.loads <- c.loads + 1;
      t.pc <- next;
      Timing.load tm ~pc ~addr
  | Inst.Lbu (rt, rs, off) ->
      let addr = Word.add (rget regs rs) (Word.of_signed off) in
      rset regs rt (Memory.load_byte_u t.mem addr);
      c.loads <- c.loads + 1;
      t.pc <- next;
      Timing.load tm ~pc ~addr
  | Inst.Sw (rt, rs, off) ->
      let addr = Word.add (rget regs rs) (Word.of_signed off) in
      Memory.store_word t.mem addr (rget regs rt);
      c.stores <- c.stores + 1;
      t.pc <- next;
      Timing.store tm ~pc ~addr
  | Inst.Sb (rt, rs, off) ->
      let addr = Word.add (rget regs rs) (Word.of_signed off) in
      Memory.store_byte t.mem addr (rget regs rt);
      c.stores <- c.stores + 1;
      t.pc <- next;
      Timing.store tm ~pc ~addr
  | Inst.Beq (rs, rt, off) ->
      let taken = rget regs rs = rget regs rt in
      c.cond_branches <- c.cond_branches + 1;
      t.pc <- (if taken then next + (off * 4) else next);
      Timing.cond tm ~pc ~taken
  | Inst.Bne (rs, rt, off) ->
      let taken = rget regs rs <> rget regs rt in
      c.cond_branches <- c.cond_branches + 1;
      t.pc <- (if taken then next + (off * 4) else next);
      Timing.cond tm ~pc ~taken
  | Inst.Blt (rs, rt, off) ->
      let taken = Word.lt_s (rget regs rs) (rget regs rt) in
      c.cond_branches <- c.cond_branches + 1;
      t.pc <- (if taken then next + (off * 4) else next);
      Timing.cond tm ~pc ~taken
  | Inst.Bge (rs, rt, off) ->
      let taken = not (Word.lt_s (rget regs rs) (rget regs rt)) in
      c.cond_branches <- c.cond_branches + 1;
      t.pc <- (if taken then next + (off * 4) else next);
      Timing.cond tm ~pc ~taken
  | Inst.Bltu (rs, rt, off) ->
      let taken = Word.lt_u (rget regs rs) (rget regs rt) in
      c.cond_branches <- c.cond_branches + 1;
      t.pc <- (if taken then next + (off * 4) else next);
      Timing.cond tm ~pc ~taken
  | Inst.Bgeu (rs, rt, off) ->
      let taken = not (Word.lt_u (rget regs rs) (rget regs rt)) in
      c.cond_branches <- c.cond_branches + 1;
      t.pc <- (if taken then next + (off * 4) else next);
      Timing.cond tm ~pc ~taken
  | Inst.J target ->
      c.jumps <- c.jumps + 1;
      t.pc <- (next land 0xF000_0000) lor (target lsl 2);
      Timing.jump tm ~pc
  | Inst.Jal target ->
      c.calls <- c.calls + 1;
      rset regs Reg.ra next;
      t.pc <- (next land 0xF000_0000) lor (target lsl 2);
      Timing.call tm ~pc ~next
  | Inst.Jr rs ->
      let target = rget regs rs in
      t.pc <- target;
      if rs = Reg.ra then begin
        c.returns <- c.returns + 1;
        Timing.return tm ~pc ~target
      end
      else begin
        c.ijumps <- c.ijumps + 1;
        Timing.ijump tm ~pc ~target
      end
  | Inst.Jalr (rd, rs) ->
      let target = rget regs rs in
      c.icalls <- c.icalls + 1;
      rset regs rd next;
      t.pc <- target;
      Timing.icall tm ~pc ~target ~next
  | Inst.Syscall ->
      do_syscall t;
      t.pc <- next;
      Timing.syscall_op tm ~pc
  | Inst.Trap code ->
      (* the trap op is charged before the handler runs, so traces show
         the trap instruction ahead of the translator's service cycles
         it triggers (the handler charges only runtime cycles, so the
         totals are order-independent) *)
      c.traps <- c.traps + 1;
      Timing.trap_op tm ~pc;
      t.pc <- poison_pc;
      t.trap_handler t ~code ~trap_pc:pc
  | Inst.Halt ->
      t.status <- Exited 0;
      Timing.halt_op tm ~pc
  | Inst.Illegal w ->
      raise (Error (Printf.sprintf "illegal instruction %#x at %#x" w pc))

let step t =
  match t.status with
  | Exited _ -> ()
  | Running ->
      let pc = t.pc in
      let i = Memory.fetch t.mem pc in
      t.c.instructions <- t.c.instructions + 1;
      exec t i pc

let run ?(max_steps = 1_000_000_000) t =
  let steps = ref 0 in
  while t.status == Running && !steps < max_steps do
    step t;
    incr steps
  done;
  match t.status with
  | Running ->
      raise (Error (Printf.sprintf "step limit (%d) exceeded at pc=%#x" max_steps t.pc))
  | Exited _ -> ()

(* ------------------------------------------------------------------ *)
(* Block mode: execute compiled blocks ({!Block}) and follow chain
   links between them. The body of a block is ONE closure call — the
   compiled ops are threaded, each tail-calling the next — and a store
   that invalidated live decoded code (possibly the remainder of this
   very block) stops the chain and records the abort point in the
   cache, in which case the block aborts at the continuation PC with
   the over-counted instructions backed out. Terminators either carry
   chain links (followed without re-probing the cache while the
   successor's generation is current) or are [T_stop] instructions
   executed by [exec], which owns status, output, and the trap
   handler. *)

let run_blocks ?(max_steps = 1_000_000_000) ?(chain = true) t =
  (* an installed probe expects per-instruction metric sampling
     granularity; keep the observer's view on the per-step path *)
  if Timing.has_probe t.timing then run ~max_steps t
  else begin
    let cache =
      match t.bcache with
      | Some c
        when Block.chained c = chain && Block.introspected c = t.binspect ->
          c
      | _ ->
          let c =
            Block.create ~regs:t.regs ~counters:t.c ~timing:t.timing ~chain
              ~introspect:t.binspect ?cfi_guard:t.cfi_guard t.mem
          in
          t.bcache <- Some c;
          c
    in
    let c = t.c in
    let tm = t.timing in
    (* [chain_loop] walks the chain; anything that needs a fresh probe
       from [t.pc] (a [T_stop], a mid-block abort, the step limit)
       returns the accumulated step count and re-enters through the
       outer loop's [find]. Tail recursion with plain int accumulators:
       the hot path allocates nothing. *)
    let rec chain_loop blk steps =
      let ni = blk.Block.n_instrs in
      (* counters and compile-time-constant cycle costs accumulate per
         block; loads/stores/branch kinds and the state-dependent
         penalties are attributed inside the compiled closures as on
         the per-step path *)
      c.instructions <- c.instructions + ni;
      Timing.charge tm blk.Block.static_cycles;
      blk.Block.body ();
      let aborted = Block.aborted_ops cache in
      if aborted >= 0 then begin
        Block.clear_abort cache;
        (* a store under the block's own feet: back out the not-yet
           executed instructions (count and batched cycles) and
           re-probe from the continuation *)
        c.instructions <- c.instructions - (ni - aborted);
        Timing.charge tm
          (Array.unsafe_get blk.Block.cyc_prefix aborted
          - blk.Block.static_cycles);
        t.pc <- blk.Block.start + (4 * aborted);
        steps + aborted
      end
      else begin
        let steps = steps + ni in
        match blk.Block.term with
        | Block.T_static s ->
            s.Block.s_exec ();
            t.pc <- s.Block.s_target;
            if steps < max_steps then
              chain_loop (Block.follow_static cache s) steps
            else steps
        | Block.T_cond cd ->
            let taken = cd.Block.c_exec () in
            t.pc <- (if taken then cd.Block.c_taken else cd.Block.c_fall);
            if steps < max_steps then
              chain_loop (Block.follow_cond cache cd taken) steps
            else steps
        | Block.T_indirect ind ->
            let target = ind.Block.i_exec () in
            t.pc <- target;
            if steps < max_steps then
              chain_loop (Block.follow_indirect cache ind target) steps
            else steps
        | Block.T_stop i ->
            exec t i (blk.Block.start + (4 * (ni - 1)));
            steps
      end
    in
    let steps = ref 0 in
    while t.status == Running && !steps < max_steps do
      steps := chain_loop (Block.find cache t.pc) !steps
    done;
    match t.status with
    | Running ->
        raise
          (Error
             (Printf.sprintf "step limit (%d) exceeded at pc=%#x" max_steps t.pc))
    | Exited _ -> ()
  end

(* The interpreter loops, named once for every caller that picks one
   (CLI flags, the SDT_EXEC_MODE override, tests). *)
type mode = [ `Step | `Block | `Block_nochain ]

let modes : mode list = [ `Step; `Block; `Block_nochain ]

let string_of_mode : mode -> string = function
  | `Step -> "step"
  | `Block -> "block"
  | `Block_nochain -> "block-nochain"

let mode_of_string s =
  match List.find_opt (fun m -> string_of_mode m = s) modes with
  | Some m -> Ok m
  | None ->
      Error
        (Printf.sprintf "unknown exec mode %S (want %s)" s
           (String.concat ", " (List.map string_of_mode modes)))

let run_mode ?max_steps (mode : mode) t =
  match mode with
  | `Step -> run ?max_steps t
  | `Block -> run_blocks ?max_steps t
  | `Block_nochain -> run_blocks ?max_steps ~chain:false t

let block_stats t = Option.map Block.stats t.bcache

let output t = Buffer.contents t.out
let exit_code t = match t.status with Running -> None | Exited c -> Some c
let ib_dynamic_count t = t.c.icalls + t.c.ijumps + t.c.returns
