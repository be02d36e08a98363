module Word = Sdt_isa.Word
module Reg = Sdt_isa.Reg
module Inst = Sdt_isa.Inst
module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing

(* A compiled basic block: the straight-line run of instructions
   starting at [start] becomes a threaded chain of pre-specialized
   closures ([body]) plus a compiled terminator ([term]). Register
   indices, immediates, per-shape timing charges, and the need (or
   provable non-need) of an instruction-fetch probe are all resolved
   when the block is compiled, and each closure tail-calls its
   compiled successor directly, so executing the body is one indirect
   call per instruction — no [Inst.t] match, no option checks, no
   per-step PC writes, and no loop bookkeeping (index increment,
   bounds compare, return-value test) between instructions.

   Only a store can invalidate live decoded code (bump
   {!Memory.code_gen}) — possibly the remainder of this very block —
   so only store closures re-check the generation: on a bump they
   record how many ops ran in [cache.abort] and return instead of
   calling the rest of the chain, which tells the executor to abort
   the block and re-enter through {!find}. Nothing else pays for the
   check, and the executor tests for an abort once per block rather
   than once per instruction.

   [gen] is the code generation the compilation is valid for. It also
   drives chaining: a terminator's cached successor link is followed
   only while the successor's [gen] equals the current generation, so
   one compare replaces the block-cache probe on hot transitions, and
   any store into decoded code severs every stale link at once.
   [start] is immutable, which is what makes a link to a block that was
   evicted from the table by a colliding PC ("ghost" block) still safe
   to follow: it re-executes exactly the code it was compiled from as
   long as the generation matches. *)

type t = {
  start : int;
  (* [Some] of this very block, boxed once at creation: every chain
     link and table slot that points here shares it, so installing or
     promoting a link allocates nothing *)
  self : t option;
  mutable gen : int;
  mutable n_instrs : int; (* body length + 1 if [term] is a real
                             instruction (fall-through terminators of
                             max-length blocks are synthetic) *)
  mutable body : unit -> unit; (* the threaded chain: one call runs
                                  every body instruction *)
  mutable term : term;
  (* sum of every compile-time-constant base cost in the block (ALU /
     mul / div / mem / branch cycles of body and terminator), charged
     with ONE [Timing.charge] at block entry. Cycle totals are
     order-independent sums, so batching is bit-exact; the closures
     keep only the state-dependent probes (caches, predictors). *)
  mutable static_cycles : int;
  (* cyc_prefix.(k) = static cycles of the first [k] body ops: after a
     mid-block store abort that executed [k] ops, the over-charge
     backed out is [static_cycles - cyc_prefix.(k)] *)
  mutable cyc_prefix : int array;
}

and term =
  | T_static of static_link
      (* [j]/[jal], or the synthetic fall-through of a block cut at
         [max_len] / end of memory: one target, one link *)
  | T_cond of cond_link (* conditional branch: taken/fall-through links *)
  | T_indirect of ind_link (* [jr]/[jalr]: 2-entry MRU inline cache *)
  | T_stop of Inst.t
      (* syscall, trap, halt, illegal: needs machine state (status,
         output, trap handler) — executed by the machine's own [exec] *)

and static_link = {
  s_exec : unit -> unit;
  s_target : int;
  mutable s_link : t option;
}

and cond_link = {
  c_exec : unit -> bool; (* returns [taken] *)
  c_taken : int;
  c_fall : int;
  mutable c_tlink : t option;
  mutable c_flink : t option;
}

and ind_link = {
  i_exec : unit -> int; (* returns the target PC *)
  mutable i_pc0 : int;
  mutable i_l0 : t option;
  mutable i_pc1 : int;
  mutable i_l1 : t option;
  i_site : isite option;
      (* per-IB-site introspection counters; [None] unless the cache
         was created with [~introspect:true], so the only disabled-mode
         cost on an indirect transition is this null test *)
}

(* One record per indirect-branch site (terminator PC), shared by every
   recompilation of its block so counts survive SMC refreshes. *)
and isite = {
  is_pc : int;
  mutable is_hits : int; (* inline cache held the target (either slot) *)
  mutable is_misses : int;
  is_targets : (int, int) Hashtbl.t; (* target PC -> times taken *)
}

(* Direct-mapped by start PC: a lookup is one array read and two
   compares, which matters because the average block is only a few
   instructions long — a hashtable probe per block transition costs
   more than the per-instruction work the block mode saves. Collisions
   simply compile into the slot; chained links keep evicted blocks
   reachable, so two hot PCs aliasing to one slot do not thrash into
   unbounded re-decoding. *)
let slot_bits = 14
let slots = 1 lsl slot_bits
let slot_mask = slots - 1

type cache = {
  mem : Memory.t;
  regs : int array;
  c : Counters.t;
  tm : Timing.t;
  gen : int ref; (* {!Memory.code_gen_ref}: shared with the store guards *)
  chain : bool;
  introspect : bool;
  cfi_guard : (int -> bool) option;
      (* consulted before caching an indirect link; [false] refuses the
         cache entry so the transfer keeps re-probing (and keeps hitting
         the emitted policy checks). Host-side only. *)
  isites : (int, isite) Hashtbl.t; (* IB site pc -> counters *)
  tbl : t option array; (* indexed by (start lsr 2) land slot_mask *)
  decode_buf : Inst.t array;
      (* [max_len] words: {!decode_instrs} writes each block here and
         {!compile} reads it back before returning, so one buffer serves
         every decode of this cache *)
  (* mid-block abort rendezvous: -1 normally; an aborting store closure
     writes the count of body ops that ran (its own compile-time index
     + 1) and the executor reads-and-resets it after the body chain
     returns — one test per block instead of a checked return value per
     instruction *)
  mutable abort : int;
  mutable decodes : int;
  mutable invalidations : int;
  mutable chain_hits : int;
}

(* Long enough that typical blocks (a handful of instructions up to a
   fragment body) compile in one piece, short enough that an abandoned
   compilation after self-modification stays cheap. *)
let max_len = 64

let create ~regs ~counters ~timing ?(chain = true) ?(introspect = false)
    ?cfi_guard mem =
  {
    mem;
    regs;
    c = counters;
    tm = timing;
    gen = Memory.code_gen_ref mem;
    chain;
    introspect;
    cfi_guard;
    isites = Hashtbl.create (if introspect then 64 else 1);
    tbl = Array.make slots None;
    decode_buf = Array.make max_len Inst.Nop;
    abort = -1;
    decodes = 0;
    invalidations = 0;
    chain_hits = 0;
  }

let chained c = c.chain
let introspected c = c.introspect
let generation c = !(c.gen)

let resident c =
  Array.fold_right
    (fun slot acc -> match slot with Some b -> b :: acc | None -> acc)
    c.tbl []

let ind_sites c =
  Hashtbl.fold (fun _ s acc -> s :: acc) c.isites []
  |> List.sort (fun a b -> compare a.is_pc b.is_pc)

let site_targets s =
  Hashtbl.fold (fun pc n acc -> (pc, n) :: acc) s.is_targets []
  |> List.sort compare

let isite_for c pc =
  match Hashtbl.find_opt c.isites pc with
  | Some s -> s
  | None ->
      let s =
        { is_pc = pc; is_hits = 0; is_misses = 0; is_targets = Hashtbl.create 8 }
      in
      Hashtbl.add c.isites pc s;
      s
let[@inline] aborted_ops c = c.abort
let[@inline] clear_abort c = c.abort <- -1

let stats c =
  [
    ("decodes", c.decodes);
    ("invalidations", c.invalidations);
    ("chain_hits", c.chain_hits);
  ]

(* Anything that can redirect the PC, change machine status, or run a
   handler ends a block; everything before it is straight-line. *)
let ends_block = function
  | Inst.Beq _ | Inst.Bne _ | Inst.Blt _ | Inst.Bge _ | Inst.Bltu _
  | Inst.Bgeu _ | Inst.J _ | Inst.Jal _ | Inst.Jr _ | Inst.Jalr _
  | Inst.Syscall | Inst.Trap _ | Inst.Halt | Inst.Illegal _ ->
      true
  | Inst.Nop | Inst.Add _ | Inst.Sub _ | Inst.Mul _ | Inst.Div _ | Inst.Rem _
  | Inst.And _ | Inst.Or _ | Inst.Xor _ | Inst.Nor _ | Inst.Slt _
  | Inst.Sltu _ | Inst.Sllv _ | Inst.Srlv _ | Inst.Srav _ | Inst.Sll _
  | Inst.Srl _ | Inst.Sra _ | Inst.Addi _ | Inst.Slti _ | Inst.Sltiu _
  | Inst.Andi _ | Inst.Ori _ | Inst.Xori _ | Inst.Lui _ | Inst.Lw _
  | Inst.Lb _ | Inst.Lbu _ | Inst.Sw _ | Inst.Sb _ ->
      false

(* Decode the block starting at [start] into [cache.decode_buf] and
   return its length. The first fetch faults exactly like the per-step
   path would; past that, the scan stops cleanly at the end of memory so
   a missing terminator faults only when execution actually reaches the
   out-of-range PC (in the machine state the per-step path would fault
   with). *)
let decode_instrs cache start =
  let mem = cache.mem and buf = cache.decode_buf in
  let first = Memory.fetch mem start in
  buf.(0) <- first;
  if ends_block first then 1
  else begin
    let size = Memory.size mem in
    let n = ref 1 in
    let stop = ref false in
    while (not !stop) && !n < max_len && start + (4 * !n) + 4 <= size do
      let i = Memory.fetch mem (start + (4 * !n)) in
      buf.(!n) <- i;
      incr n;
      if ends_block i then stop := true
    done;
    !n
  end

(* Same register-file conventions as [Machine]: slot 0 reads as zero
   and ignores writes; values are truncated to 32 bits on write.
   Every writer in the system ([rset] here, [Machine]'s [rset] and
   [set_reg]) filters slot 0 and the file is created zeroed, so
   [regs.(0)] is invariantly 0 and reads need no zero-register test. *)
let[@inline] rget regs r = Array.unsafe_get regs r

let[@inline] rset regs r v =
  if r <> 0 then Array.unsafe_set regs r (v land Word.mask)

(* Compile one body (non-terminator) instruction at [pc] under the
   cache's timing model. Base costs are NOT charged here — they are folded into
   the block's batched [static_cycles] — so a closure only performs the
   architectural effect plus whatever probes can change state: the
   fetch probe when [nf] ("need fetch") is true, i.e. the arch has an
   icache and [pc] does not provably share a line with the previous
   instruction of the block (the predecessor always charges its fetch
   first, leaving the MRU line set, so the probe would be a no-op);
   and the dcache probe for memory ops, omitted when the arch has no
   dcache. Every closure tail-calls [next], the compiled remainder of
   the block; [mygen] guards stores, which on a generation bump record
   [ab] (their op index + 1 = ops executed) in [cache.abort] and drop
   the rest of the chain (see above). *)
let compile_op cache ~pc ~nf ~mygen ~ab ~next i : unit -> unit =
  let regs = cache.regs in
  let mem = cache.mem in
  let c = cache.c in
  let gen = cache.gen in
  let tm = cache.tm in
  let dc = (Timing.arch tm).Arch.dcache <> None in
  match i with
  | Inst.Nop ->
      fun () ->
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Add (rd, rs, rt) ->
      fun () ->
        rset regs rd (Word.add (rget regs rs) (rget regs rt));
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Sub (rd, rs, rt) ->
      fun () ->
        rset regs rd (Word.sub (rget regs rs) (rget regs rt));
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Mul (rd, rs, rt) ->
      fun () ->
        rset regs rd (Word.mul (rget regs rs) (rget regs rt));
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Div (rd, rs, rt) ->
      fun () ->
        rset regs rd (Word.sdiv (rget regs rs) (rget regs rt));
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Rem (rd, rs, rt) ->
      fun () ->
        rset regs rd (Word.srem (rget regs rs) (rget regs rt));
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.And (rd, rs, rt) ->
      fun () ->
        rset regs rd (Word.logand (rget regs rs) (rget regs rt));
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Or (rd, rs, rt) ->
      fun () ->
        rset regs rd (Word.logor (rget regs rs) (rget regs rt));
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Xor (rd, rs, rt) ->
      fun () ->
        rset regs rd (Word.logxor (rget regs rs) (rget regs rt));
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Nor (rd, rs, rt) ->
      fun () ->
        rset regs rd (Word.lognot (Word.logor (rget regs rs) (rget regs rt)));
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Slt (rd, rs, rt) ->
      fun () ->
        rset regs rd (if Word.lt_s (rget regs rs) (rget regs rt) then 1 else 0);
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Sltu (rd, rs, rt) ->
      fun () ->
        rset regs rd (if Word.lt_u (rget regs rs) (rget regs rt) then 1 else 0);
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Sllv (rd, rt, rs) ->
      fun () ->
        rset regs rd (Word.shl (rget regs rt) (rget regs rs));
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Srlv (rd, rt, rs) ->
      fun () ->
        rset regs rd (Word.shr_l (rget regs rt) (rget regs rs));
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Srav (rd, rt, rs) ->
      fun () ->
        rset regs rd (Word.shr_a (rget regs rt) (rget regs rs));
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Sll (rd, rt, sh) ->
      fun () ->
        rset regs rd (Word.shl (rget regs rt) sh);
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Srl (rd, rt, sh) ->
      fun () ->
        rset regs rd (Word.shr_l (rget regs rt) sh);
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Sra (rd, rt, sh) ->
      fun () ->
        rset regs rd (Word.shr_a (rget regs rt) sh);
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Addi (rt, rs, imm) ->
      let v = Word.of_signed imm in
      fun () ->
        rset regs rt (Word.add (rget regs rs) v);
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Slti (rt, rs, imm) ->
      let v = Word.of_signed imm in
      fun () ->
        rset regs rt (if Word.lt_s (rget regs rs) v then 1 else 0);
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Sltiu (rt, rs, imm) ->
      let v = Word.of_signed imm in
      fun () ->
        rset regs rt (if Word.lt_u (rget regs rs) v then 1 else 0);
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Andi (rt, rs, imm) ->
      fun () ->
        rset regs rt (Word.logand (rget regs rs) imm);
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Ori (rt, rs, imm) ->
      fun () ->
        rset regs rt (Word.logor (rget regs rs) imm);
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Xori (rt, rs, imm) ->
      fun () ->
        rset regs rt (Word.logxor (rget regs rs) imm);
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Lui (rt, imm) ->
      let v = imm lsl 16 in
      fun () ->
        rset regs rt v;
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Lw (rt, rs, off) ->
      let v = Word.of_signed off in
      if dc then fun () ->
        let addr = Word.add (rget regs rs) v in
        rset regs rt (Memory.load_word mem addr);
        c.loads <- c.loads + 1;
        if nf then Timing.fetch_np tm ~pc;
        Timing.dcache_np tm ~addr;
        next ()
      else fun () ->
        rset regs rt (Memory.load_word mem (Word.add (rget regs rs) v));
        c.loads <- c.loads + 1;
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Lb (rt, rs, off) ->
      let v = Word.of_signed off in
      if dc then fun () ->
        let addr = Word.add (rget regs rs) v in
        rset regs rt (Memory.load_byte_s mem addr);
        c.loads <- c.loads + 1;
        if nf then Timing.fetch_np tm ~pc;
        Timing.dcache_np tm ~addr;
        next ()
      else fun () ->
        rset regs rt (Memory.load_byte_s mem (Word.add (rget regs rs) v));
        c.loads <- c.loads + 1;
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Lbu (rt, rs, off) ->
      let v = Word.of_signed off in
      if dc then fun () ->
        let addr = Word.add (rget regs rs) v in
        rset regs rt (Memory.load_byte_u mem addr);
        c.loads <- c.loads + 1;
        if nf then Timing.fetch_np tm ~pc;
        Timing.dcache_np tm ~addr;
        next ()
      else fun () ->
        rset regs rt (Memory.load_byte_u mem (Word.add (rget regs rs) v));
        c.loads <- c.loads + 1;
        if nf then Timing.fetch_np tm ~pc;
        next ()
  | Inst.Sw (rt, rs, off) ->
      let v = Word.of_signed off in
      if dc then fun () ->
        let addr = Word.add (rget regs rs) v in
        Memory.store_word mem addr (rget regs rt);
        c.stores <- c.stores + 1;
        if nf then Timing.fetch_np tm ~pc;
        Timing.dcache_np tm ~addr;
        if !gen = mygen then next () else cache.abort <- ab
      else fun () ->
        Memory.store_word mem (Word.add (rget regs rs) v) (rget regs rt);
        c.stores <- c.stores + 1;
        if nf then Timing.fetch_np tm ~pc;
        if !gen = mygen then next () else cache.abort <- ab
  | Inst.Sb (rt, rs, off) ->
      let v = Word.of_signed off in
      if dc then fun () ->
        let addr = Word.add (rget regs rs) v in
        Memory.store_byte mem addr (rget regs rt);
        c.stores <- c.stores + 1;
        if nf then Timing.fetch_np tm ~pc;
        Timing.dcache_np tm ~addr;
        if !gen = mygen then next () else cache.abort <- ab
      else fun () ->
        Memory.store_byte mem (Word.add (rget regs rs) v) (rget regs rt);
        c.stores <- c.stores + 1;
        if nf then Timing.fetch_np tm ~pc;
        if !gen = mygen then next () else cache.abort <- ab
  | Inst.Beq _ | Inst.Bne _ | Inst.Blt _ | Inst.Bge _ | Inst.Bltu _
  | Inst.Bgeu _ | Inst.J _ | Inst.Jal _ | Inst.Jr _ | Inst.Jalr _
  | Inst.Syscall | Inst.Trap _ | Inst.Halt | Inst.Illegal _ ->
      assert false (* terminators are compiled separately *)

(* Compile-time-constant base cost of a body instruction under [a];
   penalties (caches, predictors) stay dynamic in the closures. *)
let static_cost (a : Arch.t) = function
  | Inst.Nop | Inst.Add _ | Inst.Sub _ | Inst.And _ | Inst.Or _ | Inst.Xor _
  | Inst.Nor _ | Inst.Slt _ | Inst.Sltu _ | Inst.Sllv _ | Inst.Srlv _
  | Inst.Srav _ | Inst.Sll _ | Inst.Srl _ | Inst.Sra _ | Inst.Addi _
  | Inst.Slti _ | Inst.Sltiu _ | Inst.Andi _ | Inst.Ori _ | Inst.Xori _
  | Inst.Lui _ ->
      a.Arch.alu_cycles
  | Inst.Mul _ -> a.Arch.mul_cycles
  | Inst.Div _ | Inst.Rem _ -> a.Arch.div_cycles
  | Inst.Lw _ | Inst.Lb _ | Inst.Lbu _ | Inst.Sw _ | Inst.Sb _ ->
      a.Arch.mem_cycles
  | Inst.Beq _ | Inst.Bne _ | Inst.Blt _ | Inst.Bge _ | Inst.Bltu _
  | Inst.Bgeu _ | Inst.J _ | Inst.Jal _ | Inst.Jr _ | Inst.Jalr _
  | Inst.Syscall | Inst.Trap _ | Inst.Halt | Inst.Illegal _ ->
      assert false (* terminators are costed separately *)

(* Base cost of a chainable terminator; [T_stop] shapes charge through
   [Machine.exec] and contribute nothing to the batch. *)
let term_static (a : Arch.t) = function
  | Inst.Beq _ | Inst.Bne _ | Inst.Blt _ | Inst.Bge _ | Inst.Bltu _
  | Inst.Bgeu _ | Inst.J _ | Inst.Jal _ | Inst.Jr _ | Inst.Jalr _ ->
      a.Arch.branch_cycles
  | _ -> 0

let noop () = ()

(* Compile the block terminator at [pc]. The closure performs the
   instruction's register/counter effects and its state-dependent
   timing probes (fetch when needed, predictors); the branch base cost
   is batched into the block's [static_cycles]. The target PC(s) are
   resolved at compile time for direct transfers and returned by the
   closure for indirect ones. The machine's dispatch loop assigns
   [t.pc] and follows the link. Order of stateful effects mirrors
   [Machine.exec] exactly. *)
let compile_term cache ~pc ~nf i =
  let regs = cache.regs in
  let c = cache.c in
  let tm = cache.tm in
  let has_ras = (Timing.arch tm).Arch.ras_depth > 0 in
  let has_cond = (Timing.arch tm).Arch.cond_bits > 0 in
  let next = pc + 4 in
  let cond_exec op rs rt =
    if has_cond then fun () ->
      let taken = op (rget regs rs) (rget regs rt) in
      c.cond_branches <- c.cond_branches + 1;
      if nf then Timing.fetch_np tm ~pc;
      Timing.cond_pred_np tm ~pc ~taken;
      taken
    else
      (* predictor-free arch: only the fetch probe can have effect *)
      fun () ->
        let taken = op (rget regs rs) (rget regs rt) in
        c.cond_branches <- c.cond_branches + 1;
        if nf then Timing.fetch_np tm ~pc;
        taken
  in
  let cond op rs rt off =
    T_cond
      {
        c_exec = cond_exec op rs rt;
        c_taken = next + (off * 4);
        c_fall = next;
        c_tlink = None;
        c_flink = None;
      }
  in
  let indirect exec =
    let site = if cache.introspect then Some (isite_for cache pc) else None in
    T_indirect
      {
        i_exec = exec;
        i_pc0 = -1;
        i_l0 = None;
        i_pc1 = -1;
        i_l1 = None;
        i_site = site;
      }
  in
  match i with
  | Inst.Beq (rs, rt, off) -> cond (fun a b -> a = b) rs rt off
  | Inst.Bne (rs, rt, off) -> cond (fun a b -> a <> b) rs rt off
  | Inst.Blt (rs, rt, off) -> cond Word.lt_s rs rt off
  | Inst.Bge (rs, rt, off) -> cond (fun a b -> not (Word.lt_s a b)) rs rt off
  | Inst.Bltu (rs, rt, off) -> cond Word.lt_u rs rt off
  | Inst.Bgeu (rs, rt, off) -> cond (fun a b -> not (Word.lt_u a b)) rs rt off
  | Inst.J target ->
      let abs = (next land 0xF000_0000) lor (target lsl 2) in
      let exec =
        if nf then fun () ->
          c.jumps <- c.jumps + 1;
          Timing.fetch_np tm ~pc
        else
          (* branch base cost batched, no fetch needed: pure count *)
          fun () -> c.jumps <- c.jumps + 1
      in
      T_static { s_exec = exec; s_target = abs; s_link = None }
  | Inst.Jal target ->
      let abs = (next land 0xF000_0000) lor (target lsl 2) in
      let exec =
        if has_ras then fun () ->
          c.calls <- c.calls + 1;
          rset regs Reg.ra next;
          if nf then Timing.fetch_np tm ~pc;
          Timing.ras_push_np tm ~next
        else fun () ->
          c.calls <- c.calls + 1;
          rset regs Reg.ra next;
          if nf then Timing.fetch_np tm ~pc
      in
      T_static { s_exec = exec; s_target = abs; s_link = None }
  | Inst.Jr rs when rs = Reg.ra ->
      indirect (fun () ->
          let target = rget regs rs in
          c.returns <- c.returns + 1;
          if nf then Timing.fetch_np tm ~pc;
          Timing.return_pred_np tm ~pc ~target;
          target)
  | Inst.Jr rs ->
      indirect (fun () ->
          let target = rget regs rs in
          c.ijumps <- c.ijumps + 1;
          if nf then Timing.fetch_np tm ~pc;
          Timing.ipred_np tm ~pc ~target;
          target)
  | Inst.Jalr (rd, rs) ->
      (* read [rs] before writing [rd]: rd = rs is legal *)
      indirect
        (if has_ras then fun () ->
           let target = rget regs rs in
           c.icalls <- c.icalls + 1;
           rset regs rd next;
           if nf then Timing.fetch_np tm ~pc;
           Timing.icall_pred_np tm ~pc ~target ~next;
           target
         else fun () ->
           let target = rget regs rs in
           c.icalls <- c.icalls + 1;
           rset regs rd next;
           if nf then Timing.fetch_np tm ~pc;
           Timing.ipred_np tm ~pc ~target;
           target)
  | Inst.Syscall | Inst.Trap _ | Inst.Halt | Inst.Illegal _ -> T_stop i
  | _ -> assert false (* straight-line shapes never terminate a block *)

(* Compile the instructions starting at [start] into (ops, term, gen,
   n_instrs). The generation is read after decoding: decoding goes
   through {!Memory.fetch}, which never stores, so the captured value
   is the one every word of the block was decoded under — and going
   through [fetch] is also what gives each word a live decode-cache
   entry, making a later store into any of them bump the generation. *)
let compile cache start =
  let n = decode_instrs cache start in
  let instrs = cache.decode_buf in
  let mygen = !(cache.gen) in
  let last = instrs.(n - 1) in
  let has_term = ends_block last in
  let nbody = if has_term then n - 1 else n in
  let tm = cache.tm in
  let a = Timing.arch tm in
  let need_fetch k =
    a.Arch.icache <> None
    &&
    (k = 0
    ||
    let pc = start + (4 * k) in
    not (Timing.same_line tm pc (pc - 4)))
  in
  (* thread the body back-to-front: op [k] captures the compiled chain
     of ops [k+1 ..] and tail-calls it, so the whole body is one entry
     call; [noop] terminates the chain *)
  let rec build k next =
    if k < 0 then next
    else
      build (k - 1)
        (compile_op cache ~pc:(start + (4 * k)) ~nf:(need_fetch k) ~mygen
           ~ab:(k + 1) ~next (Array.unsafe_get instrs k))
  in
  let body = build (nbody - 1) noop in
  let term =
    if has_term then
      compile_term cache ~pc:(start + (4 * (n - 1))) ~nf:(need_fetch (n - 1)) last
    else
      (* block cut at [max_len] or end of memory: synthetic fall-through
         to the next PC, chained like a direct jump but with no
         instruction effects of its own *)
      T_static { s_exec = noop; s_target = start + (4 * n); s_link = None }
  in
  let prefix = Array.make (nbody + 1) 0 in
  for k = 0 to nbody - 1 do
    prefix.(k + 1) <- prefix.(k) + static_cost a instrs.(k)
  done;
  let static = prefix.(nbody) + if has_term then term_static a last else 0 in
  (body, term, mygen, n, static, prefix)

let fresh cache start =
  cache.decodes <- cache.decodes + 1;
  let body, term, gen, n, static_cycles, cyc_prefix = compile cache start in
  let rec b =
    {
      start;
      self = Some b;
      gen;
      n_instrs = n;
      body;
      term;
      static_cycles;
      cyc_prefix;
    }
  in
  b

(* Recompile a stale block in place. The record identity survives so
   that links held by predecessors come back to life once the new
   compilation's generation matches again — but [term] is replaced, so
   the stale block's own outgoing links are dropped with it. *)
let refresh cache b =
  cache.invalidations <- cache.invalidations + 1;
  cache.decodes <- cache.decodes + 1;
  let body, term, gen, n, static_cycles, cyc_prefix = compile cache b.start in
  b.body <- body;
  b.term <- term;
  b.gen <- gen;
  b.n_instrs <- n;
  b.static_cycles <- static_cycles;
  b.cyc_prefix <- cyc_prefix

let find cache pc =
  let slot = (pc lsr 2) land slot_mask in
  match Array.unsafe_get cache.tbl slot with
  | Some b when b.start = pc ->
      if b.gen <> !(cache.gen) then refresh cache b;
      b
  | _ ->
      let b = fresh cache pc in
      Array.unsafe_set cache.tbl slot b.self;
      b

(* ------------------------------------------------------------------ *)
(* Chain following. A link is valid iff the linked block's generation
   equals the current one — exactly the check [find] would make after
   its start compare, so following a link is observably identical to
   re-probing the cache (and cheaper by the probe). With chaining
   disabled the links are never installed and every transition takes
   the [find] path, which is the [`Block_nochain] differential mode.
   The [_stale] arms see empty links only: a block runs only while its
   compilation is current, and [refresh] drops a recompiled block's
   outgoing links, so every link a running block holds was installed,
   to a then-current block, under the current generation. The
   generation test stays because it is what makes the two paths
   identical. *)

let follow_static cache (s : static_link) =
  match s.s_link with
  | Some b when b.gen = !(cache.gen) ->
      cache.chain_hits <- cache.chain_hits + 1;
      b
  | _stale ->
      let b = find cache s.s_target in
      if cache.chain then s.s_link <- b.self;
      b

let follow_cond cache (cd : cond_link) taken =
  if taken then
    match cd.c_tlink with
    | Some b when b.gen = !(cache.gen) ->
        cache.chain_hits <- cache.chain_hits + 1;
        b
    | _stale ->
        let b = find cache cd.c_taken in
        if cache.chain then cd.c_tlink <- b.self;
        b
  else
    match cd.c_flink with
    | Some b when b.gen = !(cache.gen) ->
        cache.chain_hits <- cache.chain_hits + 1;
        b
    | _stale ->
        let b = find cache cd.c_fall in
        if cache.chain then cd.c_flink <- b.self;
        b

(* May an indirect edge to [target] be cached? A CFI link guard refuses
   targets that enter a fragment past its landing pad; valid already-hit
   links are not re-asked (the target was admitted when cached). *)
let[@inline] cacheable cache target =
  cache.chain
  && match cache.cfi_guard with None -> true | Some g -> g target

(* 2-entry inline cache with MRU promotion, the host-side shape of an
   IBTC entry: slot 0 is the most recent target, slot 1 the runner-up,
   a miss demotes 0 into 1. *)
let follow_indirect cache (ind : ind_link) target =
  (match ind.i_site with
  | None -> ()
  | Some s ->
      if ind.i_pc0 = target || ind.i_pc1 = target then
        s.is_hits <- s.is_hits + 1
      else s.is_misses <- s.is_misses + 1;
      Hashtbl.replace s.is_targets target
        (1 + Option.value ~default:0 (Hashtbl.find_opt s.is_targets target)));
  if ind.i_pc0 = target then
    match ind.i_l0 with
    | Some b when b.gen = !(cache.gen) ->
        cache.chain_hits <- cache.chain_hits + 1;
        b
    | _stale ->
        let b = find cache target in
        if cacheable cache target then ind.i_l0 <- b.self;
        b
  else if ind.i_pc1 = target then
    match ind.i_l1 with
    | Some b as l1 when b.gen = !(cache.gen) ->
        cache.chain_hits <- cache.chain_hits + 1;
        ind.i_pc1 <- ind.i_pc0;
        ind.i_l1 <- ind.i_l0;
        ind.i_pc0 <- target;
        ind.i_l0 <- l1;
        b
    | _stale ->
        let b = find cache target in
        if cacheable cache target then begin
          ind.i_pc1 <- ind.i_pc0;
          ind.i_l1 <- ind.i_l0;
          ind.i_pc0 <- target;
          ind.i_l0 <- b.self
        end;
        b
  else begin
    let b = find cache target in
    if cacheable cache target then begin
      ind.i_pc1 <- ind.i_pc0;
      ind.i_l1 <- ind.i_l0;
      ind.i_pc0 <- target;
      ind.i_l0 <- b.self
    end;
    b
  end
