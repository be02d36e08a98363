type event =
  | Alu
  | Mul_op
  | Div_op
  | Load of int
  | Store of int
  | Cond of { pc : int; taken : bool }
  | Jump
  | Call of { next : int }
  | Icall of { pc : int; target : int; next : int }
  | Ijump of { pc : int; target : int }
  | Return of { pc : int; target : int }
  | Syscall_op
  | Trap_op
  | Halt_op

type t = {
  arch : Arch.t;
  icache : Cache.t option;
  dcache : Cache.t option;
  cond : Branch_pred.Cond.t option;
  btb : Branch_pred.Btb.t;
  ras : Branch_pred.Ras.t option;
  mutable cycles : int;
  mutable runtime_cycles : int;
  (* line number of the most recent icache access, -1 if none: a fetch
     from the same line is a guaranteed hit whose LRU update is
     idempotent (the way is already MRU in its set and the clock only
     orders accesses within a set), so it can skip the set-associative
     probe entirely without changing miss counts or charged cycles *)
  mutable iline : int;
  (* observability taps: read-only witnesses of charging; they never
     charge cycles themselves, so an installed probe cannot change the
     simulated cycle count *)
  mutable probe : (pc:int -> event -> cycles:int -> unit) option;
  mutable runtime_probe : (int -> unit) option;
}

let create (arch : Arch.t) =
  {
    arch;
    icache = Option.map Cache.create arch.icache;
    dcache = Option.map Cache.create arch.dcache;
    cond =
      (if arch.cond_bits > 0 then Some (Branch_pred.Cond.create ~bits:arch.cond_bits)
       else None);
    btb = Branch_pred.Btb.create ~entries:arch.btb_entries;
    ras =
      (if arch.ras_depth > 0 then Some (Branch_pred.Ras.create ~depth:arch.ras_depth)
       else None);
    cycles = 0;
    runtime_cycles = 0;
    iline = -1;
    probe = None;
    runtime_probe = None;
  }

let arch t = t.arch

let charge t n = t.cycles <- t.cycles + n

(* ------------------------------------------------------------------ *)
(* Stateful charge kernels.

   Each event's charge is its compile-time-constant base cost (an
   [Arch.t] field) plus, for some events, a state-dependent probe of a
   cache or predictor. The kernels below are those probes, written once:
   [instr_charge] and the per-shape entry points compose fetch + base
   cost + kernel, and the block compiler ({!Block}) calls the kernels
   directly after hoisting every base cost of a block into one batched
   [charge] at block entry. Cycle totals are order-independent sums, so
   hoisting pure constant charges is bit-exact as long as the stateful
   probes still run in program order — which they do, from inside the
   compiled closures. *)

let fetch_penalty t pc =
  match t.icache with
  | None -> ()
  | Some c ->
      let line = Cache.line_index c pc in
      if line <> t.iline then begin
        t.iline <- line;
        if not (Cache.access c pc) then
          charge t (Cache.config c).miss_penalty
      end

let dcache_access t addr =
  match t.dcache with
  | None -> ()
  | Some c -> if not (Cache.access c addr) then charge t (Cache.config c).miss_penalty

let indirect t ~pc ~target =
  if Branch_pred.Btb.enabled t.btb then begin
    if not (Branch_pred.Btb.predict_and_update t.btb ~pc ~target) then
      charge t t.arch.indirect_mispredict
  end
  else begin
    (* no predictor: every indirect transfer pays the fixed dispatch
       cost; count it as a "mispredict" so reports show the pressure *)
    ignore (Branch_pred.Btb.predict_and_update t.btb ~pc ~target);
    charge t t.arch.indirect_fixed
  end

let ras_push t next =
  match t.ras with None -> () | Some r -> Branch_pred.Ras.push r next

let[@inline] fetch_np t ~pc = fetch_penalty t pc
let[@inline] dcache_np t ~addr = dcache_access t addr

let[@inline] cond_pred_np t ~pc ~taken =
  match t.cond with
  | None -> ()
  | Some p ->
      if not (Branch_pred.Cond.predict_and_update p ~pc ~taken) then
        charge t t.arch.cond_mispredict

let[@inline] ras_push_np t ~next = ras_push t next
let[@inline] ipred_np t ~pc ~target = indirect t ~pc ~target

let[@inline] icall_pred_np t ~pc ~target ~next =
  indirect t ~pc ~target;
  ras_push t next

let[@inline] return_pred_np t ~pc ~target =
  match t.ras with
  | None -> indirect t ~pc ~target
  | Some r ->
      if not (Branch_pred.Ras.pop_predict r ~target) then
        charge t t.arch.ras_mispredict

let instr_charge t ~pc ev =
  fetch_np t ~pc;
  let a = t.arch in
  match ev with
  | Alu | Halt_op -> charge t a.alu_cycles
  | Mul_op -> charge t a.mul_cycles
  | Div_op -> charge t a.div_cycles
  | Load addr | Store addr ->
      charge t a.mem_cycles;
      dcache_np t ~addr
  | Cond { pc; taken } ->
      charge t a.branch_cycles;
      cond_pred_np t ~pc ~taken
  | Jump | Trap_op -> charge t a.branch_cycles
  | Call { next } ->
      charge t a.branch_cycles;
      ras_push_np t ~next
  | Icall { pc; target; next } ->
      charge t a.branch_cycles;
      icall_pred_np t ~pc ~target ~next
  | Ijump { pc; target } ->
      charge t a.branch_cycles;
      ipred_np t ~pc ~target
  | Return { pc; target } ->
      charge t a.branch_cycles;
      return_pred_np t ~pc ~target
  | Syscall_op -> charge t a.syscall_cycles

let instr t ~pc ev =
  match t.probe with
  | None -> instr_charge t ~pc ev
  | Some f ->
      let before = t.cycles in
      instr_charge t ~pc ev;
      f ~pc ev ~cycles:(t.cycles - before)

let same_line t a b =
  match t.icache with
  | None -> true (* fetch_penalty is a no-op without an icache *)
  | Some c -> Cache.line_index c a = Cache.line_index c b

(* ------------------------------------------------------------------ *)
(* Zero-allocation fast paths.

   The interpreter executes billions of steps per benchmark grid, and
   the carrier events for loads, stores, branches and indirect
   transfers are boxed. These entry points charge exactly what
   [instr t ~pc ev] would for the corresponding event but take the
   fields as plain arguments, so the no-probe hot path allocates
   nothing. With a probe installed they fall back to the generic path
   (building the event once) so attribution still sees real events —
   the charged cycles are identical either way. *)

let alu t ~pc =
  match t.probe with
  | Some _ -> instr t ~pc Alu
  | None ->
      fetch_np t ~pc;
      charge t t.arch.alu_cycles

let mul t ~pc =
  match t.probe with
  | Some _ -> instr t ~pc Mul_op
  | None ->
      fetch_np t ~pc;
      charge t t.arch.mul_cycles

let div t ~pc =
  match t.probe with
  | Some _ -> instr t ~pc Div_op
  | None ->
      fetch_np t ~pc;
      charge t t.arch.div_cycles

let load t ~pc ~addr =
  match t.probe with
  | Some _ -> instr t ~pc (Load addr)
  | None ->
      fetch_np t ~pc;
      charge t t.arch.mem_cycles;
      dcache_np t ~addr

let store t ~pc ~addr =
  match t.probe with
  | Some _ -> instr t ~pc (Store addr)
  | None ->
      fetch_np t ~pc;
      charge t t.arch.mem_cycles;
      dcache_np t ~addr

let cond t ~pc ~taken =
  match t.probe with
  | Some _ -> instr t ~pc (Cond { pc; taken })
  | None ->
      fetch_np t ~pc;
      charge t t.arch.branch_cycles;
      cond_pred_np t ~pc ~taken

let jump t ~pc =
  match t.probe with
  | Some _ -> instr t ~pc Jump
  | None ->
      fetch_np t ~pc;
      charge t t.arch.branch_cycles

let call t ~pc ~next =
  match t.probe with
  | Some _ -> instr t ~pc (Call { next })
  | None ->
      fetch_np t ~pc;
      charge t t.arch.branch_cycles;
      ras_push_np t ~next

let icall t ~pc ~target ~next =
  match t.probe with
  | Some _ -> instr t ~pc (Icall { pc; target; next })
  | None ->
      fetch_np t ~pc;
      charge t t.arch.branch_cycles;
      icall_pred_np t ~pc ~target ~next

let ijump t ~pc ~target =
  match t.probe with
  | Some _ -> instr t ~pc (Ijump { pc; target })
  | None ->
      fetch_np t ~pc;
      charge t t.arch.branch_cycles;
      ipred_np t ~pc ~target

let return t ~pc ~target =
  match t.probe with
  | Some _ -> instr t ~pc (Return { pc; target })
  | None ->
      fetch_np t ~pc;
      charge t t.arch.branch_cycles;
      return_pred_np t ~pc ~target

let syscall_op t ~pc =
  match t.probe with
  | Some _ -> instr t ~pc Syscall_op
  | None ->
      fetch_np t ~pc;
      charge t t.arch.syscall_cycles

let trap_op t ~pc =
  match t.probe with
  | Some _ -> instr t ~pc Trap_op
  | None ->
      fetch_np t ~pc;
      charge t t.arch.branch_cycles

let halt_op t ~pc =
  match t.probe with
  | Some _ -> instr t ~pc Halt_op
  | None ->
      fetch_np t ~pc;
      charge t t.arch.alu_cycles

let set_probe t f = t.probe <- f
let has_probe t = t.probe <> None
let set_runtime_probe t f = t.runtime_probe <- f

let add_runtime t n =
  t.cycles <- t.cycles + n;
  t.runtime_cycles <- t.runtime_cycles + n;
  match t.runtime_probe with None -> () | Some f -> f n

let cycles t = t.cycles
let runtime_cycles t = t.runtime_cycles

let icache_misses t = match t.icache with None -> 0 | Some c -> Cache.misses c
let dcache_misses t = match t.dcache with None -> 0 | Some c -> Cache.misses c

let cond_mispredicts t =
  match t.cond with None -> 0 | Some p -> Branch_pred.Cond.mispredicts p

let indirect_mispredicts t = Branch_pred.Btb.mispredicts t.btb

let ras_mispredicts t =
  match t.ras with None -> 0 | Some r -> Branch_pred.Ras.mispredicts r

let reset t =
  Option.iter Cache.reset t.icache;
  Option.iter Cache.reset t.dcache;
  Option.iter Branch_pred.Cond.reset t.cond;
  Branch_pred.Btb.reset t.btb;
  Option.iter Branch_pred.Ras.reset t.ras;
  t.cycles <- 0;
  t.runtime_cycles <- 0;
  t.iline <- -1
