module Inst = Sdt_isa.Inst
module Reg = Sdt_isa.Reg
module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Machine = Sdt_machine.Machine

type tail = Tail_jr | Tail_jalr_ra
type ib_kind = Ib_jump | Ib_call | Ib_return
type handler = Machine.t -> trap_pc:int -> unit

type service = {
  mutable sv_flush_pending : bool;
  sv_charge : app_pc:int -> insts:int -> bytes:int -> int;
  sv_flushed : unit -> unit;
}

type t = {
  cfg : Config.t;
  arch : Arch.t;
  machine : Machine.t;
  em : Emitter.t;
  layout : Layout.t;
  stats : Stats.t;
  frags : (int, int) Hashtbl.t;
  traps : (int, handler) Hashtbl.t;
  spill : bool;
  mutable ensure_translated : int -> int;
  mutable translator_entry : int;
  mutable mech_routine : int;
  mutable emit_ib : t -> site_pc:int -> tail:tail -> unit;
  mutable generation : int;
  mutable flush : unit -> unit;
  mutable ib_site_counters : (int * int) list;
  mutable obs : Sdt_observe.Observer.t option;
  mutable service : service option;
  mutable cfi : cfi_hooks option;
}

and cfi_hooks = {
  cf_policy : Config.cfi_policy;
  cf_pad_words : int;
  cf_emit_pad : t -> app_pc:int -> unit;
  cf_emit_site : t -> site_pc:int -> kind:ib_kind -> unit;
  cf_validate : t -> target:int -> unit;
  cf_ret_violation : t -> site_pc:int -> unit;
}

let trap_link = 1
let trap_dispatch = 2
let trap_ibtc_full = 3
let trap_ibtc_fast = 4
let trap_sieve = 5
let trap_pred = 6
let trap_link_call = 7
let trap_adapt = 8
let trap_cfi = 9

let create ~cfg ~arch ~machine ~em ~layout =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Env.create: " ^ msg));
  let spill =
    match cfg.Config.spill with
    | Config.Spill_always -> true
    | Config.Spill_never -> false
    | Config.Spill_auto -> not arch.Arch.reserved_regs_free
  in
  {
    cfg;
    arch;
    machine;
    em;
    layout;
    stats = Stats.create ();
    frags = Hashtbl.create 1024;
    traps = Hashtbl.create 256;
    spill;
    ensure_translated = (fun _ -> failwith "Env: runtime not wired");
    translator_entry = 0;
    mech_routine = 0;
    emit_ib = (fun _ ~site_pc:_ ~tail:_ -> failwith "Env: runtime not wired");
    generation = 0;
    flush = (fun () -> failwith "Env: runtime not wired");
    ib_site_counters = [];
    obs = None;
    service = None;
    cfi = None;
  }

(* CFI policy hooks: single [None] test when no policy is active, so a
   policy-off translation emits and charges exactly what it always did. *)

let pad_words t = match t.cfi with None -> 0 | Some h -> h.cf_pad_words

(* where a direct (already-verified) entry lands: past the landing pad *)
let body_entry t frag = frag + (4 * pad_words t)

let cfi_emit_pad t ~app_pc =
  match t.cfi with None -> () | Some h -> h.cf_emit_pad t ~app_pc

let cfi_emit_site t ~site_pc ~kind =
  match t.cfi with None -> () | Some h -> h.cf_emit_site t ~site_pc ~kind

let cfi_validate t ~target =
  match t.cfi with None -> () | Some h -> h.cf_validate t ~target

let cfi_ret_violation t ~site_pc =
  match t.cfi with None -> () | Some h -> h.cf_ret_violation t ~site_pc

let charge t n = Timing.add_runtime t.machine.Machine.timing n

(* Observability hooks: single [None] test when no observer is attached.
   Observation is host-side only — none of these charge cycles, emit
   code, or touch simulated memory. *)

let observe t kind =
  match t.obs with
  | None -> ()
  | Some o -> Sdt_observe.Observer.event o kind

let observe_region t ~lo ~hi kind =
  match t.obs with
  | None -> ()
  | Some o -> Sdt_observe.Observer.region o ~lo ~hi kind

let observe_entry t ~pc kind =
  match t.obs with
  | None -> ()
  | Some o -> Sdt_observe.Observer.entry_trigger o ~pc kind

(* register [emit body] as a service sub-region named [name] *)
let observing_emit t name emit =
  match t.obs with
  | None -> emit ()
  | Some o ->
      let lo = Emitter.here t.em in
      emit ();
      Sdt_observe.Observer.region o ~lo ~hi:(Emitter.here t.em)
        (Sdt_observe.Profile.Service name)

let register_trap_at t addr h = Hashtbl.replace t.traps addr h

let emit_trap t ~code h =
  let at = Emitter.here t.em in
  Emitter.emit t.em (Inst.Trap code);
  register_trap_at t at h

let frag_of t app_pc = Hashtbl.find_opt t.frags app_pc

(* Spill modelling: on architectures without translator-reserved
   registers (x86-like), every inline IB sequence brackets its use of
   $at/$k0/$k1 with stores to and loads from the spill slots. The
   registers hold no live application values in this ISA (they are
   reserved), so the sequence is semantically inert — it exists to
   charge the instruction and data-cache costs Strata pays on x86. *)

let emit_spill_prologue t =
  if t.spill then begin
    Emitter.li32 t.em Reg.k1 t.layout.Layout.spill_base;
    Emitter.emit t.em (Inst.Sw (Reg.at, Reg.k1, 0));
    Emitter.emit t.em (Inst.Sw (Reg.k0, Reg.k1, 4))
  end

let emit_spill_epilogue t =
  if t.spill then begin
    Emitter.li32 t.em Reg.at t.layout.Layout.spill_base;
    Emitter.emit t.em (Inst.Lw (Reg.k0, Reg.at, 4));
    Emitter.emit t.em (Inst.Lw (Reg.at, Reg.at, 0))
  end

let spill_prologue_len t = if t.spill then 4 else 0

let emit_transfer t ~tail =
  match tail with
  | Tail_jr -> Emitter.emit t.em (Inst.Jr Reg.k1)
  | Tail_jalr_ra -> Emitter.emit t.em (Inst.Jalr (Reg.ra, Reg.k1))

let emit_goto_routine t ~tail addr =
  match tail with
  | Tail_jr -> Emitter.jump_abs t.em `J addr
  | Tail_jalr_ra ->
      Emitter.li32 t.em Reg.k1 addr;
      Emitter.emit t.em (Inst.Jalr (Reg.ra, Reg.k1))
