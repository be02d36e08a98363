(** Shared translator state.

    [Env.t] is the record every code-generation module works against:
    the machine being translated, the emitter into its fragment cache,
    the memory layout, configuration, statistics, and the trap table
    that maps emitted [Trap] sites to runtime handlers.

    The mutable function fields are wired up by {!Runtime} after the
    shared routines exist; they break what would otherwise be a
    dependency cycle between the translator and the IB mechanisms
    (translation emits IB handling code; IB miss handlers translate). *)

module Inst = Sdt_isa.Inst
module Reg = Sdt_isa.Reg
module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Machine = Sdt_machine.Machine

type tail = Tail_jr | Tail_jalr_ra
(** How an IB handling sequence finally transfers to the looked-up
    fragment address (held in [$k1]): a plain [jr $k1], or
    [jalr $ra, $k1] so the hardware return-address stack is pushed
    (used by the fast-return policy at indirect call sites). *)

type ib_kind = Ib_jump | Ib_call | Ib_return
(** What kind of indirect transfer an IB site performs — the policy
    stage of the IB pipeline keys per-site emission on it (return sites
    are policed by the return plan, not the jump monitor). *)

type handler = Machine.t -> trap_pc:int -> unit

type service = {
  mutable sv_flush_pending : bool;
      (** set by the serving layer when a shared-store eviction
          invalidated this tenant; {!Runtime} applies the flush at the
          next translation-lookup boundary (the only point where every
          cached code address is re-derivable) and clears the flag via
          [sv_flushed]. *)
  sv_charge : app_pc:int -> insts:int -> bytes:int -> int;
      (** translation-cost policy: given a freshly translated block
          (application PC, decoded instruction count, emitted bytes),
          return the runtime cycles to charge. The serving layer uses
          this to key fragments by content and substitute a copy cost
          when an identical fragment already exists in the shared
          store; without a service the charge is
          [insts * arch.translate_per_inst]. *)
  sv_flushed : unit -> unit;
      (** notification that this tenant's fragment cache was flushed
          (any cause: service mark, capacity overflow); the serving
          layer drops the tenant's share links and pending
          publications. *)
}
(** Hooks a multi-tenant serving layer installs on a tenant's
    environment. [None] (the default) must cost nothing beyond one
    match per translation. *)

type t = {
  cfg : Config.t;
  arch : Arch.t;
  machine : Machine.t;
  em : Emitter.t;
  layout : Layout.t;
  stats : Stats.t;
  frags : (int, int) Hashtbl.t;  (** application PC -> fragment address *)
  traps : (int, handler) Hashtbl.t;  (** trap site -> runtime handler *)
  spill : bool;  (** resolved spill decision for this (config, arch) *)
  mutable ensure_translated : int -> int;
      (** translate-on-demand: application PC to fragment address,
          charging translation costs; set by {!Runtime} *)
  mutable translator_entry : int;
      (** the full-context-switch dispatch routine: enter with the
          application target in [$k0]; also the landing pad of unlinked
          direct-branch stubs when direct linking is disabled *)
  mutable mech_routine : int;
      (** shared IB-mechanism routine: enter with the application target
          in [$k0]; ends with [jr $k1]; used as the fallback of the
          return mechanisms and of exhausted prediction sites *)
  mutable emit_ib : t -> site_pc:int -> tail:tail -> unit;
      (** emit the configured mechanism's IB handling at the current
          emission point, assuming [$k0] already holds the target.
          [site_pc] is the application PC of the IB instruction; static
          mechanisms (other than per-branch IBTC) ignore it, the
          adaptive mechanism keys its per-site state on it *)
  mutable generation : int;
      (** incremented on every fragment-cache flush. Trap handlers that
          cached code addresses (resume points, patch sites) compare the
          generation they captured at emission time against the current
          one: a mismatch means the site no longer exists, and the
          handler must transfer straight to the freshly translated
          fragment instead. *)
  mutable flush : unit -> unit;
      (** flush the fragment cache (set by {!Runtime}); raises on
          configurations that forbid it (fast returns). *)
  mutable ib_site_counters : (int * int) list;
      (** (application PC of the IB, counter address) for every site
          instrumented under {!Config.t.profile_ib_sites}; cleared on
          flush (sites are retranslated) *)
  mutable obs : Sdt_observe.Observer.t option;
      (** the attached observability layer, if any; set by {!Runtime}
          before any code is emitted. [None] (the default) must cost
          nothing beyond one test per hook. *)
  mutable service : service option;
      (** the attached serving layer, if any (set by [Sdt_serve]
          between [Runtime.create] and the first run). *)
  mutable cfi : cfi_hooks option;
      (** the active CFI policy stage, if any (installed by {!Runtime}
          before any code is emitted). [None] (policy off) must cost
          nothing beyond one match per hook, and must leave emitted
          fragments bit-identical to a build without the hooks. *)
}

and cfi_hooks = {
  cf_policy : Config.cfi_policy;
  cf_pad_words : int;
      (** words of landing pad prepended to every fragment (0 when the
          policy emits no pads); direct entries skip them *)
  cf_emit_pad : t -> app_pc:int -> unit;
      (** emit the fragment's landing pad at the current emission point
          (called by [Translate.block] before the body) *)
  cf_emit_site : t -> site_pc:int -> kind:ib_kind -> unit;
      (** policy site stage, emitted between the profiling stage and the
          mechanism stage of every IB site (compartment policies record
          the transferring site here) *)
  cf_validate : t -> target:int -> unit;
      (** host-side membership validation, called by every IB
          mechanism's miss-path trap handler before it caches, patches
          or stubs a new target — the one shared interface through which
          IC, IBTC, sieve, dispatch, adaptive and retcache all emit
          their check *)
  cf_ret_violation : t -> site_pc:int -> unit;
      (** count an unmatched-return audit event (shadow-stack audit
          mode) against [site_pc] *)
}
(** The policy stage of the staged IB-translation pipeline. The
    closures are installed by {!Runtime} from [Cfi.install]; they close
    over the policy state so the core emission modules depend only on
    this record. *)

(** Trap codes, for diagnostics only (dispatch is by site address). *)

val trap_link : int
val trap_dispatch : int
val trap_ibtc_full : int
val trap_ibtc_fast : int
val trap_sieve : int
val trap_pred : int
val trap_link_call : int
val trap_adapt : int
val trap_cfi : int

val create :
  cfg:Config.t ->
  arch:Arch.t ->
  machine:Machine.t ->
  em:Emitter.t ->
  layout:Layout.t ->
  t
(** @raise Invalid_argument if the configuration fails
    {!Config.validate}. *)

val charge : t -> int -> unit
(** Charge runtime-service cycles to the machine's timing model. *)

(** {1 CFI policy hooks}

    All are single-[match] no-ops when no policy is installed. *)

val pad_words : t -> int
(** Landing-pad length (words) prepended to every fragment; 0 when no
    policy (or a pad-free policy) is active. *)

val body_entry : t -> int -> int
(** [body_entry t frag] is where a {e direct} (statically verified)
    entry into fragment [frag] lands: past the landing pad. Indirect
    deliveries always enter at [frag] itself so the pad can verify the
    claimed target in [$k0]. *)

val cfi_emit_pad : t -> app_pc:int -> unit
val cfi_emit_site : t -> site_pc:int -> kind:ib_kind -> unit
val cfi_validate : t -> target:int -> unit
val cfi_ret_violation : t -> site_pc:int -> unit

(** {1 Observability hooks}

    All are single-[match] no-ops when no observer is attached, and are
    host-side only when one is: they never charge simulated cycles,
    emit code, or write simulated memory, so observed and unobserved
    runs are cycle-identical. *)

val observe : t -> Sdt_observe.Event.kind -> unit
(** Record a runtime event. *)

val observe_region : t -> lo:int -> hi:int -> Sdt_observe.Profile.region_kind -> unit
(** Register an emitted code range for cycle attribution. *)

val observe_entry : t -> pc:int -> Sdt_observe.Event.kind -> unit
(** Synthesize an event whenever execution reaches [pc] (for emitted
    fallback paths that never trap). *)

val observing_emit : t -> string -> (unit -> unit) -> unit
(** [observing_emit t name emit] runs [emit ()] and registers the range
    it emitted as a service sub-region called [name]. *)

val emit_trap : t -> code:int -> handler -> unit
(** Emit a [Trap code] at the current point and register its handler. *)

val register_trap_at : t -> int -> handler -> unit
(** Re-register a handler for an existing trap site (used when a patched
    site changes behaviour). *)

val frag_of : t -> int -> int option
(** Fragment address for an application PC, if already translated. *)

val emit_spill_prologue : t -> unit
(** When spilling is on, emit the scratch-register save sequence an IB
    handling sequence must start with (models x86 register scarcity). *)

val emit_spill_epilogue : t -> unit
(** The matching reload sequence, emitted before the final transfer. *)

val spill_prologue_len : t -> int
(** Number of instructions {!emit_spill_prologue} produces (0 or 4). *)

val emit_goto_routine : t -> tail:tail -> int -> unit
(** Transfer to a shared routine that ends in [jr $k1]. With
    [Tail_jr] this is a plain [j]; with [Tail_jalr_ra] it is
    [li32 $k1, addr; jalr $ra, $k1] so that [$ra] carries the site's
    continuation and the return-address stack is pushed. *)

val emit_transfer : t -> tail:tail -> unit
(** The final transfer of an inline sequence: [jr $k1] or
    [jalr $ra, $k1]. *)
