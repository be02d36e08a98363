(** Closure-compiled basic blocks with direct block chaining.

    A block is the straight-line run of instructions starting at a PC,
    {e compiled} once into a threaded chain of pre-specialized
    closures — register indices, immediates, per-shape timing charges,
    and provably redundant instruction-fetch probes all resolved at
    compile time, each closure tail-calling its compiled successor —
    and cached by start address. The machine re-executes it with no
    per-instruction decode, match dispatch, status check, or loop
    bookkeeping ({!Machine.run_blocks}). Blocks end at any control
    transfer, syscall, trap, halt, or illegal word.

    Each terminator carries {e chain links}: cached successor blocks
    (one for a direct jump/call or fall-through, a taken/fall-through
    pair for conditional branches, a 2-entry MRU inline cache for
    indirect transfers), so hot transitions go block-to-block on a
    single generation compare instead of re-probing the cache — the
    host-side mirror of the fragment linking the paper's SDT performs
    in simulated memory.

    Correctness under self-modifying code: Memory bumps
    {!Memory.code_gen} whenever a store lands in a word covered by a
    live decoding (the SDT emits fragments into simulated memory and
    the linker patches already-executed words), and both {!find} and
    every link-follow validate a block's recorded generation before
    running it — a stale generation recompiles (in {!find}) or severs
    the link and falls back to {!find}. Mid-block stores into covered
    code are caught by the store closures themselves, which record the
    abort point ({!aborted_ops}) and drop the rest of the chain so the
    executor aborts the block. *)

module Inst = Sdt_isa.Inst

type t = {
  start : int;  (** immutable: links may outlive table residency *)
  self : t option;
      (** [Some] of this block, boxed once when it is created. Every
          chain link and table slot pointing here reuses it, so
          installing or MRU-promoting a link allocates nothing. *)
  mutable gen : int;  (** {!Memory.code_gen} the compilation is valid for *)
  mutable n_instrs : int;
      (** instructions the full block executes (body + real terminator) *)
  mutable body : unit -> unit;
      (** every instruction but the terminator, compiled as a threaded
          chain: one call runs the whole body, each closure tail-calls
          the next. If a store invalidated live decoded code the chain
          stops early and {!aborted_ops} reports where. *)
  mutable term : term;
  mutable static_cycles : int;
      (** sum of every compile-time-constant base cost in the block
          (ALU/mul/div/mem/branch cycles, body and terminator): the
          executor charges it with one [Timing.charge] at block entry —
          cycle totals are order-independent sums, so the batching is
          bit-exact. [T_stop] terminators contribute nothing (they
          charge through [Machine.exec]). *)
  mutable cyc_prefix : int array;
      (** [cyc_prefix.(k)] = static cycles of the first [k] body ops: a
          mid-block store abort that executed [k] ops backs out the
          over-charge [static_cycles - cyc_prefix.(k)] *)
}

and term =
  | T_static of static_link
      (** [j]/[jal] (or the synthetic fall-through of a block cut at the
          length limit): one compile-time target *)
  | T_cond of cond_link  (** conditional branch *)
  | T_indirect of ind_link  (** [jr]/[jalr]: target known only at run time *)
  | T_stop of Inst.t
      (** syscall, trap, halt, illegal — executed by the machine, which
          owns status, output, and the trap handler *)

and static_link = {
  s_exec : unit -> unit;  (** the terminator's effects (counters, timing) *)
  s_target : int;
  mutable s_link : t option;
}

and cond_link = {
  c_exec : unit -> bool;  (** effects; returns whether the branch is taken *)
  c_taken : int;
  c_fall : int;
  mutable c_tlink : t option;
  mutable c_flink : t option;
}

and ind_link = {
  i_exec : unit -> int;  (** effects; returns the target PC *)
  mutable i_pc0 : int;  (** MRU target PC, [-1] if empty *)
  mutable i_l0 : t option;
  mutable i_pc1 : int;
  mutable i_l1 : t option;
  i_site : isite option;
      (** per-IB-site counters; populated only under [~introspect:true] *)
}

and isite = {
  is_pc : int;  (** the indirect terminator's PC *)
  mutable is_hits : int;
      (** transitions whose target was in the 2-entry inline cache *)
  mutable is_misses : int;
  is_targets : (int, int) Hashtbl.t;  (** target PC -> times taken *)
}

type cache

val slots : int
(** Number of direct-mapped cache slots; start PCs [4 * slots] bytes
    apart collide into the same slot. *)

val create :
  regs:int array ->
  counters:Counters.t ->
  timing:Sdt_march.Timing.t ->
  ?chain:bool ->
  ?introspect:bool ->
  ?cfi_guard:(int -> bool) ->
  Memory.t ->
  cache
(** A block cache compiling against the given machine state. The
    register file, counters, and timing model are captured inside the
    compiled closures, so a cache serves exactly one machine; the
    closures call only the probes [timing]'s arch has (none at all on
    [Arch.ideal]). [chain]
    (default [true]) controls whether successor links are installed;
    with it off every transition re-probes via {!find} — the
    differential-testing mode. [introspect] (default [false]) attaches
    an {!isite} record to every compiled indirect terminator so
    per-IB-site inline-cache hits/misses and the target multiset are
    counted — host-side only (simulated results are bit-identical),
    with the disabled-mode cost of one null test per indirect
    transition. [cfi_guard], when given, is consulted before an
    indirect MRU link is cached: [false] refuses the cache entry, so
    the transfer keeps re-probing (and keeps passing through the
    emitted CFI policy checks) — also host-side only. *)

val chained : cache -> bool
val introspected : cache -> bool

val generation : cache -> int
(** The current code generation ({!Memory.code_gen}): a block or link
    whose recorded generation differs is stale. *)

val aborted_ops : cache -> int
(** [-1] if the last executed body chain ran to completion; otherwise
    the number of body ops that executed before a store invalidated
    live decoded code and stopped the chain. The executor must
    {!clear_abort} after handling it. *)

val clear_abort : cache -> unit

val find : cache -> int -> t
(** The block starting at a PC: cached, freshly compiled, or recompiled
    in place if its generation went stale. Faults like {!Memory.fetch}
    when the PC is misaligned or out of range. *)

val follow_static : cache -> static_link -> t
(** The successor block through a link: the cached block if its
    generation is current (a {e chain hit}), otherwise sever and
    re-probe via {!find}, re-linking the result. *)

val follow_cond : cache -> cond_link -> bool -> t
(** Taken/fall-through successor of a conditional branch. *)

val follow_indirect : cache -> ind_link -> int -> t
(** Successor of an indirect transfer through the 2-entry inline cache,
    keyed on the target PC with MRU promotion. *)

(** {1 Statistics} *)

val stats : cache -> (string * int) list
(** The block-cache counters as [(name, value)] — the one place their
    names are defined; every sink ([--stats], [--stats-json],
    [introspect.json], the harness ledger) iterates it:
    - [decodes]: blocks compiled, including recompilations;
    - [invalidations]: recompilations forced by a code-generation bump;
    - [chain_hits]: transitions served by a valid chain link. *)

(** {1 Introspection} — meaningful under [~introspect:true] *)

val resident : cache -> t list
(** Every block currently resident in the direct-mapped table, in slot
    order (blocks evicted by a colliding PC but still reachable through
    chain links are not included). *)

val ind_sites : cache -> isite list
(** Every indirect-branch site counted so far, by ascending PC; [[]]
    when introspection is off. *)

val site_targets : isite -> (int * int) list
(** The site's target multiset as [(target, times taken)], sorted. *)
