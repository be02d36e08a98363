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
          charge through [Machine.exec]); 0 on untimed machines. *)
  mutable cyc_prefix : int array;
      (** [cyc_prefix.(k)] = static cycles of the first [k] body ops: a
          mid-block store abort that executed [k] ops backs out the
          over-charge [static_cycles - cyc_prefix.(k)] *)
  mutable heat : int;
      (** trace-mode dispatches since the last formation attempt (or
          sever) with this block as a potential trace head *)
  mutable trace : trace option;
      (** the superblock rooted here, if formed and not yet severed;
          consulted only by the trace-mode executor ({!hot_trace}) *)
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
  mutable c_theat : int;
      (** taken-direction executions, counted only by the trace-mode
          dispatcher: the bias signal deciding specialization *)
  mutable c_fheat : int;  (** fall-through-direction executions *)
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

(** A superblock: a hot predicted path of chained blocks spliced into
    one threaded closure chain. Internal terminators become {e guards}
    (same effects, same order as block mode) that side-exit through
    {!stub}s when the outcome diverges from the formation-time
    prediction; the whole path's static cycles are charged once per
    entry with prefix-sum backout at side exits and mid-trace SMC
    aborts. Valid exactly while [tr_gen] equals the current code
    generation — any store into decoded code severs the trace, like a
    chain link. *)
and trace = {
  tr_gen : int;
  tr_blocks : t array;  (** constituents, head first *)
  tr_n_instrs : int;  (** total instructions a full run executes *)
  tr_static : int;  (** total static cycles, charged once per entry *)
  tr_instr_prefix : int array;
      (** [tr_instr_prefix.(k)] = instructions of segments [0..k-1];
          length [Array.length tr_blocks + 1] *)
  tr_cyc_entry : int array;  (** same prefix sums for static cycles *)
  tr_body : unit -> unit;
  tr_stubs : stub array;
      (** [tr_stubs.(k)] rejoins the block cache after a side exit at
          guard [k] (the terminator of segment [k], [k <= n-2]) *)
  mutable tr_entries : int;
  mutable tr_side_exits : int;
}

(** The cold half of a guarded terminator: a side exit re-enters the
    normal block cache through the original link record, so the cold
    path chains, severs, and counts as if the trace never existed. *)
and stub =
  | Se_none  (** static transition: cannot side-exit *)
  | Se_cond of cond_link
  | Se_ind of ind_link

type cache

val slots : int
(** Number of direct-mapped cache slots; start PCs [4 * slots] bytes
    apart collide into the same slot. *)

val create :
  regs:int array ->
  counters:Counters.t ->
  ?timing:Sdt_march.Timing.t ->
  ?chain:bool ->
  ?introspect:bool ->
  ?cfi_guard:(int -> bool) ->
  Memory.t ->
  cache
(** A block cache compiling against the given machine state. The
    register file, counters, and timing model are captured inside the
    compiled closures, so a cache serves exactly one machine. [chain]
    (default [true]) controls whether successor links are installed;
    with it off every transition re-probes via {!find} — the
    differential-testing mode. [introspect] (default [false]) attaches
    an {!isite} record to every compiled indirect terminator so
    per-IB-site inline-cache hits/misses and the target multiset are
    counted — host-side only (simulated results are bit-identical),
    with the disabled-mode cost of one null test per indirect
    transition. [cfi_guard], when given, is consulted before an
    indirect MRU link is cached or a trace indirect guard is compiled:
    [false] refuses the cache entry, so the transfer keeps re-probing
    (and keeps passing through the emitted CFI policy checks) — also
    host-side only. *)

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

(** {1 Traces} — used only by the trace-mode executor *)

val hot_threshold : int
(** Dispatches of a block (as potential head) before trace formation is
    attempted, and between retries after a failure or sever. *)

val max_trace_blocks : int
(** Upper bound on constituent blocks per trace. *)

val hot_trace : cache -> t -> trace option
(** The valid trace rooted at a block the executor is about to run,
    counting the trace entry — or [None] after bumping the block's
    heat, severing a stale trace, or failing to form one. Formation
    walks only existing generation-current chain links (conditionals
    need [bias_min] observations with a >= 7/8 direction bias, indirect
    terminators a monomorphic inline cache); it never probes or
    decodes, so traces replay only transitions chained mode took. *)

val trace_exit : cache -> int
(** [-1] if the last [tr_body] run completed (or aborted); otherwise
    the guard index whose outcome diverged. The executor must
    {!clear_trace_exit} after handling it, and back out instructions
    and cycles against [tr_instr_prefix]/[tr_cyc_entry]. *)

val trace_exit_dir : cache -> bool
(** Direction actually taken when the exiting guard was conditional. *)

val trace_exit_pc : cache -> int
(** Target actually produced when the exiting guard was indirect. *)

val trace_abort_block : cache -> int
(** Segment index whose body hit a mid-trace SMC abort (meaningful when
    {!aborted_ops} is [>= 0] after a [tr_body] run). *)

val clear_trace_exit : cache -> unit

val note_side_exit : cache -> trace -> unit
(** Count one side exit (cache-wide and on the trace). *)

val traces : cache -> (t * trace) list
(** Every table-resident block carrying a trace (valid or stale), in
    slot order, with that trace. *)

(** {1 Statistics} *)

val decodes : cache -> int
(** Blocks compiled (including recompilations). *)

val invalidations : cache -> int
(** Recompilations forced by a code-generation bump. *)

type stats = {
  st_decodes : int;
  st_invalidations : int;
  st_chain_hits : int;  (** transitions served by a valid chain link *)
  st_chain_severs : int;
      (** links found stale (generation bumped) and dropped *)
  st_trace_compiles : int;  (** superblocks formed *)
  st_trace_entries : int;  (** dispatches that entered a valid trace *)
  st_side_exits : int;  (** guard divergences (not SMC aborts) *)
  st_trace_severs : int;
      (** traces dropped because the code generation moved on *)
  st_trace_aborts : int;  (** mid-trace SMC aborts *)
}

val stats : cache -> stats

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
