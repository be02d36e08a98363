(** Measurement drivers: run a program natively and under the SDT with a
    cycle accountant, collect everything the experiments report, and
    verify translated correctness against the native run.

    Both native and SDT results are memoised on canonical
    {!Sdt_par.Fingerprint} cell keys (workload key × full architecture
    parameters × full configuration), in a domain-safe single-flight
    cache — the same cell recurring across experiments (or across
    [bench] invocations, with {!set_cache_dir}) is simulated once.
    Program identity is by build, so callers pass a [key] naming the
    workload and size. *)

module Arch = Sdt_march.Arch
module Program = Sdt_isa.Program
module Config = Sdt_core.Config
module Stats = Sdt_core.Stats
module Serve = Sdt_serve.Serve

type native = {
  n_instrs : int;
  n_cycles : int;
  n_ijumps : int;
  n_icalls : int;
  n_returns : int;
  n_cond : int;
  n_output : string;
  n_checksum : int;
}

type sdt = {
  s_cycles : int;
  s_instrs : int;  (** machine steps, including emitted SDT code *)
  s_runtime_cycles : int;
  s_icache_misses : int;
  s_dcache_misses : int;
  s_cond_misp : int;
  s_ind_misp : int;
  s_ras_misp : int;
  s_code_bytes : int;
  s_stats : Stats.t;
  s_mech : (string * float) list;
  slowdown : float;  (** s_cycles / native cycles on the same arch *)
}

exception Mismatch of string
(** An SDT run diverged from its native run — a translator bug; the
    harness refuses to report numbers for wrong executions. *)

val native : arch:Arch.t -> key:string -> (unit -> Program.t) -> native
(** Memoised on the full (key, arch-parameters) fingerprint — two
    arches that merely share a [name] cannot alias. *)

val sdt :
  arch:Arch.t -> cfg:Config.t -> key:string -> (unit -> Program.t) -> sdt
(** Runs natively first (memoised), then translated (also memoised);
    checks output and checksum; computes [slowdown].
    @raise Mismatch on divergence (first evaluation only — a cached
    cell already passed). *)

val serve : Serve.spec -> Serve.report
(** Run a multi-tenant service spec ({!Sdt_serve.Serve.run}) and
    reduce it to its compact report, memoised on
    {!Sdt_serve.Serve.fingerprint} {e plus the exec mode}: unlike
    single-run cells, a service's epoch micro-schedule (completion
    ticks, store churn) legitimately depends on the interpreter loop —
    block modes overshoot cycle targets to block boundaries — so modes
    may not share entries (only the guest checksums are
    mode-invariant). Always runs the service engine serially; the
    harness parallelises across {e specs} on the worker pool instead
    (the pool is not reentrant). *)

val clear_cache : unit -> unit
(** Drop both in-memory memo levels and their counters. Disk entries
    (if {!set_cache_dir} is active) survive. *)

val set_cache_dir : string option -> unit
(** Attach an on-disk result cache: one JSON file per simulated cell,
    so repeated bench invocations skip unchanged cells entirely. *)

type cache_stats = {
  hits : int;  (** cells served from memory *)
  disk_hits : int;  (** cells served from the disk cache *)
  simulated : int;  (** cells actually simulated *)
}

val cache_stats : unit -> cache_stats
(** Counters since the last {!clear_cache}, both memo levels summed. *)

val max_steps : int ref
(** Step budget per run (default 2 * 10^9). *)

val set_exec_mode : Sdt_machine.Machine.mode -> unit
(** Interpreter loop used for simulated cells: [`Block] (default)
    executes through the compiled basic-block cache with direct block
    chaining, [`Block_nochain] the same without chain links (every
    transition re-probes the cache), [`Step] the classic
    per-instruction loop. All three produce bit-identical measured
    results; the switch exists for A/B host-time comparison
    ([bench --perf-exec]) and differential testing. The default can
    also be overridden with the [SDT_EXEC_MODE] environment variable
    ([step] | [block] | [block-nochain], parsed by
    {!Sdt_machine.Machine.mode_of_string}), which the CI matrix uses to
    re-run the whole suite per mode; any other value exits 2 at
    startup with the list of valid modes. *)

val get_exec_mode : unit -> Sdt_machine.Machine.mode
(** The interpreter loop simulated cells currently use, so a caller
    that pins one with {!set_exec_mode} can restore it. *)

val counters : unit -> (string * int) list
(** The counter ledger: every counter summed over the actually-simulated
    runs (memoized cells add nothing) since process start, accumulated
    atomically across pool domains, as [(BENCH JSON key, total)] in the
    order bench emits them. Each key is declared once in [run.ml] with
    the layer assoc it is read from:
    - [instructions]: guest instructions executed (native, SDT and
      service runs);
    - [block_decodes], [block_invalidations], [chain_hits]: the
      machines' {!Sdt_machine.Block.stats} (all zero under [`Step]);
    - [adapt_promotions], [adapt_demotions], [adapt_repatches],
      [cfi_checks], [cfi_violations], [cfi_xcalls]: the SDT runs'
      {!Stats} counters of the same names (service runs contribute
      their jobs' sums, {!Sdt_serve.Serve.report.rp_counters});
    - [serve_jobs], [serve_dedup_hits], [serve_evictions],
      [serve_flushes]: the service reports' [rp_jobs],
      [rp_dedup_hits], [rp_evictions], [rp_flushes].

    A caller measures a span of work as the per-key difference of two
    snapshots. *)

val simulated_instructions : unit -> int
(** The ledger's [instructions]; feeds the bench MIPS report. *)

type block_cache_stats = {
  decodes : int;  (** blocks compiled, including recompilations *)
  invalidations : int;  (** recompilations forced by a generation bump *)
  chain_hits : int;  (** transitions served by a valid chain link *)
}

val block_cache_stats : unit -> block_cache_stats
(** The ledger's [block_decodes], [block_invalidations] and
    [chain_hits]. *)
