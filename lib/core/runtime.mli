(** The SDT runtime: wires the machine, translator, and IB mechanisms
    together and runs an application under translation.

    Execution never touches original application text after startup:
    the entry block is translated, the machine's PC is pointed into the
    fragment cache, and all further translation happens through trap
    handlers (lazy block translation, stub linking, IB misses). Under
    any {!Config.cfi_policy} but [Cfi_none], every one of those
    translator lookups first passes the policy's text-range check
    ({!Cfi.check}); program shepherding ([Cfi_shepherd]) is exactly
    that check and nothing more. *)

module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Machine = Sdt_machine.Machine
module Program = Sdt_isa.Program

exception Error of string

type t

val create :
  cfg:Config.t ->
  arch:Arch.t ->
  ?timing:Timing.t ->
  ?observer:Sdt_observe.Observer.t ->
  Program.t ->
  t
(** Load the program, emit the shared routines, and install the trap
    handler. The machine is not started yet. Every cycle is charged to
    [timing], by default a fresh [Timing.create arch].

    When an [observer] is attached it is wired before any code is
    emitted: translator hooks report events and code regions to it, the
    standard metric sources (stats counters, fragment/code occupancy,
    timing counters, mechanism gauges such as IBTC occupancy and hit
    rate) are registered with its metrics layer, and the cycle
    accountant's probes feed it per-instruction attribution.
    Observation is host-side only: an observed run is cycle-for-cycle
    identical to an unobserved one.
    @raise Invalid_argument if [timing] models an arch other than
    [arch] (translation would follow one and cycles the other);
    @raise Error on an invalid configuration. *)

val run :
  ?max_steps:int ->
  ?mode:Machine.mode ->
  t ->
  unit
(** Translate the entry block and run to exit. [mode] picks the
    interpreter loop: [`Block] (the default) executes through the
    compiled basic-block cache with direct block chaining
    ({!Machine.run_blocks}), [`Block_nochain] the same without chain
    links (every transition re-probes the cache — the differential
    mode), [`Step] the classic per-instruction loop ({!Machine.mode}) —
    all three produce bit-identical measured results; the block modes
    are simply faster host-side.
    @raise Machine.Error on step-limit overrun;
    @raise Error on translator failures (unsupported application code,
    fragment-cache overflow under fast returns);
    @raise Cfi.Violation under any policy but [Cfi_none] when a control
    transfer tries to enter code outside the application's text
    segment — e.g. an indirect branch through a corrupted function
    pointer. *)

val start : t -> unit
(** Translate the entry block and point the machine's PC at it, once;
    subsequent calls are no-ops. {!run} and {!advance} call it
    implicitly. Unlike re-running {!run}, a started runtime's machine
    keeps its position across calls — the serving layer depends on
    this for quantum-sliced execution. *)

val advance :
  ?max_steps:int ->
  ?mode:Machine.mode ->
  t ->
  [ `Exited of int | `Running ]
(** Resumable slice of {!run}: execute at most [max_steps] further
    instructions and report whether the application exited. A
    step-budget overrun is absorbed (machine state stays valid and a
    later [advance] continues where this one stopped); a
    [Machine.Error] raised with {e no} forward progress is a genuine
    fault and propagates, as do translator failures. *)

val machine : t -> Machine.t
val stats : t -> Stats.t
val env : t -> Env.t

val code_bytes : t -> int
(** Bytes of fragment-cache code currently emitted. *)

val fragments : t -> (int * int) list
(** The fragment map: (application PC, fragment address) pairs, sorted
    by fragment address — i.e. in emission order. *)

val mech_stats : t -> (string * float) list
(** Mechanism-specific extras for reports (e.g. sieve chain lengths). *)

val sieve_buckets : t -> int list
(** Occupied sieve-bucket chain lengths (sorted ascending); [[]] for
    non-sieve mechanisms — feeds the introspection histogram. *)

val adapt_sites : t -> Adapt.site_info list
(** Per-site adaptive snapshots (tier, transition history, re-patch
    counts), sorted by application PC; [[]] for static mechanisms. *)

val adapt_site_at : t -> int -> Adapt.site_info option
(** The adaptive site owning a fragment-cache address (its current tier
    body or one of its occurrence transfers), if any. *)

val cfi_elided : t -> int
(** Dynamic indirect transfers the policy never re-checked
    ([ib_dynamic - cfi_checks], at least 0): the hit-path elision the
    caching mechanisms buy. 0 under policies that never validate on
    miss paths ([Cfi_none], [Cfi_shepherd]). *)

val cfi_report : t -> (string * int) list
(** Host-tier CFI bookkeeping (membership/entry-point set sizes, host
    fast-path guard checks and refusals); [[]] when no policy is
    active. The runtime counters live in {!Stats.t}
    ([cfi_checks] .. [cfi_xcalls]). *)

val cfi_violations_at : t -> int -> int
(** CFI violations attributed to an application PC (the transferring
    site when a compartment policy recorded it, the target fragment
    otherwise); 0 when no policy is active. *)

val cfi_violation_sites : t -> (int * int) list
(** Every application PC with recorded CFI violations as [(pc, count)]
    ascending; [[]] when no policy is active or none occurred. *)

val cfi_compartment_of : t -> int -> int option
(** Compartment index of a text address under [Cfi_compartment]. *)

val instrumented_memops : t -> int
(** Value of the instrumentation counter
    ({!Config.t.count_memops}). *)

val ib_site_profile : t -> (int * int) list
(** Per-site execution counts collected under
    {!Config.t.profile_ib_sites}: (application PC, executions), merged
    across overlapping fragments and sorted hottest-first (ties by PC).
    Counts reset on a fragment-cache flush (the sites are
    retranslated). *)

val flush : t -> unit
(** Force a fragment-cache flush (also triggered automatically on
    overflow). @raise Error under the fast-return policy, whose
    fragment addresses escape into application state. *)
