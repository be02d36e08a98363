(** The control-transfer policy layer: the owner of the application's
    text range and of the one hard safety predicate (word-aligned,
    inside the text segment) every policy enforces.

    The runtime checks every translator lookup against that predicate
    ({!check}) whenever a policy is active. For {b program shepherding}
    ([Cfi_shepherd]) that is the whole policy: no pads, no site stage,
    no membership tables and no miss-path hooks, so it charges nothing
    and counts nothing in steady state. The other policies add a staged
    pipeline on top.

    One policy engine serves every IB mechanism: the translator calls
    {!install}ed hooks (via {!Env.cfi_emit_pad} / {!Env.cfi_emit_site})
    at emission time, and every mechanism's miss-path trap handler calls
    {!Env.cfi_validate} before it caches, patches or stubs a new target.
    The division of labour mirrors FineIBT:

    - {b Landing pads} (emitted, per fragment): a 4-word prologue
      [li32 $at, app_pc; beq $at, $k0, +1; trap] that verifies the
      {e claimed} target delivered in [$k0] against the fragment's real
      application PC. Indirect deliveries (IBTC/sieve/IC hits, dispatch
      restores, prediction slots) always enter at the pad; direct
      transfers (patched links, fast-return [jal]s, the initial start)
      are statically verified and enter at {!Env.body_entry}. A pad
      mismatch means poisoned mechanism state and is re-routed through
      the translator after being counted (a hard-predicate failure
      raises {!Violation}).
    - {b Membership validation} (host, miss paths only): targets are
      admitted trust-on-first-use against a hard safety predicate
      (word-aligned, inside the text segment), pre-seeded with the
      statically named call graph (direct call/jump destinations, their
      return continuations, and address-taken code addresses formed by
      [lui]/[ori] pairs — the capability-table idiom). Because
      validation lives on the miss
      path, sieve/IBTC/IC {e hits skip the membership test entirely} —
      the elision the F12 experiment measures — while full dispatch,
      whose every transfer is a miss, re-checks each time.
    - {b Compartments} ([Cfi_compartment]): the text segment is split
      into [count] equal ranges and every IB site additionally records
      its own PC in a guest-memory slot ({!Layout.t.cfi_slot}) before
      transferring — the per-transfer cost of source identification.
      A cross-compartment indirect transfer is mediated (extra charge,
      [cfi_xcalls]) and audited against the static entry-point set, in
      the spirit of the RiscMachine cross-component jump monitor.
    - {b Host-tier re-validation}: the block interpreter's MRU indirect
      chain links consult {!link_guard} before caching an edge, so no
      host fast path can silently link {e past} a landing pad into a
      fragment body.

    All charges are deterministic, so the three execution modes stay
    bit-exact with a policy enabled. With the policy off none of this
    exists: no pads, no charges, byte-identical fragments. *)

type t

exception Violation of { site_pc : int; target : int }
(** A hard failure: a misaligned or out-of-text control-transfer
    target, attributed to the recorded transferring site when a
    compartment policy knows it ([site_pc] is 0 when unknown). *)

val create : Env.t -> text_lo:int -> text_hi:int -> entry:int -> t
(** Build the policy state for [env.cfg.cfi] (which must not be
    [Cfi_none]) over the text range [\[text_lo, text_hi)]: statically
    scans the text segment to pre-seed the membership and entry-point
    sets (not under [Cfi_shepherd]), and allocates the compartment
    site slot when the policy needs one. *)

val install : t -> Env.t -> unit
(** Install the {!Env.cfi_hooks} closures on the environment (none
    under [Cfi_shepherd]). Must run before any application code is
    translated. *)

val check : t -> Env.t -> target:int -> unit
(** The translator-lookup check: charges nothing; a target failing the
    hard predicate is counted ([cfi_violations]) and raises
    {!Violation}. *)

val on_flush : t -> unit
(** Forget the flushed generation's fragment-body set. Membership and
    violation history survive, like the adaptive mechanism's census. *)

val link_guard : t -> Env.t -> (int -> bool) option
(** The host-side predicate the block interpreter consults before
    caching an indirect chain link: [false]
    (refuse to cache, count a violation) iff the target enters a
    fragment past its landing pad. [None] for pad-free policies. *)

val policy : t -> Config.cfi_policy

val compartment_of : t -> int -> int option
(** Compartment index of a text address, when compartments are on. *)

val violations_at : t -> int -> int
(** Violations recorded against an application PC (the transferring
    site when it was known, the claimed target otherwise). *)

val violation_sites : t -> (int * int) list
(** Every application PC with recorded violations, as
    [(pc, count)] ascending by PC — the introspection feed. *)

val report : t -> (string * int) list
(** Host-tier bookkeeping beyond the {!Stats} counters:
    [members], [entry_points], [host_checks], [host_rejects]. *)
