(** SDT configuration: every knob the paper sweeps.

    A configuration picks one indirect-branch translation {!mechanism},
    one {!return_policy}, an optional inline target-prediction depth,
    one control-transfer enforcement policy ({!cfi_policy}: none,
    program shepherding, or a CFI policy stage), and the structural
    parameters of the translator (fragment-cache capacity, basic-block
    limit, direct linking). The benchmark harness regenerates the
    paper's tables by sweeping these. *)

type ibtc_miss_policy =
  | Full_switch
      (** a miss performs a complete context switch into the translator,
          exactly like baseline dispatch, then refills the table *)
  | Fast_reload
      (** a miss runs a small hand-written reload stub that fills the
          table entry without saving the application context *)

type ibtc_hash =
  | Shift_mask      (** [(target >> 2) land (entries-1)] — 2 ALU ops *)
  | Multiplicative  (** Fibonacci hashing — 4 ALU ops incl. a multiply,
                        but fewer collisions on strided target sets *)

type ibtc = {
  entries : int;  (** shared-table size; power of two *)
  ways : int;
      (** associativity: 1 (direct-mapped, the classic IBTC) or 2 (two
          tags probed per set — one more load+compare on the probe path,
          far fewer conflict misses on small tables) *)
  shared : bool;  (** one process-wide table vs one table per IB site *)
  per_site_entries : int;  (** table size per site when not [shared] *)
  miss : ibtc_miss_policy;
  hash : ibtc_hash;
  inline_lookup : bool;
      (** inline the probe at every IB site (code bloat, but each site's
          final indirect jump gets its own BTB slot) vs jump to one
          shared lookup routine *)
}

type sieve = {
  buckets : int;  (** power of two *)
  insert_at_head : bool;
      (** new sieve stubs become the bucket head (MRU-ish) vs being
          appended at the tail — ablation A3 *)
}

type adaptive = {
  ic_rebinds : int;
      (** monomorphic inline-cache rebinds tolerated before the site
          promotes out of the IC tier. This is also the census budget
          for the sieve-vs-IBTC call on sieve-favored hosts; where the
          host never favors the sieve only a quarter of it is spent
          (mono/poly separation needs far fewer samples) *)
  poly_entropy_bits : float;
      (** target entropy (bits, over the IC tier's observed miss
          targets) at or above which a site counts as genuinely
          polymorphic — the precondition for choosing the sieve tier
          on a sieve-favored host *)
  site_ibtc_entries : int;
      (** per-site IBTC table size {e cap}; power of two. The initial
          table is sized from the IC census: 16x the distinct targets
          seen, with a d-scaled floor (64 entries for sites with at most
          3 targets, 256 above that) and clamped to the cap; it grows 4x
          under conflict-miss pressure up to the cap *)
  ibtc_promote_misses : int;
      (** repeat (conflict) misses tolerated per per-site IBTC table
          size step; exceeding it grows the table 4x, or — at the cap,
          on a sieve-favored host, for a non-megamorphic site — promotes
          to the sieve tier *)
  site_sieve_buckets : int;  (** per-site sieve buckets; power of two *)
  sieve_promote_chain : int;
      (** max sieve bucket-chain length that triggers promotion to full
          dispatch *)
  demote_window : int;
      (** adaptive miss/dispatch events between demotion scans of
          full-dispatch sites *)
  mono_share_pct : int;
      (** dominant-target share (percent of the window) at or above
          which a full-dispatch site demotes back to the IC tier *)
  mega_new_pct : int;
      (** new-target rate (percent of IC-census misses that introduced a
          previously unseen target) at or above which a site counts as
          megamorphic-growing and is pinned to the IBTC tier: sieve
          insertions are full context switches, so a target set still
          growing this fast would eat the sieve's hit-path advantage *)
}
(** Thresholds driving the {!Adaptive} mechanism's per-site promotion
    lattice: inline cache -> per-site IBTC -> per-site sieve -> full
    dispatch (and demotion back to the inline cache). *)

type mechanism =
  | Dispatch  (** baseline: every IB context-switches into the translator *)
  | Ibtc of ibtc
  | Sieve of sieve
  | Adaptive of adaptive
      (** per-site online mechanism selection: every IB site starts as a
          monomorphic inline cache and is promoted/demoted along the
          lattice at runtime by re-patching its exit transfer, driven by
          counters maintained on the (already-trapping) miss paths *)

type return_policy =
  | As_ib  (** returns go through the IB mechanism like any other IB *)
  | Return_cache of { entries : int }
      (** calls deposit the translated return point in a direct-mapped,
          untagged cache slot; the return point verifies the application
          return address and falls back to the IB mechanism on mismatch *)
  | Shadow_stack of { depth : int }
      (** calls push (app return address, translated return point) on a
          translator-private stack; returns pop and verify *)
  | Fast_return
      (** calls push {e fragment-cache} return addresses so returns are a
          bare [jr $ra] (return-address-stack predicted). Violates
          address transparency; incompatible with fragment-cache flushes. *)

type spill_mode =
  | Spill_auto    (** follow {!Sdt_march.Arch.t.reserved_regs_free} *)
  | Spill_always
  | Spill_never

type cfi_policy =
  | Cfi_none
  | Cfi_shepherd
      (** program shepherding, the degenerate policy: every target the
          translator is asked to translate must be a word-aligned
          address in the application's text segment, else
          {!Cfi.Violation}. Nothing is emitted and nothing is charged —
          the check lives on the translator's lookup path only, so
          steady-state cost is zero. Incompatible with {!Fast_return},
          whose returns bypass the translator. *)
  | Cfi_landing_pad
      (** FineIBT-style enforcement: every fragment opens with a 4-word
          landing pad that verifies the delivered target register against
          the fragment's application PC (catching poisoned IBTC / sieve /
          inline-cache state), and every IB mechanism's miss path runs a
          set-membership validation of the target before caching it.
          Membership is trust-on-first-use over the static call graph:
          direct-call targets are pre-seeded; first-time indirect targets
          pay a validation charge, repeats pay nothing on hit paths
          (sieve/IBTC hits skip the test entirely) while full dispatch
          re-checks on every transfer. *)
  | Cfi_compartment of { count : int }
      (** landing pads plus a RiscMachine-style cross-component jump
          monitor: the text segment is partitioned into [count] equal
          compartments, every IB site records its own PC before
          transferring, and a cross-compartment indirect transfer is
          mediated (extra charge) and audited against the static
          entry-point set. *)
  | Ret_integrity
      (** return integrity via the wired-in shadow stack: returns are
          forced through a shadow stack in audit mode, where an unmatched
          return traps (counted as a CFI violation) before falling back
          through the IB mechanism. Incompatible with {!Fast_return}. *)

val cfi_name : cfi_policy -> string
(** ["none"], ["shepherd"], ["landing_pad"], ["compartment:K"],
    ["ret_integrity"]. *)

val cfi_of_string : string -> (cfi_policy, string) result
(** Parse [none|shepherd|landing_pad|compartment[:K]|ret_integrity] (a
    few aliases accepted); inverse of {!cfi_name}. *)

val cfi_from_env : cfi_policy
(** The policy named by the [SDT_CFI] environment variable at startup
    ([Cfi_none] when unset) — folded into {!default} and {!baseline} so
    the whole test suite can be swept policy-enabled without touching
    call sites. An unparseable value raises [Invalid_argument]. *)

type t = {
  mech : mechanism;
  returns : return_policy;
  pred_depth : int;
      (** inline target-prediction slots emitted ahead of the mechanism
          at indirect-jump and (transparent) indirect-call sites; 0 = off *)
  link_direct : bool;
      (** patch direct-branch exit stubs to jump fragment-to-fragment;
          when off, every direct block transition context-switches *)
  follow_direct_jumps : bool;
      (** superblock formation (NET-style): translation continues
          straight through unconditional direct jumps (eliding them) and
          through the fall-through side of conditional branches (whose
          taken-side stubs are deferred to the fragment end), up to
          [block_limit]. Jumps back into the trace or to
          already-translated code end the trace (they would unroll loops
          or duplicate fragments). Longer fragments, fewer links,
          straighter fetch — at the cost of duplicating code reached
          from several places *)
  spill : spill_mode;
  block_limit : int;
      (** max instructions translated per fragment. Distinguished by the
          "tiny blocks" test (limit 2 translates more blocks than 64);
          no caller outside the tests changes it from 64 *)
  code_capacity : int;
      (** fragment code region bytes actually used. Distinguished by the
          "flush pressure" test (0x400 bytes force flushes); no caller
          outside the tests changes it *)
  count_memops : bool;
      (** instrumentation mode: emit a counter increment before every
          translated load/store (the paper's motivating SDT use case);
          read the count back with {!Runtime.instrumented_memops}.
          Distinguished by the "memop instrumentation" test (the count
          equals the native loads + stores); caller:
          [examples/instrumentation.ml] *)
  profile_ib_sites : bool;
      (** instrumentation mode: give every translated indirect-branch
          site its own execution counter (return sites too, under every
          return policy); read the profile back with
          {!Runtime.ib_site_profile} — the data a dynamic optimiser
          would use to pick per-site mechanisms. Distinguished by the
          "IB site profiling" test (the profile sums to the dynamic IB
          count); callers: [via_run --profile-ib],
          [examples/profiling.ml] *)
  cfi : cfi_policy;
      (** the control-transfer enforcement policy composed with the IB
          mechanism at translation time (see {!cfi_policy}); [Cfi_none]
          and [Cfi_shepherd] emit nothing and charge nothing. *)
}

val default_ibtc : ibtc
(** 4096-entry shared table, shift-mask hash, fast reload, inline. *)

val default_sieve : sieve
(** 4096 buckets, head insertion. *)

val default_adaptive : adaptive
(** 16-rebind IC census, 3.0-bit polymorphic cutover, 80% megamorphic
    new-target rate, per-site IBTC capped at 4096 entries growing after
    16 conflict misses, 4096-bucket per-site sieve promoting at chain
    length 24, 4096-event demotion window at 90% monomorphy. *)

val default : t
(** The sensible configuration: shared inline IBTC with fast reload,
    return cache, direct linking, no inline prediction. *)

val baseline : t
(** The paper's starting point: [Dispatch] for everything (returns
    too), direct linking on. *)

val validate : t -> (unit, string) result
(** Check power-of-two table sizes, positive limits, and mechanism /
    return-policy compatibility (a policy that polices returns in the
    translator — [Cfi_shepherd], [Ret_integrity] — rejects
    [Fast_return]). *)

val describe : t -> string
(** A short single-line description, e.g.
    ["ibtc(4096,shared,fast,inline)+retcache"]. *)
