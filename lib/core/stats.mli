(** SDT runtime counters.

    These count events the emitted code cannot count for itself —
    everything that passes through the translator runtime — plus static
    code-generation facts. Hit rates are computed by the harness as
    (dynamic IBs from the native run) − (misses counted here). *)

type t = {
  mutable blocks_translated : int;
  mutable insts_translated : int;  (** application instructions decoded *)
  mutable links : int;             (** direct-branch stubs patched *)
  mutable dispatch_entries : int;  (** baseline dispatch context switches *)
  mutable ibtc_misses_full : int;
  mutable ibtc_misses_fast : int;
  mutable ibtc_tables : int;       (** tables allocated (per-site mode) *)
  mutable sieve_misses : int;
  mutable sieve_stubs : int;
  mutable retcache_fallbacks : int;
  mutable shadow_fallbacks : int;
  mutable pred_fills : int;
  mutable pred_exhausted_sites : int;
  mutable flushes : int;
  mutable ib_sites : int;          (** static indirect-branch sites translated *)
  mutable adapt_promotions : int;  (** adaptive sites promoted up the lattice *)
  mutable adapt_demotions : int;   (** adaptive sites demoted back to the IC *)
  mutable adapt_repatches : int;   (** site occurrences re-patched to a new tier *)
  mutable dedup_hits : int;        (** fragments satisfied from a shared service store *)
  mutable service_evictions : int; (** times a serving layer invalidated this tenant *)
  mutable cfi_checks : int;        (** CFI membership tests run (miss paths + per-transfer dispatch) *)
  mutable cfi_validations : int;   (** first-use targets admitted into the CFI membership set *)
  mutable cfi_violations : int;    (** landing-pad mismatches, audit failures, unmatched returns *)
  mutable cfi_xcalls : int;        (** mediated cross-compartment indirect transfers *)
}

val create : unit -> t
val reset : t -> unit

val total_ib_misses : t -> int
(** Dispatch entries + IBTC misses + sieve misses + return fallbacks. *)

val to_assoc : t -> (string * int) list
(** Every counter as [(name, value)], in declaration order — the one
    canonical machine-readable form; {!pp}, the metrics exporters and
    the harness's counter ledger derive from it. Each counter's name is
    defined once, in the table that drives this, {!of_assoc} and
    {!reset}. *)

val of_assoc : (string * int) list -> t
(** Inverse of {!to_assoc}: fresh counters set from the named values;
    a counter missing from the list is 0 and an unknown name is
    ignored. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable dump (one [name: value] line per
    {!to_assoc} entry). *)
