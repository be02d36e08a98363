(** The VIA functional simulator.

    A machine is registers + PC + {!Memory.t} + a
    {!Sdt_march.Timing.t} accountant, driven by {!step}/{!run}. The same
    machine executes both native application code and translator-emitted
    fragment code — translated execution is ordinary execution whose PC
    happens to sit in the fragment cache region, so every cost the SDT
    incurs is charged organically.

    [Inst.Trap] instructions vector to the installed {!set_trap_handler}
    callback (the SDT runtime); the handler must assign a new PC before
    returning. Executing a trap with no handler installed, or an
    [Inst.Illegal] word, raises {!Error}. *)

module Inst = Sdt_isa.Inst
module Timing = Sdt_march.Timing

exception Error of string

type counters = Counters.t = {
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  mutable cond_branches : int;
  mutable jumps : int;
  mutable calls : int;     (** direct [jal] *)
  mutable icalls : int;    (** [jalr] *)
  mutable ijumps : int;    (** [jr rs], [rs <> $ra] *)
  mutable returns : int;   (** [jr $ra] *)
  mutable syscalls : int;
  mutable traps : int;
}
(** Re-export of {!Counters.t}: the block compiler captures the record
    in its closures without depending on the machine. *)

type status = Running | Exited of int

type t = {
  mem : Memory.t;
  regs : int array;  (** 32 words; slot 0 reads as 0 and ignores writes *)
  mutable pc : int;
  timing : Timing.t;
  mutable status : status;
  out : Buffer.t;
  mutable checksum : int;
  c : counters;
  mutable trap_handler : t -> code:int -> trap_pc:int -> unit;
  mutable bcache : Block.cache option;
      (** the block interpreter's compiled-block cache, created on the
          first {!run_blocks} call and persistent for the machine's
          lifetime *)
  mutable binspect : bool;
      (** whether the next-created block cache counts per-IB-site
          inline-cache traffic; see {!set_block_introspect} *)
  mutable cfi_guard : (int -> bool) option;
      (** host-side CFI link guard; see {!set_cfi_guard} *)
}

val create : ?timing:Timing.t -> mem_size:int -> unit -> t
(** A zeroed machine charging every instruction to [timing], by default
    a fresh [Timing.create Arch.ideal] (unit costs, no caches or
    predictors). *)

val set_trap_handler : t -> (t -> code:int -> trap_pc:int -> unit) -> unit

val set_cfi_guard : t -> (int -> bool) option -> unit
(** Install the predicate the block interpreter consults before caching
    an indirect chain link (MRU fill): [false] refuses the cache entry,
    forcing that transfer to keep re-probing — and so to keep passing
    through the emitted policy checks. Purely host-side: simulated
    results are unaffected. Drops any live block cache, so install it
    before the first {!run_blocks}. *)

val reg : t -> int -> int
(** Read a register ([reg t 0 = 0]). *)

val set_reg : t -> int -> int -> unit
(** Write a register; writes to register 0 are discarded. The value is
    truncated to 32 bits. *)

val step : t -> unit
(** Execute one instruction. No-op if the machine has exited. *)

val run : ?max_steps:int -> t -> unit
(** Step until exit. @raise Error if [max_steps] (default [10^9])
    elapses first — the deterministic workloads always terminate, so
    hitting the limit indicates a translation bug. *)

val run_blocks : ?max_steps:int -> ?chain:bool -> t -> unit
(** Like {!run}, but through the compiled basic-block cache ({!Block}):
    straight-line runs compile once into pre-specialized closures and
    re-execute with no per-instruction decode, dispatch, or status
    check, and block terminators chain directly to their cached
    successors so hot transitions skip the cache probe. Every measured
    quantity — cycles, counters, cache misses, predictor outcomes,
    output, checksum — is bit-identical to {!run}; self-modifying code
    is handled by recompiling blocks whose words were overwritten and
    severing every chain link forged under the old generation (see
    {!Memory.code_gen}). [chain:false] disables link installation so
    every transition re-probes — the differential-testing mode. Falls
    back to {!run} when an observability probe is installed on the
    timing model, since a probe samples per-instruction state that
    block execution batches. *)

(** {1 Exec modes} *)

type mode = [ `Step | `Block | `Block_nochain ]
(** The interpreter loops, all bit-identical on every measured
    quantity: [`Step] is {!run}, [`Block] is {!run_blocks} with chain
    links, [`Block_nochain] is {!run_blocks} with [~chain:false]. *)

val modes : mode list
(** Every mode, in the order [step], [block], [block-nochain]. *)

val string_of_mode : mode -> string
(** ["step"], ["block"] or ["block-nochain"]. *)

val mode_of_string : string -> (mode, string) result
(** Inverse of {!string_of_mode}; any other string is an [Error] whose
    message lists the valid names. *)

val run_mode : ?max_steps:int -> mode -> t -> unit
(** Run to exit in the given mode. *)

val block_stats : t -> (string * int) list option
(** Block-cache counters ({!Block.stats}), if {!run_blocks} has run on
    this machine. *)

val set_block_introspect : t -> bool -> unit
(** Request per-IB-site introspection ({!Block.ind_sites}) from the
    block cache. Set it {e before} the first {!run_blocks} call: a live
    cache whose flag disagrees is rebuilt from scratch, which is
    correct (simulated results are unaffected either way) but discards
    its compiled blocks. *)

val block_cache : t -> Block.cache option
(** The live block cache, for {!Introspect} dumps. *)

val output : t -> string
(** Everything printed so far. *)

val exit_code : t -> int option

val ib_dynamic_count : t -> int
(** Executed indirect control transfers: [icalls + ijumps + returns]. *)
