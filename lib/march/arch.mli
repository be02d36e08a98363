(** Microarchitecture parameter sets.

    The paper's cross-architecture result is that the best IB mechanism
    depends on the host implementation (their x86 vs SPARC machines).
    Two contrasting presets stand in for those hosts:

    - {!arch_a} "Aquila", x86-like: deep pipeline (expensive
      mispredictions), an effective BTB and return-address stack, large
      caches, cheap loads — but only three registers the translator can
      scavenge by spilling ([reserved_regs_free = false], so inline IB
      code pays spill/restore memory traffic, as Strata does on x86).
    - {!arch_b} "Corvus", SPARC-like: shallow pipeline (cheap conditional
      mispredictions), {e no indirect-branch predictor} (every indirect
      transfer pays a fixed dispatch cost), smaller caches with costlier
      misses, free translator registers (register windows / reserved
      globals, [reserved_regs_free = true]), and register-windowed
      context switches.
    - {!arch_c} "Milvus", embedded in-order: no dynamic prediction at
      all and small but fast caches; pure instruction count decides.

    {!ideal} charges one cycle per instruction with perfect prediction
    and caches; it isolates pure instruction-count overhead, is used by
    tests that need deterministic arithmetic, and is the model of every
    machine created without an explicit one. *)

type t = {
  name : string;
  (* base instruction costs, in cycles *)
  alu_cycles : int;
  mul_cycles : int;
  div_cycles : int;
  mem_cycles : int;        (** base cost of a load/store that hits *)
  branch_cycles : int;     (** base cost of any control transfer *)
  syscall_cycles : int;
  (* memory hierarchy; [None] models ideal caches *)
  icache : Cache.config option;
  dcache : Cache.config option;
  (* predictors *)
  cond_bits : int;             (** 0 = perfect conditional prediction *)
  cond_mispredict : int;
  btb_entries : int;           (** 0 = no indirect predictor *)
  indirect_mispredict : int;   (** penalty on BTB miss *)
  indirect_fixed : int;        (** fixed indirect cost when [btb_entries = 0] *)
  ras_depth : int;             (** 0 = no return-address stack *)
  ras_mispredict : int;
  (* SDT runtime service costs: work done inside the translator, i.e.
     outside emitted code. These model Strata's C runtime. *)
  trap_cycles : int;           (** entering/leaving the translator runtime *)
  translate_per_inst : int;    (** decode+emit cost per translated instruction *)
  lookup_cycles : int;         (** one fragment-map lookup in the runtime *)
  fast_miss_cycles : int;      (** hand-written IBTC reload stub (no context switch) *)
  (* register pressure: can the translator keep its scratch registers
     live across application code without spilling? *)
  reserved_regs_free : bool;
  context_regs : int;
      (** how many registers a full context switch must save/restore in
          emitted code. 31 on a flat-register-file machine; small on a
          register-windowed machine (SPARC-like), where the window shift
          covers most of the state. *)
}

val arch_a : t
(** "Aquila" — the x86-like preset. *)

val arch_b : t
(** "Corvus" — the SPARC-like preset. *)

val arch_c : t
(** "Milvus" — an embedded, short-pipeline, in-order preset: no branch
    prediction of any kind (every conditional resolves in the pipeline
    for free, every indirect costs a fixed couple of cycles), tiny
    caches with mild miss penalties, a lean translator runtime. Where
    archA punishes mispredictions and archB punishes memory traffic,
    archC punishes only instruction *count* — the mechanism with the
    shortest path wins. *)

val ideal : t
(** One cycle per instruction, perfect caches and predictors. *)

val all : t list
(** [\[arch_a; arch_b\]] — the presets benchmarks sweep over. *)

val by_name : string -> t option
(** Look up any of the presets (including ["ideal"]) case-insensitively. *)

val pp : Format.formatter -> t -> unit
