(* Adaptive per-site IB mechanism selection.

   Every indirect-branch site starts as a monomorphic inline cache (one
   compare against the last-bound target, then a direct jump to its
   fragment) and is promoted at runtime along the lattice

     inline cache -> per-site IBTC -> per-site sieve -> full dispatch

   driven by counters maintained on the miss paths — which already trap
   into the runtime, so the steady-state hit paths pay nothing for the
   bookkeeping. A promotion (or demotion, for full-dispatch sites that
   turn out to be monomorphic over a demotion window) re-emits the tier
   body and re-patches every current-generation occurrence of the site's
   fixed-shape exit transfer, exactly the way fragment linking patches
   direct-branch stubs; the stores go through simulated memory, so the
   host block cache's SMC/chain-sever protocol retires stale chains with
   no new correctness story. The first occurrence of a site hosts the
   body inline in a fixed-capacity patchable slot — tier transitions
   rewrite the slot contents in place — so the steady-state hit path of
   the IC and per-site IBTC tiers costs exactly what the static
   mechanism would; only tiers whose bodies cannot be slotted (sieve,
   full dispatch) sit out of line behind a one-word direct jump.

   Across fragment-cache flushes the per-generation artifacts (tier
   bodies, occurrences, per-site sieve instances) die with the code
   region, but the per-site state machine — current tier, cumulative
   counters, transition history — survives: the site is lazily
   re-emitted at its remembered tier when its fragment is retranslated,
   rather than silently resetting to the bottom of the lattice. *)

module Inst = Sdt_isa.Inst
module Reg = Sdt_isa.Reg
module Arch = Sdt_march.Arch
module Cache = Sdt_march.Cache
module Machine = Sdt_machine.Machine
module Profile = Sdt_observe.Profile

type tier = Ic | Site_ibtc | Site_sieve | Full_dispatch

let tier_name = function
  | Ic -> "inline-cache"
  | Site_ibtc -> "ibtc"
  | Site_sieve -> "sieve"
  | Full_dispatch -> "dispatch"

(* One emitted, re-patchable entry to the site's tier logic; a site
   translated into several overlapping fragments has several. A slotted
   occurrence ([occ_slot]) hosts its own inline copy of the tier body in
   a fixed-capacity patchable slot starting at [occ_at] — rewritten in
   place on tier transitions — so its hit path pays nothing over the
   static mechanism; a plain occurrence is a one-word direct transfer
   ([j]/[jal]) to the site's canonical out-of-line body. *)
type occurrence = {
  occ_at : int;
  occ_tail : Env.tail;
  occ_gen : int;
  occ_slot : bool;
}

type site = {
  site_pc : int;
  mutable tier : tier;
  (* inline-cache tier: the bound target (host-side mirror of the
     patched immediate) and how often it was re-bound *)
  mutable ic_bound : int option;
  mutable ic_rebinds : int;
  (* miss-target histogram: feeds the promotion decision (entropy,
     new-target rate, table sizing) and the warm handoff that seeds each
     promoted tier with the targets already learned *)
  miss_targets : (int, int) Hashtbl.t;
  (* classified megamorphic-growing at IC promotion: pinned to the IBTC
     tier (sieve insertions would never amortise) *)
  mutable mega : bool;
  (* IBTC tier: current table size (0 = not yet sized), total misses,
     and per-size-step conflict detection — a target missing again after
     being inserted this step means the table is too small *)
  mutable ibtc_entries : int;
  mutable ibtc_misses : int;
  mutable ibtc_repeats : int;
  ibtc_step_seen : (int, unit) Hashtbl.t;
  mutable dispatches : int;
  (* demotion window over the full-dispatch tier *)
  mutable win_events : int;
  win_targets : (int, int) Hashtbl.t;
  (* (tier entered, adaptive event clock), newest first *)
  mutable transitions : (tier * int) list;
  mutable repatches : int;
  mutable occurrences : occurrence list;
  (* per-generation artifacts *)
  mutable body : int;
  mutable body_gen : int;
  mutable body_lo : int;
  mutable body_hi : int;
  (* the per-site IBTC table shared by every body copy of the current
     size step this generation (base_gen/-entries validate it) *)
  mutable ibtc_base : int;
  mutable ibtc_base_gen : int;
  mutable ibtc_base_entries : int;
  mutable sieve : Sieve.t option;
}

type t = {
  acfg : Config.adaptive;
  sites : (int, site) Hashtbl.t;
  (* per-branch tables for every Site_ibtc tier body *)
  sub_ibtc : Ibtc.t;
  mutable clock : int;
  mutable last_scan : int;
}

type site_info = {
  si_pc : int;
  si_tier : string;
  si_transitions : (string * int) list;  (* oldest first *)
  si_repatches : int;
  si_body : (int * int) option;
  si_occs : int list;
}

(* no application address can equal the all-ones pattern, so it marks an
   unbound inline cache (same trick as the IBTC empty tag) *)
let unbound = 0xFFFF_FFFF

(* the demotion scan only judges sites with a minimally filled window *)
let min_window_sample = 16

(* Patchable-slot capacity, in words. Sized for the largest tier body
   that is rewritten in place: the per-site IBTC probe with full spill
   bracketing (19 words with the default shift-mask hash, a few more
   under a multiplicative hash or two-way probing). Tiers whose body
   cannot start at its first word (the sieve emits its routines ahead of
   the inline hash) or is unbounded (full dispatch's context save) live
   out of line behind a one-word jump instead. *)
let slot_words = 28

let slot_eligible = function
  | Ic | Site_ibtc -> true
  | Site_sieve | Full_dispatch -> false

let j_to target = Inst.J ((target lsr 2) land 0x3FF_FFFF)
let jal_to target = Inst.Jal ((target lsr 2) land 0x3FF_FFFF)

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

(* Does this host reward the sieve's hit path over the IBTC's for a
   polymorphic site? A real SDT knows its host microarchitecture, and
   the paper's central result is exactly that the answer differs across
   hosts. Per hit, the sieve replaces the IBTC's second dependent table
   load — worth [mem_cycles] plus about a quarter of a dcache-miss
   penalty, since a hot IB table outsizes a small dcache — with ~1.5
   compare-and-branch stubs: six ALU words and ~0.75 conditional
   mispredicts. Scaled by 4 to keep the comparison integral. *)
let sieve_favored (arch : Arch.t) =
  let dpen =
    match arch.Arch.dcache with
    | Some c -> c.Cache.miss_penalty
    | None -> 0
  in
  (4 * arch.Arch.mem_cycles) + dpen > 28 + (3 * arch.Arch.cond_mispredict)

(* The IC census budget. On a sieve-favored host the full budget buys
   the target-set sample the sieve-vs-IBTC call needs; elsewhere the
   only question is mono vs poly, which a quarter of the budget
   answers. *)
let ic_budget t env =
  if sieve_favored env.Env.arch then t.acfg.Config.ic_rebinds
  else max 1 (t.acfg.Config.ic_rebinds / 4)

let pow2_at_least n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 4

(* Size a fresh per-site IBTC from the census: room for 16x the distinct
   targets seen keeps a direct-mapped table's conflict odds low, clamped
   to [256, cap] — benchmarks put the knee for per-site tables at 256
   entries; below that, both tag conflicts and unlucky dcache placement
   of the narrow table show up. The table grows 4x under conflict
   pressure later. *)
let sized_entries t s =
  let cap = t.acfg.Config.site_ibtc_entries in
  let d = max 1 (Hashtbl.length s.miss_targets) in
  (* dcache address-placement luck dominates at these sizes, so the
     floor is d-scaled rather than flat: a near-monomorphic site keeps
     the small 64-entry footprint, anything wider gets 256 entries of
     headroom so hot tags stop sharing sets *)
  let floor = if d <= 3 then 64 else 256 in
  min cap (max (min floor cap) (pow2_at_least (16 * d)))

(* the warm handoff: every census target that is still translated, with
   its fragment — what a promoted tier can be seeded with for free
   (the site already paid a miss apiece learning them) *)
let learned_pairs env s =
  Hashtbl.fold
    (fun target _ acc ->
      if Hashtbl.mem env.Env.frags target then
        (target, env.Env.ensure_translated target) :: acc
      else acc)
    s.miss_targets []

let create env (acfg : Config.adaptive) =
  let sub_cfg =
    {
      Config.default_ibtc with
      Config.shared = false;
      per_site_entries = acfg.Config.site_ibtc_entries;
      miss = Config.Fast_reload;
    }
  in
  {
    acfg;
    sites = Hashtbl.create 64;
    sub_ibtc = Ibtc.create env sub_cfg;
    clock = 0;
    last_scan = 0;
  }

let site_of t ~site_pc =
  match Hashtbl.find_opt t.sites site_pc with
  | Some s -> s
  | None ->
      let s =
        {
          site_pc;
          tier = Ic;
          ic_bound = None;
          ic_rebinds = 0;
          miss_targets = Hashtbl.create 8;
          mega = false;
          ibtc_entries = 0;
          ibtc_misses = 0;
          ibtc_repeats = 0;
          ibtc_step_seen = Hashtbl.create 8;
          dispatches = 0;
          win_events = 0;
          win_targets = Hashtbl.create 8;
          transitions = [ (Ic, 0) ];
          repatches = 0;
          occurrences = [];
          body = 0;
          body_gen = -1;
          body_lo = 0;
          body_hi = 0;
          ibtc_base = 0;
          ibtc_base_gen = -1;
          ibtc_base_entries = 0;
          sieve = None;
        }
      in
      Hashtbl.add t.sites site_pc s;
      s

(* ------------------------------------------------------------------ *)
(* Tier bodies. Each is entered with the application target in $k0 and
   behaves like a shared routine: a Tail_jr occurrence jumps in with a
   plain [j], a Tail_jalr_ra occurrence with a direct [jal] (setting $ra
   and pushing the hardware RAS at the site without paying an indirect
   transfer), and the body transfers to the looked-up fragment itself.
   Both occurrence shapes are a single re-patchable word. *)

let rec emit_ic_body t env s =
  let em = env.Env.em in
  let entry = Emitter.here em in
  Env.emit_spill_prologue env;
  let bind_at = Emitter.here em in
  Emitter.li32 em Reg.at unbound;
  Emitter.emit em (Inst.Beq (Reg.at, Reg.k0, 1));
  let gen = env.Env.generation in
  let jfrag_at = ref 0 in
  let rebind target frag =
    s.ic_bound <- Some target;
    Emitter.patch_li32 em bind_at Reg.at target;
    Emitter.patch em !jfrag_at (j_to frag)
  in
  Env.emit_trap env ~code:Env.trap_adapt (fun m ~trap_pc:_ ->
      let target = Machine.reg m Reg.k0 in
      (* CFI: validate before the IC rebinds or a tier learns it *)
      Env.cfi_validate env ~target;
      bump s.miss_targets target;
      let known = Hashtbl.mem env.Env.frags target in
      let frag = env.Env.ensure_translated target in
      Env.charge env
        (if known then env.Env.arch.Arch.fast_miss_cycles
         else env.Env.arch.Arch.trap_cycles + env.Env.arch.Arch.lookup_cycles);
      (if env.Env.generation = gen && s.tier = Ic && s.body_gen = gen then
         match s.ic_bound with
         | None ->
             (* first execution: bind, not counted against the rebind
                budget *)
             rebind target frag
         | Some _ ->
             s.ic_rebinds <- s.ic_rebinds + 1;
             if s.ic_rebinds <= ic_budget t env then rebind target frag
             else promote_from_ic t env s);
      tick t env;
      if env.Env.generation <> gen then
        m.Machine.pc <- env.Env.ensure_translated target
      else m.Machine.pc <- frag);
  Env.emit_spill_epilogue env;
  (* patched to [j fragment] on every (re)bind; unreachable while
     unbound — no application target matches the all-ones immediate —
     but point it at the dispatch routine so it stays well-formed *)
  jfrag_at := Emitter.here em;
  Emitter.jump_abs em `J env.Env.translator_entry;
  entry

and emit_ibtc_body t env s =
  let entry = Emitter.here env.Env.em in
  if s.ibtc_entries = 0 then s.ibtc_entries <- sized_entries t s;
  (* probe copies of one site share a table; a fresh table (new
     generation or a grown size step) restarts conflict detection *)
  let reuse =
    if
      s.ibtc_base_gen = env.Env.generation
      && s.ibtc_base_entries = s.ibtc_entries
    then Some s.ibtc_base
    else None
  in
  if reuse = None then begin
    Hashtbl.reset s.ibtc_step_seen;
    s.ibtc_repeats <- 0
  end;
  let base =
  Ibtc.emit_site
    ~on_miss:(fun ~target ->
      bump s.miss_targets target;
      s.ibtc_misses <- s.ibtc_misses + 1;
      (if s.tier = Site_ibtc then
         if Hashtbl.mem s.ibtc_step_seen target then begin
           (* a target missing again after insertion: conflict eviction.
              Enough of those and the table is too small — grow it, or,
              at the cap on a sieve-favored host (and for a site not
              pinned as megamorphic), switch to the sieve *)
           s.ibtc_repeats <- s.ibtc_repeats + 1;
           if s.ibtc_repeats >= t.acfg.Config.ibtc_promote_misses then
             if s.ibtc_entries < t.acfg.Config.site_ibtc_entries then begin
               s.ibtc_entries <-
                 min (4 * s.ibtc_entries) t.acfg.Config.site_ibtc_entries;
               respecialize t env s
             end
             else if sieve_favored env.Env.arch && not s.mega then
               promote t env s Site_sieve
             else s.ibtc_repeats <- 0
         end
         else Hashtbl.replace s.ibtc_step_seen target ());
      tick t env)
    ~entries:s.ibtc_entries ~seed:(learned_pairs env s) ?base:reuse
    t.sub_ibtc env ~tail:Env.Tail_jr
  in
  s.ibtc_base <- base;
  s.ibtc_base_gen <- env.Env.generation;
  s.ibtc_base_entries <- s.ibtc_entries;
  entry

and emit_sieve_body t env s =
  let sv =
    Sieve.create ~transient:true
      ~on_miss:(fun ~target ->
        bump s.miss_targets target;
        (match s.sieve with
        | Some sv
          when s.tier = Site_sieve
               && Sieve.max_chain sv >= t.acfg.Config.sieve_promote_chain ->
            promote t env s Full_dispatch
        | _ -> ());
        tick t env)
      env
      {
        Config.buckets = t.acfg.Config.site_sieve_buckets;
        insert_at_head = true;
      }
  in
  s.sieve <- Some sv;
  (* warm handoff: stub in everything the census already learned, so the
     fresh sieve re-pays neither the misses nor their context switches *)
  List.iter
    (fun (target, frag) -> Sieve.seed sv env ~target ~frag)
    (learned_pairs env s);
  Sieve.routine sv

and emit_dispatch_body t env s =
  let em = env.Env.em in
  let entry = Emitter.here em in
  Context.emit_save env;
  let restore = ref 0 in
  let gen = env.Env.generation in
  Env.emit_trap env ~code:Env.trap_adapt (fun m ~trap_pc:_ ->
      let stats = env.Env.stats in
      stats.Stats.dispatch_entries <- stats.Stats.dispatch_entries + 1;
      let target = Machine.reg m Reg.k0 in
      Env.observe env (Sdt_observe.Event.Dispatch_entry { target });
      s.dispatches <- s.dispatches + 1;
      s.win_events <- s.win_events + 1;
      bump s.win_targets target;
      (* the adaptive dispatch tier checks every transfer, like the
         static full-dispatch mechanism *)
      Env.cfi_validate env ~target;
      let frag = env.Env.ensure_translated target in
      Sdt_machine.Memory.store_word m.Machine.mem
        env.Env.layout.Layout.result_slot frag;
      Env.charge env
        (env.Env.arch.Arch.trap_cycles + env.Env.arch.Arch.lookup_cycles);
      tick t env;
      if env.Env.generation <> gen then
        m.Machine.pc <- env.Env.ensure_translated target
      else m.Machine.pc <- !restore);
  restore := Emitter.here em;
  Context.emit_restore_and_jump env ~tail:Env.Tail_jr;
  entry

and emit_tier_body t env s =
  let em = env.Env.em in
  let lo = Emitter.here em in
  s.sieve <- None;
  let entry =
    match s.tier with
    | Ic ->
        s.ic_bound <- None;
        emit_ic_body t env s
    | Site_ibtc -> emit_ibtc_body t env s
    | Site_sieve -> emit_sieve_body t env s
    | Full_dispatch -> emit_dispatch_body t env s
  in
  s.body <- entry;
  s.body_gen <- env.Env.generation;
  s.body_lo <- lo;
  s.body_hi <- Emitter.here em;
  Env.observe_region env ~lo ~hi:s.body_hi
    (Sdt_observe.Profile.Service ("adapt " ^ tier_name s.tier))

and patch_occurrences env s =
  let em = env.Env.em in
  let stats = env.Env.stats in
  let in_place = slot_eligible s.tier in
  List.iter
    (fun o ->
      if o.occ_gen = env.Env.generation then begin
        (* a slotted occurrence whose copy was just rewritten in place
           needs no transfer word — patching one in would overwrite its
           body copy's own head. A slotted occurrence of a tier that
           cannot be slotted has a stale copy: its head word becomes the
           transfer, killing the copy. *)
        (if (not o.occ_slot) || not in_place then
           match o.occ_tail with
           | Env.Tail_jr -> Emitter.patch em o.occ_at (j_to s.body)
           | Env.Tail_jalr_ra -> Emitter.patch em o.occ_at (jal_to s.body));
        s.repatches <- s.repatches + 1;
        stats.Stats.adapt_repatches <- stats.Stats.adapt_repatches + 1
      end)
    s.occurrences

(* Re-emit the site's tier logic for its (new) tier and redirect every
   live occurrence. Each slotted occurrence gets a fresh inline copy of
   the tier body rewritten into its slot in place — entry addresses are
   unchanged and the steady-state hit path keeps paying exactly what the
   static mechanism would. A canonical out-of-line body is emitted at
   the current emission point when anything still needs one: a plain
   occurrence's one-word transfer, or a tier that cannot be slotted
   (every slotted occurrence's head word then becomes a transfer to it,
   killing the stale copy; the slot region itself survives for the next
   transition back to a slottable tier). Emission can exhaust the code
   region; the flush then retires the site's fragments wholesale, and
   the body is re-emitted lazily at retranslation — nothing to patch. *)
and respecialize t env s =
  let em = env.Env.em in
  if s.body_gen = env.Env.generation then
    match
      let live o = o.occ_gen = env.Env.generation in
      let eligible = slot_eligible s.tier in
      let slotted = List.filter (fun o -> live o && o.occ_slot) s.occurrences in
      let plain = List.exists (fun o -> live o && not o.occ_slot) s.occurrences in
      let words = ref 0 in
      if eligible then
        List.iter
          (fun o ->
            Emitter.emit_in em ~at:o.occ_at
              ~limit:(o.occ_at + (4 * slot_words))
              (fun () ->
                emit_tier_body t env s;
                let n = (Emitter.here em - o.occ_at) / 4 in
                (* scrub the dead tail of the previous copy; the Nop
                   fill is a constant store, not re-encoding work, so
                   only the body words are charged below *)
                for _ = n + 1 to slot_words do Emitter.emit em Inst.Nop done;
                words := !words + n))
          slotted;
      if (not eligible) || plain || slotted = [] then begin
        let before = Emitter.here em in
        emit_tier_body t env s;
        words := !words + ((Emitter.here em - before) / 4)
      end;
      !words
    with
    | n ->
        Env.charge env (n * env.Env.arch.Arch.translate_per_inst);
        patch_occurrences env s
    | exception Emitter.Code_full -> env.Env.flush ()

and transition t env s ~promotion next =
  let stats = env.Env.stats in
  if promotion then
    stats.Stats.adapt_promotions <- stats.Stats.adapt_promotions + 1
  else stats.Stats.adapt_demotions <- stats.Stats.adapt_demotions + 1;
  Env.observe env
    (Sdt_observe.Event.Adapt_transition
       { site_pc = s.site_pc; tier = tier_name next; promotion });
  s.tier <- next;
  s.transitions <- (next, t.clock) :: s.transitions;
  respecialize t env s

and promote t env s next = transition t env s ~promotion:true next

(* The IC tier exhausted its rebind budget: the site is polymorphic and
   must pick its grown-up tier from the census. The sieve is chosen only
   when all three hold: the host rewards its hit path (see
   {!sieve_favored}), the target distribution is genuinely polymorphic
   (entropy at or above the cutover — a skewed distribution keeps the
   cheap IBTC), and the target set is not still growing fast (a high
   new-target rate means every new target would pay a sieve insertion's
   full context switch, which never amortises — such megamorphic sites
   are pinned to the IBTC for good). Everything else gets the per-site
   IBTC, sized from the census. *)
and promote_from_ic t env s =
  let counts = Hashtbl.fold (fun _ n acc -> n :: acc) s.miss_targets [] in
  let misses = List.fold_left ( + ) 0 counts in
  let distinct = List.length counts in
  let entropy = Profile.entropy_bits counts in
  let next =
    if sieve_favored env.Env.arch && entropy >= t.acfg.Config.poly_entropy_bits
    then begin
      s.mega <- 100 * distinct >= t.acfg.Config.mega_new_pct * misses;
      if s.mega then Site_ibtc else Site_sieve
    end
    else Site_ibtc
  in
  promote t env s next

and demote t env s =
  s.ic_bound <- None;
  s.ic_rebinds <- 0;
  Hashtbl.reset s.miss_targets;
  s.mega <- false;
  s.ibtc_entries <- 0;
  s.ibtc_misses <- 0;
  s.ibtc_repeats <- 0;
  Hashtbl.reset s.ibtc_step_seen;
  transition t env s ~promotion:false Ic

(* every adaptive miss/dispatch event advances the global clock; every
   demote_window events, full-dispatch sites whose recent targets were
   sufficiently monomorphic fall back to the inline cache. (The clock
   only advances on miss events, so a fully steady-state program never
   scans — an accepted limitation: nothing is misplaced enough to be
   generating events.) *)
and tick t env =
  t.clock <- t.clock + 1;
  if t.clock - t.last_scan >= t.acfg.Config.demote_window then begin
    t.last_scan <- t.clock;
    Hashtbl.iter
      (fun _ s ->
        if s.tier = Full_dispatch && s.win_events >= min_window_sample then begin
          let dominant =
            Hashtbl.fold (fun _ n acc -> max n acc) s.win_targets 0
          in
          if dominant * 100 >= t.acfg.Config.mono_share_pct * s.win_events
          then demote t env s;
          s.win_events <- 0;
          Hashtbl.reset s.win_targets
        end)
      t.sites
  end

(* ------------------------------------------------------------------ *)

(* Emit one inline slotted body copy at the current point: the tier
   body, Nop-padded out to the fixed slot capacity. Returns [false] (a
   plain, un-slotted occurrence) when the body overflows the slot — the
   copy still works, it just cannot be rewritten in place later. *)
let emit_slot_copy t env s ~occ_at =
  let em = env.Env.em in
  emit_tier_body t env s;
  let span = (Emitter.here em - occ_at) / 4 in
  let fits = span <= slot_words in
  if fits then
    for _ = span + 1 to slot_words do Emitter.emit em Inst.Nop done;
  fits

let emit_site t env ~site_pc ~tail =
  let em = env.Env.em in
  let s = site_of t ~site_pc in
  if s.body_gen <> env.Env.generation then begin
    (* First occurrence this generation: drop stale occurrences and
       emit the tier body here. A slot-eligible tier body (IC, IBTC)
       goes {e inline}, padded out to a fixed-capacity patchable slot
       whose head word doubles as the occurrence — the hit path pays
       nothing over the static mechanism, and tier transitions rewrite
       the slot in place. Other tiers (the sieve's entry is not its
       first emitted word; dispatch's context save is unbounded) sit out
       of line behind a one-word jump, patched once the body's entry is
       known. A Tail_jalr_ra occurrence must follow the body — the word
       after its [jal] is the site's return continuation, which the
       caller emits next — so the body is jumped over instead. *)
    s.occurrences <- [];
    if tail = Env.Tail_jr then begin
      let occ_at = Emitter.here em in
      let occ_slot =
        if slot_eligible s.tier then emit_slot_copy t env s ~occ_at
        else begin
          Emitter.emit em Inst.Nop;
          emit_tier_body t env s;
          Emitter.patch em occ_at (j_to s.body);
          false
        end
      in
      s.occurrences <-
        [ { occ_at; occ_tail = tail; occ_gen = env.Env.generation; occ_slot } ]
    end
    else begin
      let lskip = Emitter.fresh em in
      Emitter.jump_to em `J lskip;
      emit_tier_body t env s;
      Emitter.place em lskip;
      let occ_at = Emitter.here em in
      Emitter.jump_abs em `Jal s.body;
      s.occurrences <-
        [
          {
            occ_at;
            occ_tail = tail;
            occ_gen = env.Env.generation;
            occ_slot = false;
          };
        ]
    end
  end
  else begin
    (* A later occurrence of an already-emitted site — another fragment
       covering the same application branch. Slot-eligible tiers get a
       fresh inline copy of their own (IBTC probe copies share the
       per-site table, IC copies share the census counters), so every
       occurrence's hit path is the full-speed inline one; other tiers
       share the canonical body behind a one-word transfer. *)
    let occ_at = Emitter.here em in
    let occ_slot =
      if tail = Env.Tail_jr && slot_eligible s.tier then
        emit_slot_copy t env s ~occ_at
      else begin
        (match tail with
        | Env.Tail_jr -> Emitter.jump_abs em `J s.body
        | Env.Tail_jalr_ra -> Emitter.jump_abs em `Jal s.body);
        false
      end
    in
    s.occurrences <-
      { occ_at; occ_tail = tail; occ_gen = env.Env.generation; occ_slot }
      :: s.occurrences
  end

let on_flush t env =
  Ibtc.on_flush t.sub_ibtc env;
  Hashtbl.iter
    (fun _ s ->
      (* per-generation artifacts die with the code region; the tier and
         its cumulative counters survive, so the site re-enters at the
         tier it had earned *)
      s.body <- 0;
      s.body_gen <- -1;
      s.occurrences <- [];
      s.ibtc_base <- 0;
      s.ibtc_base_gen <- -1;
      s.sieve <- None;
      s.ic_bound <- None)
    t.sites

(* ------------------------------------------------------------------ *)

let tier_counts t =
  let ic = ref 0 and ib = ref 0 and sv = ref 0 and dp = ref 0 in
  Hashtbl.iter
    (fun _ s ->
      match s.tier with
      | Ic -> incr ic
      | Site_ibtc -> incr ib
      | Site_sieve -> incr sv
      | Full_dispatch -> incr dp)
    t.sites;
  (!ic, !ib, !sv, !dp)

let mech_stats t =
  let ic, ib, sv, dp = tier_counts t in
  [
    ("adapt_sites", float_of_int (Hashtbl.length t.sites));
    ("adapt_tier_ic", float_of_int ic);
    ("adapt_tier_ibtc", float_of_int ib);
    ("adapt_tier_sieve", float_of_int sv);
    ("adapt_tier_dispatch", float_of_int dp);
  ]

let site_info env s =
  {
    si_pc = s.site_pc;
    si_tier = tier_name s.tier;
    si_transitions =
      List.rev_map (fun (tier, at) -> (tier_name tier, at)) s.transitions;
    si_repatches = s.repatches;
    si_body =
      (if s.body_gen = env.Env.generation then Some (s.body_lo, s.body_hi)
       else None);
    si_occs =
      List.filter_map
        (fun o ->
          if o.occ_gen = env.Env.generation then Some o.occ_at else None)
        s.occurrences;
  }

let sites t env =
  Hashtbl.fold (fun _ s acc -> site_info env s :: acc) t.sites []
  |> List.sort (fun a b -> compare a.si_pc b.si_pc)

(* owning adaptive site of a fragment-cache address: inside the site's
   current tier body, one of its inline slotted body copies, or one of
   its one-word occurrence transfers *)
let site_at t env addr =
  let covers s =
    (s.body_gen = env.Env.generation && addr >= s.body_lo && addr < s.body_hi)
    || List.exists
         (fun o ->
           o.occ_gen = env.Env.generation
           && addr >= o.occ_at
           && addr < o.occ_at + (4 * if o.occ_slot then slot_words else 1))
         s.occurrences
  in
  Hashtbl.fold
    (fun _ s acc ->
      match acc with Some _ -> acc | None -> if covers s then Some (site_info env s) else None)
    t.sites None

let clock t = t.clock
