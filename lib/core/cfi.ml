module Inst = Sdt_isa.Inst
module Reg = Sdt_isa.Reg
module Arch = Sdt_march.Arch
module Machine = Sdt_machine.Machine
module Memory = Sdt_machine.Memory

type t = {
  policy : Config.cfi_policy;
  text_lo : int;
  text_hi : int;  (* exclusive *)
  comp_count : int;  (* 0 when compartments are off *)
  pad_words : int;  (* 4 for pad-emitting policies, 0 otherwise *)
  members : (int, unit) Hashtbl.t;  (* TOFU-admitted indirect targets *)
  entry_points : (int, unit) Hashtbl.t;  (* statically named transfer targets *)
  bodies : (int, unit) Hashtbl.t;  (* current-generation fragment body entries *)
  viol_at : (int, int) Hashtbl.t;  (* application PC -> violations recorded *)
  mutable host_checks : int;
  mutable host_rejects : int;
  check_cycles : int;  (* per membership test *)
  validate_cycles : int;  (* extra charge on first-use admission *)
  mediate_cycles : int;  (* extra charge per cross-compartment transfer *)
}

exception Violation of { site_pc : int; target : int }

let policy t = t.policy

let note t key =
  Hashtbl.replace t.viol_at key
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.viol_at key))

let violations_at t pc = Option.value ~default:0 (Hashtbl.find_opt t.viol_at pc)

let violation_sites t =
  Hashtbl.fold (fun pc n acc -> (pc, n) :: acc) t.viol_at []
  |> List.sort compare

(* the hard safety predicate: a word-aligned text address. Failing it is
   unrecoverable (the value cannot name application code at all). *)
let hard_ok t target =
  target land 3 = 0 && target >= t.text_lo && target < t.text_hi

let compartment_of t addr =
  if t.comp_count = 0 || not (hard_ok t addr) then None
  else
    let span = t.text_hi - t.text_lo in
    Some (min (t.comp_count - 1) ((addr - t.text_lo) * t.comp_count / span))

(* the transferring site recorded by the compartment site stage; 0 when
   no compartment policy is active or no IB site has executed yet *)
let read_site _t env =
  let slot = env.Env.layout.Layout.cfi_slot in
  if slot = 0 then 0 else Memory.load_word env.Env.machine.Machine.mem slot

(* J/Jal region-relative word index to an absolute byte address *)
let region_target pc idx = ((pc + 4) land 0xF000_0000) lor (idx lsl 2)

(* Pre-seed membership and the entry-point set with every statically
   named transfer target: direct jump/call destinations, call-return
   continuations, address-taken code addresses, and the program entry.
   These targets are named in the text, so admitting them costs nothing
   at runtime; only computed targets never named anywhere pay first-use
   validation. Address-taken detection matches the assembler's [la]/
   [li32] idiom — a [lui] whose immediate is completed by an [ori] into
   the same register, forming a word-aligned text address — which is how
   function pointers reach capability tables; production CFI passes
   treat address-taken functions as valid entry points the same way. *)
let pre_seed t env ~entry =
  let mem = env.Env.machine.Machine.mem in
  let add a =
    if hard_ok t a then begin
      Hashtbl.replace t.members a ();
      Hashtbl.replace t.entry_points a ()
    end
  in
  add entry;
  let pc = ref t.text_lo in
  while !pc < t.text_hi do
    (match Memory.fetch mem !pc with
    | Inst.J idx -> add (region_target !pc idx)
    | Inst.Jal idx ->
        add (region_target !pc idx);
        add (!pc + 4)
    | Inst.Jalr _ -> add (!pc + 4)
    | Inst.Lui (rd, hi) when !pc + 4 < t.text_hi -> (
        match Memory.fetch mem (!pc + 4) with
        | Inst.Ori (rd', rs', lo) when rd' = rd && rs' = rd ->
            add ((hi lsl 16) lor (lo land 0xFFFF))
        | _ -> ())
    | _ -> ());
    pc := !pc + 4
  done

let create env ~text_lo ~text_hi ~entry =
  let cfg = env.Env.cfg in
  let arch = env.Env.arch in
  let policy = cfg.Config.cfi in
  let comp_count =
    match policy with
    | Config.Cfi_compartment { count } -> count
    | _ -> 0
  in
  let pad_words =
    match policy with
    | Config.Cfi_landing_pad | Config.Cfi_compartment _ -> 4
    | Config.Cfi_none | Config.Cfi_shepherd | Config.Ret_integrity -> 0
  in
  (* shepherding only range-checks translator lookups: it keeps no
     membership, entry-point or body sets *)
  let lookup_only = policy = Config.Cfi_shepherd in
  let table n = Hashtbl.create (if lookup_only then 1 else n) in
  if comp_count > 0 && env.Env.layout.Layout.cfi_slot = 0 then
    env.Env.layout.Layout.cfi_slot <- Layout.alloc env.Env.layout ~bytes:4;
  let t =
    {
      policy;
      text_lo;
      text_hi;
      comp_count;
      pad_words;
      members = table 1024;
      entry_points = table 256;
      bodies = table 1024;
      viol_at = Hashtbl.create 16;
      host_checks = 0;
      host_rejects = 0;
      check_cycles = max 1 (arch.Arch.lookup_cycles / 2);
      validate_cycles = arch.Arch.trap_cycles + arch.Arch.lookup_cycles;
      mediate_cycles = arch.Arch.lookup_cycles;
    }
  in
  if not lookup_only then pre_seed t env ~entry;
  t

(* The hard-predicate check every policy applies to translator lookups
   (and [validate] to miss-path targets): a failure is counted,
   attributed to the recorded site (or the target when no site is
   known) and aborts the transfer. *)
let check t env ~target =
  if not (hard_ok t target) then begin
    let stats = env.Env.stats in
    stats.Stats.cfi_violations <- stats.Stats.cfi_violations + 1;
    let site = read_site t env in
    note t (if site <> 0 then site else target);
    raise (Violation { site_pc = site; target })
  end

(* The landing pad (4 words), emitted at the top of every fragment:

     li32  $at, app_pc
     beq   $at, $k0, +1     ; claimed target matches: fall into the body
     trap  cfi              ; mismatch: count, re-route or raise

   Every indirect delivery enters here with the claimed application
   target in $k0 (mechanism hit paths restore it in their spill
   epilogue; the dispatch context restore reloads it); direct transfers
   are statically verified and patched to [Env.body_entry]. A mismatch
   means some mechanism cached a stale or forged mapping: the handler
   counts the violation and hands the claimed target back to the
   translator, whose own pad then verifies it for real. *)
let emit_pad t env ~app_pc =
  if t.pad_words = 0 then ()
  else begin
  let em = env.Env.em in
  let frag = Emitter.here em in
  Env.observing_emit env "cfi pad" (fun () ->
      Emitter.li32 em Reg.at app_pc;
      Emitter.emit em (Inst.Beq (Reg.at, Reg.k0, 1));
      Env.emit_trap env ~code:Env.trap_cfi (fun m ~trap_pc:_ ->
          let claimed = Machine.reg m Reg.k0 in
          env.Env.stats.Stats.cfi_violations <-
            env.Env.stats.Stats.cfi_violations + 1;
          let site = read_site t env in
          note t (if site <> 0 then site else app_pc);
          if not (hard_ok t claimed) then
            raise (Violation { site_pc = site; target = claimed });
          Env.charge env
            (env.Env.arch.Arch.trap_cycles + env.Env.arch.Arch.lookup_cycles);
          m.Machine.pc <- env.Env.ensure_translated claimed));
  Hashtbl.replace t.bodies (frag + (4 * t.pad_words)) ()
  end

(* The compartment site stage (5 words), emitted between the profiling
   stage and the mechanism stage of every IB site: record the
   transferring site so the monitor can attribute the transfer.

     li32  $k1, cfi_slot
     li32  $at, site_pc
     sw    $at, 0($k1)

   This is the per-transfer cost of source identification that the
   landing-pad policy avoids. *)
let emit_site t env ~site_pc ~kind:_ =
  if t.comp_count > 0 then begin
    let em = env.Env.em in
    Env.observing_emit env "cfi site" (fun () ->
        Emitter.li32 em Reg.k1 env.Env.layout.Layout.cfi_slot;
        Emitter.li32 em Reg.at site_pc;
        Emitter.emit em (Inst.Sw (Reg.at, Reg.k1, 0)))
  end

(* Host-side membership validation — the one interface every mechanism's
   miss path calls before caching, patching or stubbing a new target.
   Hit paths never come here: that is the elision F12 measures. Full
   dispatch calls it on every transfer (its handler is its miss path). *)
let validate t env ~target =
  let stats = env.Env.stats in
  stats.Stats.cfi_checks <- stats.Stats.cfi_checks + 1;
  Env.charge env t.check_cycles;
  check t env ~target;
  if not (Hashtbl.mem t.members target) then begin
    (* trust-on-first-use admission: charge the full monitor entry *)
    Hashtbl.replace t.members target ();
    stats.Stats.cfi_validations <- stats.Stats.cfi_validations + 1;
    Env.charge env t.validate_cycles
  end;
  if t.comp_count > 0 then begin
    let site = read_site t env in
    match (compartment_of t site, compartment_of t target) with
    | Some cs, Some ct when cs <> ct ->
        (* mediated cross-compartment transfer, in the spirit of the
           RiscMachine cross-component jump monitor: always charged,
           audited against the statically named entry points *)
        stats.Stats.cfi_xcalls <- stats.Stats.cfi_xcalls + 1;
        Env.charge env t.mediate_cycles;
        if not (Hashtbl.mem t.entry_points target) then begin
          stats.Stats.cfi_violations <- stats.Stats.cfi_violations + 1;
          note t site
        end
    | _ -> ()
  end

let ret_violation t env ~site_pc =
  let stats = env.Env.stats in
  stats.Stats.cfi_violations <- stats.Stats.cfi_violations + 1;
  note t site_pc

(* Host fast paths (block-tier MRU chain links) must not link past a
   landing pad into a fragment body: the pad is the policy's
   verification point. The guard refuses to cache such an edge — the
   transfer still happens through the normal trap path, where the pad
   counts any real violation, so refusals are bookkeeping, not
   violations. It never fires on benign edges: cached
   indirect targets are fragment addresses (pad entries), and interior
   labels (sieve/retcache resume points) are never body entries. *)
let link_guard t _env =
  if t.pad_words = 0 then None
  else
    Some
      (fun target ->
        t.host_checks <- t.host_checks + 1;
        if Hashtbl.mem t.bodies target then begin
          t.host_rejects <- t.host_rejects + 1;
          false
        end
        else true)

let on_flush t = Hashtbl.reset t.bodies

let install t env =
  (* shepherding has no emission or miss-path stage: its one check is
     the runtime's translator-lookup [check] *)
  if t.policy <> Config.Cfi_shepherd then
    env.Env.cfi <-
      Some
        {
          Env.cf_policy = t.policy;
          cf_pad_words = t.pad_words;
          cf_emit_pad = (fun env ~app_pc -> emit_pad t env ~app_pc);
          cf_emit_site =
            (fun env ~site_pc ~kind -> emit_site t env ~site_pc ~kind);
          cf_validate = (fun env ~target -> validate t env ~target);
          cf_ret_violation =
            (fun env ~site_pc -> ret_violation t env ~site_pc);
        }

let report t =
  [
    ("members", Hashtbl.length t.members);
    ("entry_points", Hashtbl.length t.entry_points);
    ("host_checks", t.host_checks);
    ("host_rejects", t.host_rejects);
  ]
