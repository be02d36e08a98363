module Arch = Sdt_march.Arch
module Cache = Sdt_march.Cache
module Config = Sdt_core.Config

(* bump when the canonical format (or anything it fails to capture)
   changes: stale on-disk cache entries must not survive the change *)
let version = "v2"

let cache_config = function
  | None -> "none"
  | Some { Cache.size_bytes; line_bytes; assoc; miss_penalty } ->
      Printf.sprintf "%d/%d/%d/%d" size_bytes line_bytes assoc miss_penalty

let arch (a : Arch.t) =
  Printf.sprintf
    "arch{%s;alu=%d;mul=%d;div=%d;mem=%d;br=%d;sys=%d;i$=%s;d$=%s;cond=%d/%d;btb=%d;ind=%d/%d;ras=%d/%d;trap=%d;tpi=%d;lk=%d;fm=%d;rrf=%b;ctx=%d}"
    a.Arch.name a.alu_cycles a.mul_cycles a.div_cycles a.mem_cycles
    a.branch_cycles a.syscall_cycles (cache_config a.icache)
    (cache_config a.dcache) a.cond_bits a.cond_mispredict a.btb_entries
    a.indirect_mispredict a.indirect_fixed a.ras_depth a.ras_mispredict
    a.trap_cycles a.translate_per_inst a.lookup_cycles a.fast_miss_cycles
    a.reserved_regs_free a.context_regs

let mechanism = function
  | Config.Dispatch -> "dispatch"
  | Config.Ibtc i ->
      Printf.sprintf "ibtc{n=%d;w=%d;sh=%b;ps=%d;miss=%s;hash=%s;inl=%b}"
        i.Config.entries i.ways i.shared i.per_site_entries
        (match i.miss with
        | Config.Full_switch -> "full"
        | Config.Fast_reload -> "fast")
        (match i.hash with
        | Config.Shift_mask -> "shift"
        | Config.Multiplicative -> "mult")
        i.inline_lookup
  | Config.Sieve s ->
      Printf.sprintf "sieve{b=%d;head=%b}" s.Config.buckets s.insert_at_head
  | Config.Adaptive a ->
      Printf.sprintf "adapt{ic=%d;e=%g;mega=%d;ibtc=%d/%d;sieve=%d/%d;w=%d;mono=%d}"
        a.Config.ic_rebinds a.poly_entropy_bits a.mega_new_pct
        a.site_ibtc_entries a.ibtc_promote_misses a.site_sieve_buckets
        a.sieve_promote_chain a.demote_window a.mono_share_pct

let returns = function
  | Config.As_ib -> "as-ib"
  | Config.Return_cache { entries } -> Printf.sprintf "retcache=%d" entries
  | Config.Shadow_stack { depth } -> Printf.sprintf "shadow=%d" depth
  | Config.Fast_return -> "fastret"

let spill = function
  | Config.Spill_auto -> "auto"
  | Config.Spill_always -> "always"
  | Config.Spill_never -> "never"

let config (c : Config.t) =
  Printf.sprintf
    "cfg{%s;ret=%s;pred=%d;link=%b;traces=%b;spill=%s;blk=%d;cap=%d;memops=%b;profib=%b;cfi=%s}"
    (mechanism c.Config.mech) (returns c.returns) c.pred_depth c.link_direct
    c.follow_direct_jumps (spill c.spill) c.block_limit c.code_capacity
    c.count_memops c.profile_ib_sites (Config.cfi_name c.cfi)

let cell ~key ~arch:a ~cfg =
  Printf.sprintf "%s|%s|%s|%s" version key (arch a)
    (match cfg with None -> "native" | Some c -> config c)

let digest s = Digest.to_hex (Digest.string s)
