type ibtc_miss_policy = Full_switch | Fast_reload
type ibtc_hash = Shift_mask | Multiplicative

type ibtc = {
  entries : int;
  ways : int;
  shared : bool;
  per_site_entries : int;
  miss : ibtc_miss_policy;
  hash : ibtc_hash;
  inline_lookup : bool;
}

type sieve = { buckets : int; insert_at_head : bool }

type adaptive = {
  ic_rebinds : int;
  poly_entropy_bits : float;
  site_ibtc_entries : int;
  ibtc_promote_misses : int;
  site_sieve_buckets : int;
  sieve_promote_chain : int;
  demote_window : int;
  mono_share_pct : int;
  mega_new_pct : int;
}

type mechanism = Dispatch | Ibtc of ibtc | Sieve of sieve | Adaptive of adaptive

type return_policy =
  | As_ib
  | Return_cache of { entries : int }
  | Shadow_stack of { depth : int }
  | Fast_return

type spill_mode = Spill_auto | Spill_always | Spill_never

type cfi_policy =
  | Cfi_none
  | Cfi_shepherd
  | Cfi_landing_pad
  | Cfi_compartment of { count : int }
  | Ret_integrity

let cfi_name = function
  | Cfi_none -> "none"
  | Cfi_shepherd -> "shepherd"
  | Cfi_landing_pad -> "landing_pad"
  | Cfi_compartment { count } -> Printf.sprintf "compartment:%d" count
  | Ret_integrity -> "ret_integrity"

let cfi_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "" | "none" | "off" -> Ok Cfi_none
  | "shepherd" -> Ok Cfi_shepherd
  | "landing_pad" | "landing-pad" | "pad" -> Ok Cfi_landing_pad
  | "ret_integrity" | "ret-integrity" | "ret" -> Ok Ret_integrity
  | "compartment" | "comp" -> Ok (Cfi_compartment { count = 8 })
  | s -> (
      let comp prefix =
        if String.length s > String.length prefix + 1
           && String.sub s 0 (String.length prefix + 1) = prefix ^ ":"
        then
          let tail =
            String.sub s
              (String.length prefix + 1)
              (String.length s - String.length prefix - 1)
          in
          int_of_string_opt tail
        else None
      in
      match (comp "compartment", comp "comp") with
      | Some count, _ | _, Some count -> Ok (Cfi_compartment { count })
      | None, None ->
          Error
            (Printf.sprintf
               "unknown CFI policy %S (want \
                none|shepherd|landing_pad|compartment[:K]|ret_integrity)"
               s))

(* the SDT_CFI environment variable retargets [default]/[baseline] so an
   unmodified test suite can be swept policy-enabled (mirrors how the
   harness's SDT_EXEC_MODE sweeps the interpreters); a bad value fails
   loudly rather than silently running unprotected. This runs at module
   init, before any main can catch, so report cleanly and exit 2. *)
let cfi_from_env =
  match Sys.getenv_opt "SDT_CFI" with
  | None | Some "" -> Cfi_none
  | Some s -> (
      match cfi_of_string s with
      | Ok p -> p
      | Error msg ->
          prerr_endline ("SDT_CFI: " ^ msg);
          exit 2)

type t = {
  mech : mechanism;
  returns : return_policy;
  pred_depth : int;
  link_direct : bool;
  follow_direct_jumps : bool;
  spill : spill_mode;
  block_limit : int;
  code_capacity : int;
  count_memops : bool;
  profile_ib_sites : bool;
  cfi : cfi_policy;
}

let default_ibtc =
  {
    entries = 4096;
    ways = 1;
    shared = true;
    per_site_entries = 64;
    miss = Fast_reload;
    hash = Shift_mask;
    inline_lookup = true;
  }

let default_sieve = { buckets = 4096; insert_at_head = true }

let default_adaptive =
  {
    ic_rebinds = 16;
    poly_entropy_bits = 3.0;
    site_ibtc_entries = 4096;
    ibtc_promote_misses = 16;
    site_sieve_buckets = 4096;
    sieve_promote_chain = 24;
    demote_window = 4096;
    mono_share_pct = 90;
    mega_new_pct = 80;
  }

let default =
  {
    mech = Ibtc default_ibtc;
    returns = Return_cache { entries = 4096 };
    pred_depth = 0;
    link_direct = true;
    follow_direct_jumps = false;
    spill = Spill_auto;
    block_limit = 64;
    code_capacity = 0x0050_0000;
    count_memops = false;
    profile_ib_sites = false;
    cfi = cfi_from_env;
  }

let baseline =
  {
    mech = Dispatch;
    returns = As_ib;
    pred_depth = 0;
    link_direct = true;
    follow_direct_jumps = false;
    spill = Spill_auto;
    block_limit = 64;
    code_capacity = 0x0050_0000;
    count_memops = false;
    profile_ib_sites = false;
    cfi = cfi_from_env;
  }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let validate t =
  let ( let* ) r f = Result.bind r f in
  let ensure cond msg = if cond then Ok () else Error msg in
  let* () =
    match t.mech with
    | Dispatch -> Ok ()
    | Ibtc i ->
        let* () = ensure (is_pow2 i.entries) "ibtc entries must be a power of two" in
        let* () = ensure (i.ways = 1 || i.ways = 2) "ibtc ways must be 1 or 2" in
        let* () =
          ensure (i.entries >= 4 * i.ways) "ibtc entries too small for ways"
        in
        let* () =
          ensure (i.entries >= 4 && i.entries <= 1 lsl 16)
            "ibtc entries must be in [4, 65536] (16-bit mask immediates)"
        in
        ensure
          (i.shared
          || (is_pow2 i.per_site_entries
             && i.per_site_entries >= 4
             && i.per_site_entries <= 1 lsl 16))
          "per-site ibtc entries must be a power of two in [4, 65536]"
    | Sieve s ->
        let* () = ensure (is_pow2 s.buckets) "sieve buckets must be a power of two" in
        ensure
          (s.buckets >= 4 && s.buckets <= 1 lsl 16)
          "sieve buckets must be in [4, 65536] (16-bit mask immediates)"
    | Adaptive a ->
        let* () = ensure (a.ic_rebinds >= 0) "adaptive ic_rebinds must be >= 0" in
        let* () =
          ensure (a.poly_entropy_bits >= 0.0)
            "adaptive poly_entropy_bits must be >= 0"
        in
        let* () =
          ensure
            (is_pow2 a.site_ibtc_entries
            && a.site_ibtc_entries >= 4
            && a.site_ibtc_entries <= 1 lsl 16)
            "adaptive site_ibtc_entries must be a power of two in [4, 65536]"
        in
        let* () =
          ensure
            (is_pow2 a.site_sieve_buckets
            && a.site_sieve_buckets >= 4
            && a.site_sieve_buckets <= 1 lsl 16)
            "adaptive site_sieve_buckets must be a power of two in [4, 65536]"
        in
        let* () =
          ensure (a.ibtc_promote_misses > 0)
            "adaptive ibtc_promote_misses must be positive"
        in
        let* () =
          ensure (a.sieve_promote_chain > 0)
            "adaptive sieve_promote_chain must be positive"
        in
        let* () =
          ensure (a.demote_window > 0) "adaptive demote_window must be positive"
        in
        let* () =
          ensure
            (a.mono_share_pct >= 50 && a.mono_share_pct <= 100)
            "adaptive mono_share_pct must be in [50, 100]"
        in
        ensure
          (a.mega_new_pct >= 1 && a.mega_new_pct <= 100)
          "adaptive mega_new_pct must be in [1, 100]"
  in
  let* () =
    match t.returns with
    | As_ib | Fast_return -> Ok ()
    | Return_cache { entries } ->
        ensure
          (is_pow2 entries && entries >= 4 && entries <= 1 lsl 16)
          "return cache entries must be a power of two in [4, 65536]"
    | Shadow_stack { depth } ->
        ensure (depth > 0 && depth <= 1 lsl 16) "shadow stack depth out of range"
  in
  let* () =
    match t.cfi with
    | Cfi_none | Cfi_landing_pad -> Ok ()
    | Cfi_shepherd | Ret_integrity ->
        (* these policies police returns in the translator *)
        ensure (t.returns <> Fast_return)
          (Printf.sprintf
             "the %s policy cannot police fast returns (they bypass the \
              translator)"
             (cfi_name t.cfi))
    | Cfi_compartment { count } ->
        ensure (count >= 1 && count <= 256)
          "cfi compartment count must be in [1, 256]"
  in
  let* () = ensure (t.pred_depth >= 0 && t.pred_depth <= 4) "pred_depth in [0,4]" in
  let* () = ensure (t.block_limit >= 1) "block_limit must be positive" in
  ensure (t.code_capacity >= 0x400) "code_capacity too small"

let describe t =
  let mech =
    match t.mech with
    | Dispatch -> "dispatch"
    | Ibtc i ->
        Printf.sprintf "ibtc(%s%s,%s,%s,%s)"
          (if i.shared then string_of_int i.entries
           else Printf.sprintf "per-site:%d" i.per_site_entries)
          (if i.ways = 2 then ",2way" else "")
          (if i.shared then "shared" else "per-branch")
          (match i.miss with Full_switch -> "full" | Fast_reload -> "fast")
          (if i.inline_lookup then "inline" else "routine")
    | Sieve s ->
        Printf.sprintf "sieve(%d,%s)" s.buckets
          (if s.insert_at_head then "head" else "tail")
    | Adaptive a ->
        Printf.sprintf
          "adaptive(ic:%d,e:%g,mega:%d%%,ibtc:%d/%d,sieve:%d/%d,w:%d/%d%%)"
          a.ic_rebinds a.poly_entropy_bits a.mega_new_pct a.site_ibtc_entries
          a.ibtc_promote_misses a.site_sieve_buckets a.sieve_promote_chain
          a.demote_window a.mono_share_pct
  in
  let ret =
    match t.returns with
    | As_ib -> "ret:as-ib"
    | Return_cache { entries } -> Printf.sprintf "ret:cache(%d)" entries
    | Shadow_stack { depth } -> Printf.sprintf "ret:shadow(%d)" depth
    | Fast_return -> "ret:fast"
  in
  let pred = if t.pred_depth > 0 then Printf.sprintf "+pred%d" t.pred_depth else "" in
  let link = if t.link_direct then "" else "+nolink" in
  let trace = if t.follow_direct_jumps then "+traces" else "" in
  let instr = if t.count_memops then "+count-memops" else "" in
  let cfi =
    match t.cfi with
    | Cfi_none -> ""
    | Cfi_shepherd -> "+cfi:shepherd"
    | Cfi_landing_pad -> "+cfi:pad"
    | Cfi_compartment { count } -> Printf.sprintf "+cfi:comp%d" count
    | Ret_integrity -> "+cfi:ret"
  in
  mech ^ "+" ^ ret ^ pred ^ link ^ trace ^ instr ^ cfi
