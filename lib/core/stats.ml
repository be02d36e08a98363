type t = {
  mutable blocks_translated : int;
  mutable insts_translated : int;
  mutable links : int;
  mutable dispatch_entries : int;
  mutable ibtc_misses_full : int;
  mutable ibtc_misses_fast : int;
  mutable ibtc_tables : int;
  mutable sieve_misses : int;
  mutable sieve_stubs : int;
  mutable retcache_fallbacks : int;
  mutable shadow_fallbacks : int;
  mutable pred_fills : int;
  mutable pred_exhausted_sites : int;
  mutable flushes : int;
  mutable ib_sites : int;
  mutable adapt_promotions : int;
  mutable adapt_demotions : int;
  mutable adapt_repatches : int;
  mutable dedup_hits : int;
  mutable service_evictions : int;
  mutable cfi_checks : int;
  mutable cfi_validations : int;
  mutable cfi_violations : int;
  mutable cfi_xcalls : int;
}

let create () =
  {
    blocks_translated = 0;
    insts_translated = 0;
    links = 0;
    dispatch_entries = 0;
    ibtc_misses_full = 0;
    ibtc_misses_fast = 0;
    ibtc_tables = 0;
    sieve_misses = 0;
    sieve_stubs = 0;
    retcache_fallbacks = 0;
    shadow_fallbacks = 0;
    pred_fills = 0;
    pred_exhausted_sites = 0;
    flushes = 0;
    ib_sites = 0;
    adapt_promotions = 0;
    adapt_demotions = 0;
    adapt_repatches = 0;
    dedup_hits = 0;
    service_evictions = 0;
    cfi_checks = 0;
    cfi_validations = 0;
    cfi_violations = 0;
    cfi_xcalls = 0;
  }

(* The one list of counters: every name once, with its accessors.
   Reset, the machine-readable form and its inverse all iterate it, so
   adding a counter is a record field, its zero in [create] and one
   entry here. *)
let fields : (string * (t -> int) * (t -> int -> unit)) list =
  [
    ( "blocks_translated", (fun t -> t.blocks_translated),
      fun t v -> t.blocks_translated <- v );
    ( "insts_translated", (fun t -> t.insts_translated),
      fun t v -> t.insts_translated <- v );
    ("links", (fun t -> t.links), fun t v -> t.links <- v);
    ( "dispatch_entries", (fun t -> t.dispatch_entries),
      fun t v -> t.dispatch_entries <- v );
    ( "ibtc_misses_full", (fun t -> t.ibtc_misses_full),
      fun t v -> t.ibtc_misses_full <- v );
    ( "ibtc_misses_fast", (fun t -> t.ibtc_misses_fast),
      fun t v -> t.ibtc_misses_fast <- v );
    ("ibtc_tables", (fun t -> t.ibtc_tables), fun t v -> t.ibtc_tables <- v);
    ("sieve_misses", (fun t -> t.sieve_misses), fun t v -> t.sieve_misses <- v);
    ("sieve_stubs", (fun t -> t.sieve_stubs), fun t v -> t.sieve_stubs <- v);
    ( "retcache_fallbacks", (fun t -> t.retcache_fallbacks),
      fun t v -> t.retcache_fallbacks <- v );
    ( "shadow_fallbacks", (fun t -> t.shadow_fallbacks),
      fun t v -> t.shadow_fallbacks <- v );
    ("pred_fills", (fun t -> t.pred_fills), fun t v -> t.pred_fills <- v);
    ( "pred_exhausted_sites", (fun t -> t.pred_exhausted_sites),
      fun t v -> t.pred_exhausted_sites <- v );
    ("flushes", (fun t -> t.flushes), fun t v -> t.flushes <- v);
    ("ib_sites", (fun t -> t.ib_sites), fun t v -> t.ib_sites <- v);
    ( "adapt_promotions", (fun t -> t.adapt_promotions),
      fun t v -> t.adapt_promotions <- v );
    ( "adapt_demotions", (fun t -> t.adapt_demotions),
      fun t v -> t.adapt_demotions <- v );
    ( "adapt_repatches", (fun t -> t.adapt_repatches),
      fun t v -> t.adapt_repatches <- v );
    ("dedup_hits", (fun t -> t.dedup_hits), fun t v -> t.dedup_hits <- v);
    ( "service_evictions", (fun t -> t.service_evictions),
      fun t v -> t.service_evictions <- v );
    ("cfi_checks", (fun t -> t.cfi_checks), fun t v -> t.cfi_checks <- v);
    ( "cfi_validations", (fun t -> t.cfi_validations),
      fun t v -> t.cfi_validations <- v );
    ( "cfi_violations", (fun t -> t.cfi_violations),
      fun t v -> t.cfi_violations <- v );
    ("cfi_xcalls", (fun t -> t.cfi_xcalls), fun t v -> t.cfi_xcalls <- v);
  ]

let reset t = List.iter (fun (_, _, set) -> set t 0) fields

let total_ib_misses t =
  t.dispatch_entries + t.ibtc_misses_full + t.ibtc_misses_fast + t.sieve_misses
  + t.retcache_fallbacks + t.shadow_fallbacks

let to_assoc t = List.map (fun (name, get, _) -> (name, get t)) fields

let of_assoc kvs =
  let t = create () in
  List.iter
    (fun (name, _, set) -> Option.iter (set t) (List.assoc_opt name kvs))
    fields;
  t

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "%s: %d" name v)
    (to_assoc t);
  Format.fprintf ppf "@]"
