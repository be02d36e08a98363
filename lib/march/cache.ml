type config = {
  size_bytes : int;
  line_bytes : int;
  assoc : int;
  miss_penalty : int;
}

type t = {
  cfg : config;
  sets : int;
  line_shift : int;
  tags : int array;
      (* sets * assoc, -1 = invalid; each set's ways are kept
         most-recently-used first, so the last way is the LRU victim *)
  mutable hits : int;
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create cfg =
  if cfg.line_bytes <= 0 || not (is_pow2 cfg.line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  if cfg.assoc <= 0 then invalid_arg "Cache.create: assoc must be positive";
  let sets = cfg.size_bytes / (cfg.line_bytes * cfg.assoc) in
  if sets <= 0 || not (is_pow2 sets) then
    invalid_arg "Cache.create: set count must be a positive power of two";
  {
    cfg;
    sets;
    line_shift = log2 cfg.line_bytes;
    tags = Array.make (sets * cfg.assoc) (-1);
    hits = 0;
    misses = 0;
  }

let config t = t.cfg
let line_index t addr = addr lsr t.line_shift

(* Allocation-free: this runs once per simulated load/store (dcache)
   and per fetched line (icache). The way search is a [while] loop over
   a local ref, which the compiler keeps in a register; a local
   [let rec probe] would capture [tags]/[base]/[line] in a closure that
   (without flambda) is heap-allocated on every call. The indices stay
   in [0, sets*assoc) by construction (unsafe accesses).

   Exact LRU by position: a hit on way [w] (or a miss, as if on the last
   way, whose line is evicted) shifts ways [0, w) down by one and puts
   [line] at way 0. Invalid ways (-1) stay behind every valid way, so a
   set with a free way evicts a free way, as a victim scan would. *)
let access t addr =
  let line = addr lsr t.line_shift in
  let set = line land (t.sets - 1) in
  let assoc = t.cfg.assoc in
  let base = set * assoc in
  let tags = t.tags in
  if Array.unsafe_get tags base = line then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    let way = ref 1 in
    while !way < assoc && Array.unsafe_get tags (base + !way) <> line do
      incr way
    done;
    let hit = !way < assoc in
    if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
    let w = if hit then !way else assoc - 1 in
    for k = base + w downto base + 1 do
      Array.unsafe_set tags k (Array.unsafe_get tags (k - 1))
    done;
    Array.unsafe_set tags base line;
    hit
  end

let hits t = t.hits
let misses t = t.misses

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  t.hits <- 0;
  t.misses <- 0
