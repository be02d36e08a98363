module Word = Sdt_isa.Word
module Inst = Sdt_isa.Inst
module Decode = Sdt_isa.Decode

exception Fault of { addr : int; kind : string }

(* The decode cache uses [Inst.Illegal (-1)] as the "not decoded yet"
   sentinel: {!Decode.inst} only ever produces [Illegal w] with
   [0 <= w < 2^32], so the sentinel cannot collide with a real decoding. *)
let not_cached = Inst.Illegal (-1)

(* Both the bytes and the decode cache are paged and lazily
   allocated: a 10 MiB machine touches only its text, data, stack and
   fragment/table pages, yet zeroing the whole store up front cost
   more than a short translated run. A byte page is [page_size] bytes
   and holds exactly the [chunk_words] words of one decode chunk, so
   one index ([addr lsr page_bits] = [widx lsr chunk_bits]) serves
   both. Every byte page starts as the shared, read-only [zero_page];
   loads read through it and the first store to a page replaces it
   with a private copy ({!page_for_write}), so the shared page is never
   written. [no_chunk] (the shared empty array) marks a decode chunk no
   fetch has touched. *)
let chunk_bits = 10
let chunk_words = 1 lsl chunk_bits
let chunk_mask = chunk_words - 1
let no_chunk : Inst.t array = [||]
let page_bits = chunk_bits + 2
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let zero_page = Bytes.make page_size '\000'

type t = {
  size : int;
  pages : Bytes.t array; (* indexed by addr lsr page_bits *)
  decoded : Inst.t array array; (* indexed by word number lsr chunk_bits *)
  (* Block-cache invalidation feed: bumped whenever a store overwrites
     a word whose decoding is currently cached. Every word a decoded
     block spans has a live decode-cache entry (block decoding goes
     through {!fetch}), so any store into code some block covers bumps
     the generation and the block cache lazily re-decodes — stores to
     never-fetched words (ordinary data, or the SDT emitting a fresh
     fragment) leave it untouched. *)
  code_gen : int ref;
}

let fault addr kind = raise (Fault { addr; kind })

let create ~size_bytes =
  let size = (size_bytes + 3) land lnot 3 in
  let npages = (size + page_mask) lsr page_bits in
  {
    size;
    pages = Array.make npages zero_page;
    decoded = Array.make npages no_chunk;
    code_gen = ref 1;
  }

let size t = t.size
let code_gen t = !(t.code_gen)

(* The generation lives in a shared cell so the block compiler's store
   guards and chain-link validations read it with one dereference
   instead of a cross-module accessor call per check. *)
let code_gen_ref t = t.code_gen

(* Invalidate the cached decoding of word [widx] after a store; if
   there was one, some decoded block may span this word, so bump the
   generation. A store to a word in a never-fetched chunk (ordinary
   data) costs one array read. *)
let[@inline] note_store t widx =
  let ch = Array.unsafe_get t.decoded (widx lsr chunk_bits) in
  if ch != no_chunk then begin
    let i = widx land chunk_mask in
    if Array.unsafe_get ch i != not_cached then begin
      Array.unsafe_set ch i not_cached;
      incr t.code_gen
    end
  end

(* The one way a page becomes writable: the first store to a page
   still on [zero_page] gives it a private zeroed copy. *)
let[@inline never] materialise t pi =
  let fresh = Bytes.make page_size '\000' in
  Array.unsafe_set t.pages pi fresh;
  fresh

let[@inline] page_for_write t pi =
  let p = Array.unsafe_get t.pages pi in
  if p != zero_page then p else materialise t pi

let check_word t addr kind =
  if addr land 3 <> 0 then fault addr "align";
  if addr < 0 || addr + 4 > t.size then fault addr kind

(* Guest memory is little-endian; move aligned words with one 32-bit
   access (bounds already established by [check_word]; an aligned word
   never straddles a page) instead of four byte moves. The unsafe
   32-bit primitives read/write native order, so byte-swap on a
   big-endian host. Each branch below is a straight-line chain of
   int32 primitives: the compiler keeps the intermediate int32
   unboxed, which an [if]-join of int32 values would defeat — loads
   and stores are the hottest ops in the system, and a boxed int32 per
   access would churn the minor heap. *)
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] get_le32 p off =
  if Sys.big_endian then Int32.to_int (swap32 (get32u p off)) land 0xFFFF_FFFF
  else Int32.to_int (get32u p off) land 0xFFFF_FFFF

let load_word t addr =
  check_word t addr "load";
  get_le32
    (Array.unsafe_get t.pages (addr lsr page_bits))
    (addr land page_mask)

let store_word t addr w =
  check_word t addr "store";
  let p = page_for_write t (addr lsr page_bits) and off = addr land page_mask in
  if Sys.big_endian then set32u p off (swap32 (Int32.of_int w))
  else set32u p off (Int32.of_int w);
  note_store t (addr lsr 2)

let check_byte t addr kind =
  if addr < 0 || addr >= t.size then fault addr kind

let[@inline] get_byte t addr =
  Char.code
    (Bytes.unsafe_get
       (Array.unsafe_get t.pages (addr lsr page_bits))
       (addr land page_mask))

let load_byte_u t addr =
  check_byte t addr "load";
  get_byte t addr

let load_byte_s t addr = Word.sext8 (load_byte_u t addr)

let store_byte t addr v =
  check_byte t addr "store";
  Bytes.unsafe_set
    (page_for_write t (addr lsr page_bits))
    (addr land page_mask)
    (Char.unsafe_chr (v land 0xFF));
  note_store t (addr lsr 2)

let fetch t addr =
  check_word t addr "fetch";
  let idx = addr lsr 2 in
  let ch = Array.unsafe_get t.decoded (idx lsr chunk_bits) in
  let ch =
    if ch != no_chunk then ch
    else begin
      let fresh = Array.make chunk_words not_cached in
      Array.unsafe_set t.decoded (idx lsr chunk_bits) fresh;
      fresh
    end
  in
  let cached = Array.unsafe_get ch (idx land chunk_mask) in
  if cached != not_cached then cached
  else begin
    let i = Decode.inst (load_word t addr) in
    Array.unsafe_set ch (idx land chunk_mask) i;
    i
  end

let read_string t addr =
  let buf = Buffer.create 64 in
  let rec go a =
    let c = load_byte_u t a in
    if c <> 0 then begin
      (* strings handed to the host (syscall puts) are ASCII by
         contract; a high byte means the guest passed a garbage
         pointer — fault like any other bad access instead of leaking
         binary data into the output stream *)
      if c >= 0x80 then fault a "string";
      Buffer.add_char buf (Char.unsafe_chr c);
      go (a + 1)
    end
  in
  go addr;
  Buffer.contents buf

let write_bytes t addr b =
  let n = Bytes.length b in
  if addr < 0 || addr + n > t.size then fault addr "store";
  let src = ref 0 in
  while !src < n do
    let a = addr + !src in
    let off = a land page_mask in
    let k = Int.min (n - !src) (page_size - off) in
    Bytes.blit b !src (page_for_write t (a lsr page_bits)) off k;
    src := !src + k
  done;
  if n > 0 then
    for i = addr lsr 2 to ((addr + n + 3) lsr 2) - 1 do
      note_store t i
    done

(* FNV-1a over a word range, folded into OCaml's 63-bit int space.
   Host-side identity for ranges of simulated memory: the serving
   layer keys shared-store fragments on the emitted code's digest so
   cross-tenant dedup can require bit-identical fragments instead of
   trusting the guest-content key alone. Collisions at that scale are
   negligible, and a false "hit" is additionally guarded by length.
   [lo] need not be aligned, so a word that straddles a page is
   assembled from its bytes. *)
let digest_range t ~lo ~len =
  if lo < 0 || len < 0 || lo + len > t.size then fault lo "digest";
  let prime = 0x100000001B3 in
  let h = ref 0x4CB2F29CE484222 in
  let words = len lsr 2 in
  for i = 0 to words - 1 do
    let a = lo + (i * 4) in
    let off = a land page_mask in
    let w =
      if off <= page_size - 4 then
        get_le32 (Array.unsafe_get t.pages (a lsr page_bits)) off
      else
        get_byte t a
        lor (get_byte t (a + 1) lsl 8)
        lor (get_byte t (a + 2) lsl 16)
        lor (get_byte t (a + 3) lsl 24)
    in
    h := (!h lxor w) * prime land max_int
  done;
  for i = words * 4 to len - 1 do
    h := (!h lxor get_byte t (lo + i)) * prime land max_int
  done;
  !h
