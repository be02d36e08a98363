(** Block-cache introspection: dump the live chain graph and its shape.

    Everything here reads a {!Block.cache} after (or between) runs and
    produces host-side reports — nothing perturbs the simulation:

    - the {e chain graph}: resident blocks as nodes, installed chain
      links as edges (direct, taken/fall-through, inline-cache MRU
      slots), as Graphviz DOT ({!chain_dot}) and JSON ({!to_json});
    - {e shape histograms}: block lengths in instructions and chain
      depths (longest acyclic link path from each block);
    - {e per-IB-site counters} ({!Block.ind_sites}, collected under
      [~introspect:true]): inline-cache hits/misses plus the target
      multiset and its Shannon entropy, computed by
      {!Sdt_observe.Profile.entropy_bits} so the figures are
      definitionally identical to the observer's entropy profile —
      the promotion/demotion signal for adaptive per-site IB-mechanism
      selection (ROADMAP). *)

module Jsonw = Sdt_observe.Jsonw
module Histo = Sdt_observe.Histo

val links : Block.t -> (string * Block.t) list
(** The block's installed outgoing chain links as [(kind, successor)],
    kind one of ["static"], ["taken"], ["fall"], ["mru0"], ["mru1"].
    Uninstalled links are omitted. *)

val chain_depths : Block.cache -> (Block.t * int) list
(** For every resident block, the length (in blocks) of the longest
    path of {e current-generation} links out of it; cycles are cut at
    the first revisit, so a self-loop has depth 1. *)

val block_length_histo : Block.cache -> Histo.t
(** Resident block lengths in instructions (bounds 1..64). *)

val chain_depth_histo : Block.cache -> Histo.t

type site_mech = {
  sm_mech : string;  (** the mechanism currently handling the site *)
  sm_transitions : (string * int) list;
      (** (mechanism, adaptive event clock), oldest first; empty for a
          site whose mechanism was fixed at translation time *)
  sm_repatches : int;  (** emitted transfers re-patched so far *)
}
(** What the layer that {e emitted} the code knows about an IB site's
    handling. This library only watches executed code, so the
    information arrives through a neutral [site_mech] callback keyed by
    code address (the introspected site pc) — typically
    [Sdt_core.Runtime.adapt_site_at] under the adaptive mechanism, or a
    constant for a static one. The callback returning [None] for every
    address reproduces the old reports exactly. *)

type cfi_view = {
  cv_policy : string;  (** active CFI policy name, e.g. ["landing_pad"] *)
  cv_violations : int -> int;
      (** violations attributed to the fragment owning a code address *)
}
(** What the IB-policy layer knows about enforcement, in the same
    neutral-callback style as {!site_mech}: the active policy and a
    violation count per code address (typically derived from
    [Sdt_core.Runtime.cfi_violation_sites] mapped through the fragment
    map). Omitting it reproduces the policy-free reports exactly. *)

val chain_dot :
  ?site_mech:(int -> site_mech option) ->
  ?cfi:cfi_view ->
  Block.cache ->
  string
(** The chain graph as Graphviz DOT: one box per resident block
    (labelled with start PC and length), one edge per installed link
    (labelled with its kind; stale-generation links dashed). Linked
    blocks evicted from the table ("ghosts") appear dotted. With
    [site_mech], blocks ending in an introspected IB site carry the
    site's current mechanism in their label, and sites whose exit
    transfer has been re-patched since emission are bold orange-red.
    With [cfi], blocks whose fragment recorded policy violations are
    bold red with the count in their label, and their indirect (MRU)
    edges are drawn red — the hijacked edges. *)

val to_json :
  ?site_mech:(int -> site_mech option) ->
  ?cfi:cfi_view ->
  Block.cache ->
  Jsonw.t
(** The full dump: cache stats, generation, per-block records with
    links and chain depth, the block-length and chain-depth histograms
    ({!Histo.to_json}, including p50/p90/p99 from {!Histo.percentile}),
    and per-IB-site counters with entropy.
    With [site_mech], each site row additionally names its current
    mechanism, its transition history, and its re-patch count. With
    [cfi], the dump leads with the active policy and each site row
    carries its attributed violation count. *)
