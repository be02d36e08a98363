(** The statistical perf-regression gate behind [bench --check-perf].

    The committed [bench/baselines/BENCH_<id>.json] files record the
    wall seconds each experiment took on the tree that committed them.
    The gate re-times the grid (best-of-N, since wall time is noisy
    and the {e minimum} of repeated runs is the stablest
    low-variance estimator of a deterministic computation's cost),
    compares each experiment against its baseline under a relative
    tolerance plus a small absolute slack (smoke-size cells finish in
    milliseconds, where relative thresholds alone would gate on timer
    jitter), and reports per-experiment verdicts. The caller appends
    one JSON row per gate run to [bench/trajectory.jsonl] — the
    maintained time series the baselines used to lack — and exits
    non-zero when anything regressed.

    All comparison logic is pure and takes plain lists, so tests can
    inject synthetic baselines and measurements and assert both the
    passing and the failing (named-offender) paths. *)

type status = Ok | Regressed | No_baseline

type verdict = {
  v_id : string;
  v_seconds : float;  (** best-of-N measured wall seconds *)
  v_baseline : float;  (** committed seconds; 0.0 under [No_baseline] *)
  v_ratio : float;  (** measured / baseline; 0.0 under [No_baseline] *)
  v_status : status;
}

val best_of : float list -> float
(** Minimum of the repetition times.
    @raise Invalid_argument on an empty list. *)

val check :
  tolerance:float ->
  ?abs_slack:float ->
  baseline:(string -> float option) ->
  (string * float) list ->
  verdict list
(** [check ~tolerance ~baseline measured] gates each [(id, seconds)]:
    [Regressed] iff [seconds > baseline *. tolerance +. abs_slack]
    (default slack 0.05 s). Experiments without a baseline are
    [No_baseline] — never a failure (a new experiment must not break
    the gate before its baseline is committed). *)

val regressions : verdict list -> verdict list

val load_baseline : dir:string -> string -> float option
(** The ["seconds"] field of [DIR/BENCH_<id>.json], if present and
    parseable. *)

val pp_verdict : Format.formatter -> verdict -> unit

val trajectory_row :
  meta:Sdt_observe.Jsonw.t ->
  tolerance:float ->
  ?counters:(string * (string * int) list) list ->
  verdict list ->
  Sdt_observe.Jsonw.t
(** One [trajectory.jsonl] row: the provenance record ({!Meta}), the
    tolerance, every verdict, and the overall [regressed] flag. A
    verdict whose id appears in [counters] also carries that
    experiment's counter-ledger delta ({!Run.counters}) as a
    [counters] object, so a flagged regression has its counters next
    to it. *)

val append_trajectory : file:string -> Sdt_observe.Jsonw.t -> unit
(** Append the row to [file] as one JSON line (creating the file). *)
