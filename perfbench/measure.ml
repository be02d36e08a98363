(* Shared measurement plumbing: clocks, order statistics, GC and RSS
   probes, Chrome-trace span analysis, and the result line. *)

module Jsonw = Sdt_observe.Jsonw
module Telemetry = Sdt_par.Telemetry

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Order statistics *)

let sorted l = List.sort compare l

let median l =
  match sorted l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest rank: the smallest sample with at least [p] of the samples at
   or below it *)
let percentile p l =
  match sorted l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let geomean = function
  | [] -> 0.0
  | l ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 l
        /. float_of_int (List.length l))

let ratio a b = if b = 0.0 then 0.0 else a /. b
let per_k num den = 1000.0 *. ratio num den
let per_m num den = 1e6 *. ratio num den

(* ------------------------------------------------------------------ *)
(* GC and memory. In OCaml 5 [Gc.minor_words] counts the calling domain
   only, so allocation is read from passes that run on one domain. *)

type gc_mark = { words : float; minors : int; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    words = Gc.minor_words ();
    minors = s.Gc.minor_collections;
    majors = s.Gc.major_collections;
  }

let gc_since m =
  let n = gc_mark () in
  {
    words = n.words -. m.words;
    minors = n.minors - m.minors;
    majors = n.majors - m.majors;
  }

(* peak resident set (VmHWM) in MiB; Linux only *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.0)
             | _ -> None)
      |> Option.value ~default:0.0

(* ------------------------------------------------------------------ *)
(* One measured repetition of a workload *)

type rep = {
  wall : float;  (** the whole repetition, checks included, s *)
  exec : float;  (** host time inside guest-running library calls, s *)
  evaluate : float;  (** harness evaluation time (grid, steady), s *)
  render : float;  (** table assembly time (grid), s *)
  instrs : int;  (** simulated instructions over every machine run *)
  units : int;  (** runs, cells or jobs attempted *)
  failed : int;  (** units that raised or disagreed with the reference *)
  jobs : int;  (** guest executions run to completion *)
  gc : gc_mark;  (** allocation on the calling domain, collections *)
  det : (string * float) list;
      (** simulated numbers of this repetition: identical on every
          repetition and every run with the same seed *)
}

(* ------------------------------------------------------------------ *)
(* Chrome-trace spans, read back from the telemetry sink *)

type span = { cat : string; name : string; ts : float; dur : float; tid : int }

let spans sink =
  let num = function
    | Some (Jsonw.Float f) -> f
    | Some (Jsonw.Int i) -> float_of_int i
    | _ -> 0.0
  in
  let str = function Some (Jsonw.Str s) -> s | _ -> "" in
  match Jsonw.member "traceEvents" (Telemetry.to_chrome sink) with
  | Some (Jsonw.List evs) ->
      List.filter_map
        (fun ev ->
          if str (Jsonw.member "ph" ev) <> "X" then None
          else
            Some
              {
                cat = str (Jsonw.member "cat" ev);
                name = str (Jsonw.member "name" ev);
                ts = num (Jsonw.member "ts" ev);
                dur = num (Jsonw.member "dur" ev);
                tid = int_of_float (num (Jsonw.member "tid" ev));
              })
        evs
  | _ -> []

(* summed duration, s *)
let busy_s l = List.fold_left (fun acc s -> acc +. s.dur) 0.0 l /. 1e6

(* wall time covered by at least one span, s (overlaps counted once) *)
let covered_s l =
  let l = List.sort (fun a b -> compare a.ts b.ts) l in
  let total, lo, hi =
    List.fold_left
      (fun (total, lo, hi) s ->
        let e = s.ts +. s.dur in
        if s.ts > hi then (total +. (hi -. lo), s.ts, e)
        else (total, lo, Float.max hi e))
      (0.0, 0.0, 0.0) l
  in
  (total +. (hi -. lo)) /. 1e6

(* the library layer a span belongs to: the pool and memo live in
   lib/par, everything else is tagged by its own layer *)
let layer_of s =
  match s.cat with "pool" | "memo" -> "par" | c -> c

(* self time per layer: each span's duration minus that of the spans
   nested directly inside it on the same track *)
let self_time_by_layer l =
  let acc = Hashtbl.create 8 in
  let add layer v =
    Hashtbl.replace acc layer
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc layer))
  in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    l;
  Hashtbl.iter
    (fun _ track ->
      (* parents sort before their children: earlier start, then longer *)
      let track =
        List.sort
          (fun a b ->
            match compare a.ts b.ts with 0 -> compare b.dur a.dur | c -> c)
          track
      in
      let rec walk stack = function
        | [] -> ()
        | s :: rest ->
            let rec pop = function
              | p :: ps when s.ts >= p.ts +. p.dur -> pop ps
              | st -> st
            in
            let stack = pop stack in
            add (layer_of s) s.dur;
            (match stack with p :: _ -> add (layer_of p) (-.s.dur) | [] -> ());
            walk (s :: stack) rest
      in
      walk [] track)
    by_tid;
  Hashtbl.fold (fun k v a -> (k, v /. 1e6) :: a) acc [] |> List.sort compare

let write_trace ~dir ~file sink =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir file in
  Out_channel.with_open_text path (fun oc -> Telemetry.write_chrome oc sink);
  path

(* ------------------------------------------------------------------ *)
(* The result line *)

let name_ok n =
  n <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       n

(* every digit as measured ([Jsonw] rounds floats to 12 digits) *)
let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
