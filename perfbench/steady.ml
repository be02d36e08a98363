(* steady: long translated runs that reach a steady state. One domain,
   chained blocks, arch_a; each program natively through [Run.native],
   then under the default configuration through [Run.sdt]. *)

open Workload
module Suite = Sdt_workloads.Suite
module Synthetic = Sdt_workloads.Synthetic

let arch = Arch.arch_a
let suite = [ "perlbmk"; "eon"; "gcc"; "mcf" ]

(* multiples of the reference size: at 5x a repetition takes one to
   two seconds, so a run holds a dozen or more of them *)
let factor = function Full -> 5 | Quick -> 1

let programs o =
  let f = factor o.scale in
  let wl name =
    let e = Option.get (Suite.find name) in
    let size = f * e.Suite.ref_size in
    (Printf.sprintf "%s:%d" name size, fun () -> e.Suite.build ~size)
  in
  let micro =
    {
      Synthetic.default with
      Synthetic.seed = micro_seed ~seed:o.seed 0;
      iters = f * 2_000;
    }
  in
  List.map wl suite
  @ [
      ( Printf.sprintf "micro:%d:%d" micro.Synthetic.seed micro.Synthetic.iters,
        fun () -> Synthetic.build micro );
    ]

let setup o =
  let progs, build_s = build_programs ~arch (programs o) in
  (* the first repetition's native results; later ones must agree *)
  let seen = Hashtbl.create 8 in
  let rep () =
    let t0 = Measure.now () in
    let g = Measure.gc_mark () in
    let i0 = Run.simulated_instructions () in
    let b0 = Run.block_cache_stats () in
    let failed = ref 0 and jobs = ref 0 and exec = ref 0.0 in
    let hits = ref 0 and simulated = ref 0 in
    let sdts =
      List.filter_map
        (fun (key, prog) ->
          Run.clear_cache ();
          let build () = prog in
          let r, t =
            Measure.timed (fun () ->
                match Run.native ~arch ~key build with
                | exception e ->
                    report_exn key e;
                    failed := !failed + 2;
                    None
                | n -> (
                    incr jobs;
                    match Run.sdt ~arch ~cfg ~key build with
                    | exception e ->
                        report_exn (key ^ " under SDT") e;
                        incr failed;
                        None
                    | s ->
                        incr jobs;
                        Some (n, s)))
          in
          exec := !exec +. t;
          let c = Run.cache_stats () in
          hits := !hits + c.Run.hits;
          simulated := !simulated + c.Run.simulated;
          match r with
          | None -> None
          | Some (n, s) ->
              let out = (n.Run.n_output, n.Run.n_checksum) in
              (match Hashtbl.find_opt seen key with
              | None -> Hashtbl.add seen key out
              | Some o when o = out -> ()
              | Some _ ->
                  Printf.eprintf "perfbench: %s native result changed\n%!" key;
                  incr failed);
              Some s)
        progs
    in
    let gc = Measure.gc_since g in
    let wall = Measure.now () -. t0 in
    let instrs = Run.simulated_instructions () - i0 in
    Run.clear_cache ();
    {
      Measure.wall;
      exec = !exec;
      evaluate = !exec;
      render = 0.0;
      instrs;
      units = 2 * List.length progs;
      failed = !failed;
      jobs = !jobs;
      gc;
      det =
        sim_layers
          ~slowdowns:(List.map (fun s -> s.Run.slowdown) sdts)
          ~cycles:(List.map (fun s -> s.Run.s_cycles) sdts)
        @ machine_layer b0 instrs @ sdt_layers sdts
        @ memo_layer { Run.hits = !hits; disk_hits = 0; simulated = !simulated };
    }
  in
  {
    build_ms = 1000.0 *. build_s;
    rep;
    extras =
      (fun reps ->
        let r = List.hd reps in
        (* one domain throughout, so the measured repetition's own
           allocation is the single-domain figure *)
        ("gc.minor_words_per_instr",
         Measure.ratio r.Measure.gc.Measure.words (float_of_int r.Measure.instrs))
        :: march_contrast ~arch progs);
    probe = (fun () -> load_create (List.map (fun (_, p) -> (arch, p)) progs));
    traced = (fun _ _ -> []);
    teardown = (fun () -> ());
  }
