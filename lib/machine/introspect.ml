module Jsonw = Sdt_observe.Jsonw
module Histo = Sdt_observe.Histo
module Profile = Sdt_observe.Profile

let links (b : Block.t) =
  (match b.Block.term with
  | Block.T_static s -> [ ("static", s.Block.s_link) ]
  | Block.T_cond c -> [ ("taken", c.Block.c_tlink); ("fall", c.Block.c_flink) ]
  | Block.T_indirect i -> [ ("mru0", i.Block.i_l0); ("mru1", i.Block.i_l1) ]
  | Block.T_stop _ -> [])
  |> List.filter_map (fun (k, l) -> Option.map (fun s -> (k, s)) l)

(* Longest link path out of each block, counted in blocks, following
   only current-generation links. Memoized DFS; a back-edge into a
   block still on the stack is cut (contributes 0), so depths are the
   longest acyclic walk from each node under this traversal. *)
let chain_depths cache =
  let gen = Block.generation cache in
  let state : (int, int option) Hashtbl.t = Hashtbl.create 256 in
  let rec depth (b : Block.t) =
    match Hashtbl.find_opt state b.Block.start with
    | Some (Some d) -> d
    | Some None -> 0 (* cycle: cut here *)
    | None ->
        Hashtbl.add state b.Block.start None;
        let best =
          List.fold_left
            (fun acc (_, s) ->
              if s.Block.gen = gen then max acc (depth s) else acc)
            0 (links b)
        in
        Hashtbl.replace state b.Block.start (Some (best + 1));
        best + 1
  in
  List.map (fun b -> (b, depth b)) (Block.resident cache)

let block_length_histo cache =
  let h = Histo.create ~bounds:[ 1; 2; 4; 8; 16; 32; 64 ] "block_length" in
  List.iter
    (fun (b : Block.t) -> Histo.observe h b.Block.n_instrs)
    (Block.resident cache);
  h

let chain_depth_histo cache =
  let h = Histo.create ~bounds:[ 1; 2; 4; 8; 16; 32; 64; 128 ] "chain_depth" in
  List.iter (fun (_, d) -> Histo.observe h d) (chain_depths cache);
  h

let hex pc = Printf.sprintf "0x%x" pc

(* What the translator layer knows about an IB site's handling, passed
   in as a neutral callback keyed by code address: this library watches
   executed code and cannot (and must not) depend on the SDT core that
   emitted it. *)
type site_mech = {
  sm_mech : string;  (** the mechanism currently handling the site *)
  sm_transitions : (string * int) list;
      (** (mechanism, adaptive event clock), oldest first *)
  sm_repatches : int;  (** emitted transfers re-patched so far *)
}

(* the site pc a resident block's indirect terminator introspects as,
   when it has one *)
let block_site_pc (b : Block.t) =
  match b.Block.term with
  | Block.T_indirect { Block.i_site = Some s; _ } -> Some s.Block.is_pc
  | _ -> None

(* What the policy layer knows about enforcement, passed in the same
   neutral-callback style as [site_mech]: the active policy name and a
   violation count attributed to a code address. *)
type cfi_view = {
  cv_policy : string;  (** active CFI policy name, e.g. ["landing_pad"] *)
  cv_violations : int -> int;
      (** violations attributed to the fragment owning a code address *)
}

let block_violations cfi (b : Block.t) =
  match cfi with None -> 0 | Some c -> c.cv_violations b.Block.start

let chain_dot ?(site_mech = fun _ -> None) ?cfi cache =
  let gen = Block.generation cache in
  let resident = Block.resident cache in
  let is_resident = Hashtbl.create 256 in
  List.iter
    (fun (b : Block.t) -> Hashtbl.replace is_resident b.Block.start ())
    resident;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph chains {\n";
  Buffer.add_string buf "  node [shape=box fontname=\"monospace\"];\n";
  let ghosts = Hashtbl.create 16 in
  List.iter
    (fun (b : Block.t) ->
      let mech = Option.bind (block_site_pc b) site_mech in
      let viols = block_violations cfi b in
      let mark =
        (* a block whose fragment recorded policy violations outranks
           every other colouring: it is the thing to look at *)
        if viols > 0 then " style=bold color=red"
        else
          (* a re-patched IB site: its exit transfer has been rewritten
             since emission (adaptive tier change) *)
          match mech with
          | Some sm when sm.sm_repatches > 0 -> " style=bold color=orangered"
          | _ -> ""
      in
      let mech_label =
        match mech with
        | None -> ""
        | Some sm ->
            Printf.sprintf "\\n[%s%s]" sm.sm_mech
              (if sm.sm_repatches > 0 then
                 Printf.sprintf ", re-patched x%d" sm.sm_repatches
               else "")
      in
      let cfi_label =
        if viols > 0 then Printf.sprintf "\\n[%d CFI violations]" viols else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" [label=\"%s\\n%d instrs%s%s\"%s];\n"
           (hex b.Block.start) (hex b.Block.start) b.Block.n_instrs mech_label
           cfi_label mark);
      List.iter
        (fun (kind, (s : Block.t)) ->
          if not (Hashtbl.mem is_resident s.Block.start) then
            Hashtbl.replace ghosts s.Block.start s;
          (* an indirect edge out of a violating site is the edge the
             policy complained about: draw it red *)
          let violating =
            viols > 0 && (kind = "mru0" || kind = "mru1")
          in
          Buffer.add_string buf
            (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"%s\"%s%s];\n"
               (hex b.Block.start) (hex s.Block.start) kind
               (if s.Block.gen = gen then "" else " style=dashed")
               (if violating then " color=red penwidth=2" else "")))
        (links b))
    resident;
  Hashtbl.iter
    (fun start (g : Block.t) ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" [label=\"%s\\n%d instrs (ghost)\" style=dotted];\n"
           (hex start) (hex start) g.Block.n_instrs))
    ghosts;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let histo_json h =
  match Histo.to_json h with
  | Jsonw.Obj kvs ->
      Jsonw.Obj
        (kvs
        @ [
            ("p50", Jsonw.Float (Histo.percentile h 50.0));
            ("p90", Jsonw.Float (Histo.percentile h 90.0));
            ("p99", Jsonw.Float (Histo.percentile h 99.0));
          ])
  | other -> other

let site_json ?(site_mech = fun _ -> None) ?cfi (s : Block.isite) =
  let targets = Block.site_targets s in
  let counts = List.map snd targets in
  let executions = List.fold_left ( + ) 0 counts in
  let mech_fields =
    match site_mech s.Block.is_pc with
    | None -> []
    | Some sm ->
        [
          ("mechanism", Jsonw.Str sm.sm_mech);
          ( "transitions",
            Jsonw.List
              (List.map
                 (fun (tier, at) ->
                   Jsonw.Obj
                     [ ("mechanism", Jsonw.Str tier); ("at", Jsonw.Int at) ])
                 sm.sm_transitions) );
          ("repatches", Jsonw.Int sm.sm_repatches);
        ]
  in
  let cfi_fields =
    match cfi with
    | None -> []
    | Some c ->
        [
          ("cfi_policy", Jsonw.Str c.cv_policy);
          ("cfi_violations", Jsonw.Int (c.cv_violations s.Block.is_pc));
        ]
  in
  Jsonw.Obj
    ([
       ("pc", Jsonw.Str (hex s.Block.is_pc));
       ("hits", Jsonw.Int s.Block.is_hits);
       ("misses", Jsonw.Int s.Block.is_misses);
       ("executions", Jsonw.Int executions);
       ("distinct_targets", Jsonw.Int (List.length targets));
       ("entropy_bits", Jsonw.Float (Profile.entropy_bits counts));
       ( "targets",
         Jsonw.List
           (List.map
              (fun (pc, n) ->
                Jsonw.Obj
                  [ ("target", Jsonw.Str (hex pc)); ("count", Jsonw.Int n) ])
              targets) );
     ]
    @ mech_fields @ cfi_fields)

let to_json ?site_mech ?cfi cache =
  let depths = chain_depths cache in
  let depth_of = Hashtbl.create 256 in
  List.iter
    (fun ((b : Block.t), d) -> Hashtbl.replace depth_of b.Block.start d)
    depths;
  let gen = Block.generation cache in
  let block_json (b : Block.t) =
    Jsonw.Obj
      [
        ("start", Jsonw.Str (hex b.Block.start));
        ("instrs", Jsonw.Int b.Block.n_instrs);
        ("gen", Jsonw.Int b.Block.gen);
        ( "term",
          Jsonw.Str
            (match b.Block.term with
            | Block.T_static _ -> "static"
            | Block.T_cond _ -> "cond"
            | Block.T_indirect _ -> "indirect"
            | Block.T_stop _ -> "stop") );
        ( "chain_depth",
          Jsonw.Int
            (Option.value ~default:0 (Hashtbl.find_opt depth_of b.Block.start))
        );
        ( "links",
          Jsonw.List
            (List.map
               (fun (kind, (s : Block.t)) ->
                 Jsonw.Obj
                   [
                     ("kind", Jsonw.Str kind);
                     ("target", Jsonw.Str (hex s.Block.start));
                     ("stale", Jsonw.Bool (s.Block.gen <> gen));
                   ])
               (links b)) );
      ]
  in
  Jsonw.Obj
    ((match cfi with
     | None -> []
     | Some c -> [ ("cfi_policy", Jsonw.Str c.cv_policy) ])
    @ [
      ("generation", Jsonw.Int gen);
      ("chained", Jsonw.Bool (Block.chained cache));
      ("introspect", Jsonw.Bool (Block.introspected cache));
      ("stats", Jsonw.int_obj (Block.stats cache));
      ("resident_blocks", Jsonw.Int (List.length depths));
      ("block_length", histo_json (block_length_histo cache));
      ("chain_depth", histo_json (chain_depth_histo cache));
      ("blocks", Jsonw.List (List.map block_json (Block.resident cache)));
      ( "ind_sites",
        Jsonw.List
          (List.map (site_json ?site_mech ?cfi) (Block.ind_sites cache)) );
    ])
