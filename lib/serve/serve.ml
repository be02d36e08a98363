module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Machine = Sdt_machine.Machine
module Memory = Sdt_machine.Memory
module Config = Sdt_core.Config
module Env = Sdt_core.Env
module Emitter = Sdt_core.Emitter
module Runtime = Sdt_core.Runtime
module Stats = Sdt_core.Stats
module Suite = Sdt_workloads.Suite
module Synthetic = Sdt_workloads.Synthetic
module Pool = Sdt_par.Pool
module Telemetry = Sdt_par.Telemetry
module Fingerprint = Sdt_par.Fingerprint
module Registry = Sdt_observe.Registry
module Histo = Sdt_observe.Histo

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Specifications *)

type program_spec =
  | Workload of { wl : string; size : int }
  | Micro of Synthetic.params

type tenant_spec = { tn_name : string; tn_prog : program_spec; tn_jobs : int }

type schedule = Closed | Open_loop of { period : int }

type spec = {
  sp_tenants : tenant_spec list;
  sp_arch : Arch.t;
  sp_cfg : Config.t;
  sp_policy : Store.policy;
  sp_bound : int;
  sp_budget : int;
  sp_dedup : bool;
  sp_quantum : int;
  sp_servers : int;
  sp_schedule : schedule;
  sp_copy_per_inst : int;
  sp_max_epochs : int;
}

let tenant ?(jobs = 1) tn_name tn_prog = { tn_name; tn_prog; tn_jobs = jobs }

let program_of = function
  | Workload { wl; size } -> (
      match Suite.find wl with
      | Some e -> e.Suite.build ~size
      | None -> error "serve: unknown workload %S" wl)
  | Micro p -> Synthetic.build p

let spec ?(arch = Arch.arch_a) ?(cfg = Config.default) ?(policy = Store.Fifo)
    ?(bound = 0) ?(budget = 0) ?(dedup = true) ?(quantum = 50_000)
    ?(servers = 2) ?(schedule = Closed) ?(copy_per_inst = 2)
    ?(max_epochs = 1_000_000) tenants =
  if tenants = [] then error "serve: empty tenant list";
  if quantum <= 0 then error "serve: quantum must be positive";
  if servers <= 0 then error "serve: servers must be positive";
  if bound < 0 || budget < 0 then error "serve: negative bound or budget";
  if copy_per_inst < 0 then error "serve: negative copy cost";
  (match schedule with
  | Open_loop { period } when period <= 0 ->
      error "serve: open-loop period must be positive"
  | _ -> ());
  if (bound > 0 || budget > 0) && cfg.Config.returns = Config.Fast_return then
    error
      "serve: a bounded shared store cannot serve fast-return tenants \
       (translated return addresses escape into application state and \
       cannot be invalidated)";
  List.iter
    (fun t ->
      if t.tn_jobs < 0 then error "serve: negative job count for %s" t.tn_name;
      ignore (program_of t.tn_prog))
    tenants;
  {
    sp_tenants = tenants;
    sp_arch = arch;
    sp_cfg = cfg;
    sp_policy = policy;
    sp_bound = bound;
    sp_budget = budget;
    sp_dedup = dedup;
    sp_quantum = quantum;
    sp_servers = servers;
    sp_schedule = schedule;
    sp_copy_per_inst = copy_per_inst;
    sp_max_epochs = max_epochs;
  }

let prog_fingerprint = function
  | Workload { wl; size } -> Printf.sprintf "wl:%s:%d" wl size
  | Micro p ->
      Printf.sprintf "micro:%d,%d,%d,%d,%d,%d" p.Synthetic.ib_sites
        p.Synthetic.targets p.Synthetic.fns p.Synthetic.recursion_depth
        p.Synthetic.iters p.Synthetic.seed

let fingerprint s =
  let tenants =
    List.map
      (fun t ->
        Printf.sprintf "%s=%s*%d" t.tn_name (prog_fingerprint t.tn_prog)
          t.tn_jobs)
      s.sp_tenants
    |> String.concat ";"
  in
  let sched =
    match s.sp_schedule with
    | Closed -> "closed"
    | Open_loop { period } -> Printf.sprintf "open:%d" period
  in
  Printf.sprintf
    "serve-v1|%s|%s|policy=%s|bound=%d|budget=%d|dedup=%b|q=%d|srv=%d|sched=%s|copy=%d|%s"
    (Fingerprint.arch s.sp_arch)
    (Fingerprint.config s.sp_cfg)
    (Store.policy_name s.sp_policy)
    s.sp_bound s.sp_budget s.sp_dedup s.sp_quantum s.sp_servers sched
    s.sp_copy_per_inst tenants

let describe s =
  let jobs = List.fold_left (fun a t -> a + t.tn_jobs) 0 s.sp_tenants in
  Printf.sprintf "%s%s, %s, %d tenants / %d jobs, %d servers"
    (Store.policy_name s.sp_policy)
    (if s.sp_bound > 0 then Printf.sprintf "/%dK" (s.sp_bound / 1024) else "")
    (if s.sp_dedup then "dedup" else "no-dedup")
    (List.length s.sp_tenants)
    jobs s.sp_servers

(* ------------------------------------------------------------------ *)
(* Results *)

type job_result = {
  jr_tenant : string;
  jr_tenant_ix : int;
  jr_index : int;
  jr_arrival : int;
  jr_completion : int;
  jr_latency : int;
  jr_cycles : int;
  jr_instrs : int;
  jr_exit : int;
  jr_checksum : int;
  jr_output : string;
  jr_dedup_hits : int;
  jr_flush_marks : int;
  jr_flushes : int;
  jr_cfi_checks : int;
  jr_cfi_violations : int;
  jr_cfi_elided : int;
}

type result = {
  res_jobs : job_result list;
  res_epochs : int;
  res_makespan : int;
  res_instrs : int;
  res_cycles : int;
  res_dedup_hits : int;
  res_dedup_insts : int;
  res_flush_marks : int;
  res_flushes : int;
  res_store_peak : int;
  res_store_final : int;
  res_store_entries : int;
  res_evictions : int;
  res_evicted_bytes : int;
  res_rejects : int;
  res_counters : (string * int) list;
  res_registry : Registry.t;
}

(* latency histograms span job latencies in cycles: powers of two up to
   2^36 keep the interpolation error small across test- and ref-sized
   services *)
let latency_bounds =
  List.init 27 (fun i -> 1 lsl (i + 10))

(* ------------------------------------------------------------------ *)
(* The engine *)

type pend = { p_key : string; p_bytes : int; p_insts : int; p_digest : int }

type active = {
  a_id : int;
  a_tenant : int;
  a_index : int;
  a_arrival : int;
  a_rt : Runtime.t;
  a_tm : Timing.t;
  a_svc : Env.service;
  mutable a_credit : int;  (* cycles of service granted before this epoch *)
  mutable a_target : int;  (* absolute cycle target for the current epoch *)
  (* worker-written during the epoch, barrier-read *)
  mutable a_exit : int option;
  mutable a_hits : string list;
  mutable a_pending : pend list;
  mutable a_flushed : bool;
  mutable a_flush_marks : int;
  a_links : (string, unit) Hashtbl.t;  (* barrier-owned *)
}

let cks_fold acc c = ((acc * 1_000_003) + c) land max_int

(* Sum two counter assocs by name, keeping first-seen order. *)
let add_counters acc kvs =
  List.fold_left
    (fun acc (k, v) ->
      if List.mem_assoc k acc then
        List.map (fun (k', x) -> (k', if k' = k then x + v else x)) acc
      else acc @ [ (k, v) ])
    acc kvs

let run ?pool ?(mode = `Block) s =
  let store =
    Store.create ~policy:s.sp_policy ~bound:s.sp_bound ~budget:s.sp_budget ()
  in
  let tenants = Array.of_list s.sp_tenants in
  let tname i = tenants.(i).tn_name in
  let reg = Registry.create () in
  let lat_all = Registry.histogram reg ~bounds:latency_bounds "serve.latency_cycles" in
  let lat_of = Array.map (fun t ->
      Registry.histogram reg
        ~labels:[ ("tenant", t.tn_name) ]
        ~bounds:latency_bounds "serve.latency_cycles")
      tenants
  in
  let jobs_of = Array.map (fun t ->
      Registry.counter reg ~labels:[ ("tenant", t.tn_name) ] "serve.jobs")
      tenants
  in
  let hits_of = Array.map (fun t ->
      Registry.counter reg ~labels:[ ("tenant", t.tn_name) ] "serve.dedup_hits")
      tenants
  in
  let marks_of = Array.map (fun t ->
      Registry.counter reg ~labels:[ ("tenant", t.tn_name) ] "serve.flush_marks")
      tenants
  in
  let cfi_checks_of = Array.map (fun t ->
      Registry.counter reg ~labels:[ ("tenant", t.tn_name) ] "cfi.checks")
      tenants
  in
  let cfi_viol_of = Array.map (fun t ->
      Registry.counter reg ~labels:[ ("tenant", t.tn_name) ] "cfi.violations")
      tenants
  in
  let cfi_elided_of = Array.map (fun t ->
      Registry.counter reg ~labels:[ ("tenant", t.tn_name) ] "cfi.elided")
      tenants
  in
  (* fragments emitted under different IB policies are never
     interchangeable, even when the emitted bytes happen to collide:
     the policy joins the content key *)
  let cfi_key = Config.cfi_name s.sp_cfg.Config.cfi in
  (* arrival plan: (arrival tick, tenant, per-tenant job index); closed
     arrivals beyond the first job materialise at completion time *)
  let waiting = ref [] in
  let add_waiting arrival tn ix =
    waiting := (arrival, tn, ix) :: !waiting
  in
  (match s.sp_schedule with
  | Closed ->
      Array.iteri (fun i t -> if t.tn_jobs > 0 then add_waiting 0 i 0) tenants
  | Open_loop { period } ->
      let n = ref 0 in
      let max_jobs =
        Array.fold_left (fun a t -> max a t.tn_jobs) 0 tenants
      in
      for ix = 0 to max_jobs - 1 do
        Array.iteri
          (fun i t ->
            if ix < t.tn_jobs then (
              add_waiting (!n * period) i ix;
              incr n))
          tenants
      done);
  let pop_waiting tick =
    (* oldest arrival first (queue age), ties by tenant then index *)
    let best =
      List.fold_left
        (fun acc ((a, tn, ix) as w) ->
          if a > tick then acc
          else
            match acc with
            | None -> Some w
            | Some (a', tn', ix') ->
                if a < a' || (a = a' && (tn < tn' || (tn = tn' && ix < ix')))
                then Some w
                else acc)
        None !waiting
    in
    match best with
    | None -> None
    | Some w ->
        waiting := List.filter (fun w' -> w' <> w) !waiting;
        Some w
  in
  let next_arrival () =
    List.fold_left
      (fun acc (a, _, _) ->
        match acc with None -> Some a | Some a' -> Some (min a a'))
      None !waiting
  in
  let next_id = ref 0 in
  let rlinks : (string, (int, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 1024
  in
  let by_id : (int, active) Hashtbl.t = Hashtbl.create 64 in
  let activate arrival tn ix =
    let timing = Timing.create s.sp_arch in
    let rt =
      Runtime.create ~cfg:s.sp_cfg ~arch:s.sp_arch ~timing
        (program_of tenants.(tn).tn_prog)
    in
    let env = Runtime.env rt in
    let em = env.Env.em in
    let mem = (Runtime.machine rt).Machine.mem in
    let stats = Runtime.stats rt in
    let tpi = s.sp_arch.Arch.translate_per_inst in
    let id = !next_id in
    incr next_id;
    let rec job =
      lazy
        {
          a_id = id;
          a_tenant = tn;
          a_index = ix;
          a_arrival = arrival;
          a_rt = rt;
          a_tm = timing;
          a_svc = svc;
          a_credit = 0;
          a_target = 0;
          a_exit = None;
          a_hits = [];
          a_pending = [];
          a_flushed = false;
          a_flush_marks = 0;
          a_links = Hashtbl.create 64;
        }
    and svc =
      {
        Env.sv_flush_pending = false;
        sv_charge =
          (fun ~app_pc ~insts ~bytes ->
            if bytes <= 0 then insts * tpi
            else
              let hi = Emitter.here em in
              let digest = Memory.digest_range mem ~lo:(hi - bytes) ~len:bytes in
              let key =
                if s.sp_dedup then
                  Printf.sprintf "%x:%d:%x:%s" app_pc bytes digest cfi_key
                else
                  Printf.sprintf "t%d:%x:%d:%x:%s" tn app_pc bytes digest
                    cfi_key
              in
              let j = Lazy.force job in
              match Store.probe store key with
              | Some e when e.Store.e_digest = digest && e.Store.e_bytes = bytes
                ->
                  j.a_hits <- key :: j.a_hits;
                  stats.Stats.dedup_hits <- stats.Stats.dedup_hits + 1;
                  Telemetry.count
                    ~labels:[ ("tenant", tname tn) ]
                    "serve.dedup_hits" 1;
                  insts * s.sp_copy_per_inst
              | Some _ | None ->
                  j.a_pending <-
                    { p_key = key; p_bytes = bytes; p_insts = insts;
                      p_digest = digest }
                    :: j.a_pending;
                  insts * tpi);
        sv_flushed =
          (fun () ->
            let j = Lazy.force job in
            j.a_pending <- [];
            j.a_hits <- [];
            j.a_flushed <- true;
            j.a_svc.Env.sv_flush_pending <- false);
      }
    in
    let job = Lazy.force job in
    env.Env.service <- Some svc;
    Hashtbl.replace by_id id job;
    job
  in
  let link job key =
    if not (Hashtbl.mem job.a_links key) then (
      Hashtbl.replace job.a_links key ();
      let set =
        match Hashtbl.find_opt rlinks key with
        | Some set -> set
        | None ->
            let set = Hashtbl.create 4 in
            Hashtbl.replace rlinks key set;
            set
      in
      Hashtbl.replace set job.a_id ())
  in
  let unlink_all job =
    Hashtbl.iter
      (fun key () ->
        match Hashtbl.find_opt rlinks key with
        | Some set ->
            Hashtbl.remove set job.a_id;
            if Hashtbl.length set = 0 then Hashtbl.remove rlinks key
        | None -> ())
      job.a_links;
    Hashtbl.reset job.a_links
  in
  let flush_marks_total = ref 0 in
  let mark_linked entry =
    match Hashtbl.find_opt rlinks entry.Store.e_key with
    | None -> ()
    | Some set ->
        (* deterministic order: ids ascend *)
        let ids = Hashtbl.fold (fun id () acc -> id :: acc) set [] in
        List.iter
          (fun id ->
            match Hashtbl.find_opt by_id id with
            | Some j
              when j.a_exit = None && not j.a_svc.Env.sv_flush_pending ->
                j.a_svc.Env.sv_flush_pending <- true;
                j.a_flush_marks <- j.a_flush_marks + 1;
                (Runtime.stats j.a_rt).Stats.service_evictions <-
                  (Runtime.stats j.a_rt).Stats.service_evictions + 1;
                Registry.incr marks_of.(j.a_tenant);
                incr flush_marks_total;
                Telemetry.count
                  ~labels:[ ("tenant", tname j.a_tenant) ]
                  "serve.flush_marks" 1
            | Some _ | None -> ())
          (List.sort compare ids)
  in
  let slots = Array.make s.sp_servers None in
  let quantum epoch job =
    match job.a_exit with
    | Some _ -> ()
    | None ->
        Telemetry.span ~cat:"serve"
          ~name:("quantum." ^ tname job.a_tenant)
          ~args:
            [
              ("tenant", tname job.a_tenant);
              ("job", string_of_int job.a_index);
              ("epoch", string_of_int epoch);
            ]
          (fun () ->
            let rec go () =
              let c = Timing.cycles job.a_tm in
              if c < job.a_target then
                match
                  Runtime.advance ~max_steps:(job.a_target - c) ~mode job.a_rt
                with
                | `Exited code -> job.a_exit <- Some code
                | `Running -> go ()
            in
            go ())
  in
  let finished = ref [] in
  let counters = ref [] in
  let dedup_insts = ref 0 in
  let tick = ref 0 in
  let makespan = ref 0 in
  let epoch = ref 0 in
  let total_jobs = Array.fold_left (fun a t -> a + t.tn_jobs) 0 tenants in
  let done_jobs = ref 0 in
  while !done_jobs < total_jobs do
    if !epoch > s.sp_max_epochs then
      error "serve: epoch limit (%d) exceeded — scheduling bug or quantum too small"
        s.sp_max_epochs;
    (* fill free server slots, oldest waiting job first *)
    Array.iteri
      (fun i slot ->
        if slot = None then
          match pop_waiting !tick with
          | Some (arrival, tn, ix) -> slots.(i) <- Some (activate arrival tn ix)
          | None -> ())
      slots;
    let active =
      Array.to_list slots |> List.filter_map Fun.id |> Array.of_list
    in
    if Array.length active = 0 then (
      (* idle service: fast-forward virtual time to the next arrival *)
      match next_arrival () with
      | Some a -> tick := max !tick a
      | None ->
          error "serve: no active or waiting jobs but %d unfinished"
            (total_jobs - !done_jobs))
    else (
      incr epoch;
      let epoch_start = !tick in
      Array.iter
        (fun j -> j.a_target <- j.a_credit + s.sp_quantum)
        active;
      (match pool with
      | Some p -> Pool.iter p (quantum !epoch) active
      | None -> Array.iter (quantum !epoch) active);
      tick := !tick + s.sp_quantum;
      (* ---- barrier: deterministic slot order ---- *)
      (* 1. tenants whose caches flushed this epoch dropped every link *)
      Array.iter
        (fun j ->
          if j.a_flushed then (
            unlink_all j;
            j.a_flushed <- false))
        active;
      (* 2. dedup hits link against the epoch-start store *)
      Array.iter
        (fun j ->
          List.iter
            (fun key ->
              (match Store.probe store key with
              | Some e -> dedup_insts := !dedup_insts + e.Store.e_insts
              | None -> ());
              link j key)
            (List.rev j.a_hits);
          j.a_hits <- [])
        active;
      (* 3. publish freshly translated fragments; evictions mark the
         tenants still linked to the victims *)
      Array.iter
        (fun j ->
          List.iter
            (fun p ->
              match
                Store.insert store ~key:p.p_key ~tenant:j.a_tenant
                  ~bytes:p.p_bytes ~insts:p.p_insts ~digest:p.p_digest
              with
              | `Inserted evicted ->
                  link j p.p_key;
                  List.iter mark_linked evicted
              | `Present _ -> link j p.p_key
              | `Rejected -> ())
            (List.rev j.a_pending);
          j.a_pending <- [])
        active;
      Store.advance_gen store;
      (* 4. completions: free slots, record latency, schedule the next
         closed-loop arrival *)
      Array.iteri
        (fun i slot ->
          match slot with
          | Some j when j.a_exit <> None -> (
              let cycles = Timing.cycles j.a_tm in
              let off = max 0 (min s.sp_quantum (cycles - j.a_credit)) in
              let completion = epoch_start + off in
              let latency = completion - j.a_arrival in
              let m = Runtime.machine j.a_rt in
              let stats = Runtime.stats j.a_rt in
              unlink_all j;
              Hashtbl.remove by_id j.a_id;
              slots.(i) <- None;
              incr done_jobs;
              if completion > !makespan then makespan := completion;
              Histo.observe lat_all latency;
              Histo.observe lat_of.(j.a_tenant) latency;
              Registry.incr jobs_of.(j.a_tenant);
              Registry.add hits_of.(j.a_tenant) stats.Stats.dedup_hits;
              let cfi_checks = stats.Stats.cfi_checks in
              let cfi_violations = stats.Stats.cfi_violations in
              let cfi_elided = Runtime.cfi_elided j.a_rt in
              Registry.add cfi_checks_of.(j.a_tenant) cfi_checks;
              Registry.add cfi_viol_of.(j.a_tenant) cfi_violations;
              Registry.add cfi_elided_of.(j.a_tenant) cfi_elided;
              counters :=
                add_counters !counters
                  (Option.value ~default:[] (Machine.block_stats m)
                  @ Stats.to_assoc stats);
              finished :=
                {
                  jr_tenant = tname j.a_tenant;
                  jr_tenant_ix = j.a_tenant;
                  jr_index = j.a_index;
                  jr_arrival = j.a_arrival;
                  jr_completion = completion;
                  jr_latency = latency;
                  jr_cycles = cycles;
                  jr_instrs = m.Machine.c.Machine.instructions;
                  jr_exit = Option.value j.a_exit ~default:0;
                  jr_checksum = m.Machine.checksum;
                  jr_output = Machine.output m;
                  jr_dedup_hits = stats.Stats.dedup_hits;
                  jr_flush_marks = j.a_flush_marks;
                  jr_flushes = stats.Stats.flushes;
                  jr_cfi_checks = cfi_checks;
                  jr_cfi_violations = cfi_violations;
                  jr_cfi_elided = cfi_elided;
                }
                :: !finished;
              match s.sp_schedule with
              | Closed ->
                  if j.a_index + 1 < tenants.(j.a_tenant).tn_jobs then
                    add_waiting completion j.a_tenant (j.a_index + 1)
              | Open_loop _ -> ())
          | Some j -> j.a_credit <- j.a_target
          | None -> ())
        slots)
  done;
  let jobs =
    List.sort
      (fun a b ->
        if a.jr_tenant_ix <> b.jr_tenant_ix then
          compare a.jr_tenant_ix b.jr_tenant_ix
        else compare a.jr_index b.jr_index)
      !finished
  in
  {
    res_jobs = jobs;
    res_epochs = !epoch;
    res_makespan = !makespan;
    res_instrs = List.fold_left (fun a j -> a + j.jr_instrs) 0 jobs;
    res_cycles = List.fold_left (fun a j -> a + j.jr_cycles) 0 jobs;
    res_dedup_hits = List.fold_left (fun a j -> a + j.jr_dedup_hits) 0 jobs;
    res_dedup_insts = !dedup_insts;
    res_flush_marks = !flush_marks_total;
    res_flushes = List.fold_left (fun a j -> a + j.jr_flushes) 0 jobs;
    res_store_peak = Store.peak store;
    res_store_final = Store.occupancy store;
    res_store_entries = Store.entries store;
    res_evictions = Store.evictions store;
    res_evicted_bytes = Store.evicted_bytes store;
    res_rejects = Store.rejects store;
    res_counters = !counters;
    res_registry = reg;
  }

(* ------------------------------------------------------------------ *)
(* Percentiles and the compact report *)

let histo_named reg ?labels name =
  Registry.histogram reg ?labels ~bounds:latency_bounds name

let latency_percentile res p =
  Histo.percentile (histo_named res.res_registry "serve.latency_cycles") p

let tenant_percentile res tenant p =
  Histo.percentile
    (histo_named res.res_registry
       ~labels:[ ("tenant", tenant) ]
       "serve.latency_cycles")
    p

type tenant_line = {
  tl_name : string;
  tl_jobs : int;
  tl_checksum : int;
  tl_mean_latency : float;
  tl_p99 : float;
  tl_dedup_hits : int;
  tl_flush_marks : int;
  tl_cfi_checks : int;
  tl_cfi_violations : int;
  tl_cfi_elided : int;
}

type report = {
  rp_jobs : int;
  rp_epochs : int;
  rp_makespan : int;
  rp_instrs : int;
  rp_cycles : int;
  rp_throughput : float;
  rp_agg_mips : float;
  rp_p50 : float;
  rp_p90 : float;
  rp_p99 : float;
  rp_dedup_hits : int;
  rp_dedup_insts : int;
  rp_flush_marks : int;
  rp_flushes : int;
  rp_store_peak : int;
  rp_store_final : int;
  rp_evictions : int;
  rp_evicted_bytes : int;
  rp_rejects : int;
  rp_checksum : int;
  rp_cfi_checks : int;
  rp_cfi_violations : int;
  rp_cfi_elided : int;
  rp_counters : (string * int) list;
  rp_tenants : tenant_line list;
}

let report_of_result res =
  let jobs = res.res_jobs in
  let njobs = List.length jobs in
  let names =
    List.sort_uniq compare
      (List.map (fun j -> (j.jr_tenant_ix, j.jr_tenant)) jobs)
  in
  let tenants =
    List.map
      (fun (_, name) ->
        let js = List.filter (fun j -> j.jr_tenant = name) jobs in
        let n = List.length js in
        {
          tl_name = name;
          tl_jobs = n;
          tl_checksum =
            List.fold_left (fun a j -> cks_fold a j.jr_checksum) 0 js;
          tl_mean_latency =
            (if n = 0 then 0.0
             else
               float_of_int
                 (List.fold_left (fun a j -> a + j.jr_latency) 0 js)
               /. float_of_int n);
          tl_p99 = tenant_percentile res name 99.0;
          tl_dedup_hits = List.fold_left (fun a j -> a + j.jr_dedup_hits) 0 js;
          tl_flush_marks =
            List.fold_left (fun a j -> a + j.jr_flush_marks) 0 js;
          tl_cfi_checks =
            List.fold_left (fun a j -> a + j.jr_cfi_checks) 0 js;
          tl_cfi_violations =
            List.fold_left (fun a j -> a + j.jr_cfi_violations) 0 js;
          tl_cfi_elided =
            List.fold_left (fun a j -> a + j.jr_cfi_elided) 0 js;
        })
      names
  in
  let fspan = float_of_int (max 1 res.res_makespan) in
  {
    rp_jobs = njobs;
    rp_epochs = res.res_epochs;
    rp_makespan = res.res_makespan;
    rp_instrs = res.res_instrs;
    rp_cycles = res.res_cycles;
    rp_throughput = float_of_int njobs /. fspan *. 1e9;
    rp_agg_mips = float_of_int res.res_instrs /. fspan *. 1000.0;
    rp_p50 = latency_percentile res 50.0;
    rp_p90 = latency_percentile res 90.0;
    rp_p99 = latency_percentile res 99.0;
    rp_dedup_hits = res.res_dedup_hits;
    rp_dedup_insts = res.res_dedup_insts;
    rp_flush_marks = res.res_flush_marks;
    rp_flushes = res.res_flushes;
    rp_store_peak = res.res_store_peak;
    rp_store_final = res.res_store_final;
    rp_evictions = res.res_evictions;
    rp_evicted_bytes = res.res_evicted_bytes;
    rp_rejects = res.res_rejects;
    rp_checksum =
      List.fold_left (fun a t -> cks_fold a t.tl_checksum) 0 tenants;
    rp_cfi_checks = List.fold_left (fun a t -> a + t.tl_cfi_checks) 0 tenants;
    rp_cfi_violations =
      List.fold_left (fun a t -> a + t.tl_cfi_violations) 0 tenants;
    rp_cfi_elided = List.fold_left (fun a t -> a + t.tl_cfi_elided) 0 tenants;
    rp_counters = res.res_counters;
    rp_tenants = tenants;
  }
