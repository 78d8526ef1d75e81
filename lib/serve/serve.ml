module Term = Mura.Term
module Normal = Mura.Normal
module Rel = Relation.Rel
module Schema = Relation.Schema
module Exec = Physical.Exec
module Cluster = Distsim.Cluster
module Metrics = Distsim.Metrics
module Hist = Metrics.Hist

let now_ns () = Unix.gettimeofday () *. 1e9

module Session = struct
  type t = { id : int; name : string; mutable closed : bool }

  let id s = s.id
  let name s = s.name
end

(* A one-shot promise: the first evaluator to need a piece of work
   registers one; everyone else blocks on it. Failures propagate so a
   crashed owner never strands its waiters. *)
type promise = {
  pm : Mutex.t;
  pc : Condition.t;
  mutable state : [ `Pending | `Done of Rel.t | `Failed of exn ];
  p_deps : string list;  (* relation names the computation reads *)
}

let promise_make deps =
  { pm = Mutex.create (); pc = Condition.create (); state = `Pending; p_deps = deps }

let promise_fulfill p st =
  Mutex.lock p.pm;
  p.state <- st;
  Condition.broadcast p.pc;
  Mutex.unlock p.pm

let promise_await p =
  Mutex.lock p.pm;
  while (match p.state with `Pending -> true | _ -> false) do
    Condition.wait p.pc p.pm
  done;
  let st = p.state in
  Mutex.unlock p.pm;
  match st with `Done r -> r | `Failed e -> raise e | `Pending -> assert false

(* An entry of the plan cache, the result cache or the repair table: its
   value, the relation names it was derived from, and its last use on
   the server's LRU clock. *)
type 'a entry = { v : 'a; deps : string list; mutable last_use : int }

type pending = { q_session : int; q_seq : int; mutable q_admitted : bool }

(* Forensic record of a query that breached the slow threshold. *)
type slow_query = {
  sq_query : int;
  sq_session : string;
  sq_key : string;  (* normalized term key *)
  sq_plans : string list;  (* fixpoint plans chosen, evaluation order *)
  sq_iterations : int;
  sq_stages : int;
  sq_straggler_mean : float;  (* mean per-stage max/median worker-time ratio *)
  sq_wait_ns : float;
  sq_total_ns : float;
  sq_plan_hit : bool;
  sq_result_hit : bool;
  sq_shared : bool;
  sq_fix_hits : int;
  sq_sampled : bool;  (* a full trace was captured for this query *)
}

(* A sampled query's captured trace (events carrying its query id). *)
type query_trace = {
  qt_query : int;
  qt_session : string;
  qt_key : string;
  qt_events : Trace.event list;
}

(* A live incremental-repair handle: the converged accumulator of a
   cached fixpoint, kept resident on the workers after the cache entry
   itself is invalidated by an [update]. The update's delta is parked
   here; the next miss replays it through [Exec.Incr.update] — paying
   only the differential resume — instead of recomputing from scratch.

   Pending deltas are a net (inserts, deletes) pair per relation with
   delete-before-insert apply semantics. [update] trims each batch
   (i, d) to its effect on the current catalog, so i and d are
   disjoint. Folding it into the net (I, D) as I' = (I \ d) ∪ i and
   D' = (D \ i) ∪ d keeps the pair disjoint and preserves arrival order:
   a tuple's final presence is decided by the last batch that mentions
   it. *)
type rhandle = {
  r_handle : Exec.Incr.handle;
  mutable r_ins : (string * Rel.t) list;  (* pending net inserts *)
  mutable r_del : (string * Rel.t) list;  (* pending net deletes *)
}

type t = {
  cluster : Cluster.t;
  exec_config : Exec.config;
  shell_statics : Exec.shell_cache;
      (* compiled-shell analyses shared by every session this service
         opens; dropped on register (schemas may change) *)
  max_inflight : int;
  cache_budget : int;
  max_plans : int;
  cluster_lock : Mutex.t;
      (* serializes cluster segments ([on_cluster]); never held while
         waiting on a promise or on admission. Lock order: [lock] may be
         taken while holding [cluster_lock], never the reverse *)
  lock : Mutex.t;  (* guards every mutable field below; held only briefly *)
  admit_cond : Condition.t;
  mutable tbl : (string * Rel.t) list;
  mutable version : int;
  table_versions : (string, int) Hashtbl.t;  (* name -> version of its last change *)
  sessions : (int, Session.t) Hashtbl.t;
  served : (int, int) Hashtbl.t;  (* session id -> evaluations admitted so far *)
  mutable next_session : int;
  mutable next_seq : int;
  mutable pending : pending list;  (* arrival order *)
  mutable inflight : int;
  plan_cache : (string, Term.t entry) Hashtbl.t;
  result_cache : (string, Rel.t entry) Hashtbl.t;
  mutable cache_bytes : int;
  max_repair_handles : int;  (* 0 disables incremental repair *)
  repair_frac : float;  (* pending-delta / base-size fallback threshold *)
  repair : (string, rhandle entry) Hashtbl.t;  (* fix normal key -> live handle *)
  q_promises : (string, promise) Hashtbl.t;
      (* whole-query in-flight evaluations, by normal key of the input *)
  f_promises : (string, promise) Hashtbl.t;
      (* in-flight fixpoint subterms, by normal key of the Fix term. Kept
         separate from [q_promises]: a query that IS a closed fixpoint
         registers its whole-query promise under the same key its own
         fixpoint resolution will look up — one shared table would make
         the owner wait on itself *)
  mutable clock : int;  (* LRU use counter *)
  wait_h : Hist.t;
  latency_h : Hist.t;
  mutable closed : bool;
  (* telemetry: query ids, trace sampling, slow-query log *)
  mutable next_query : int;  (* query ids, assigned at submission *)
  sampler : Telemetry.Sampler.t;
  qtracer : Trace.t option;
      (* server-owned tracer for sampled queries; installed as the
         ambient tracer only while sampled evaluations are in flight and
         only when no user tracer is active *)
  mutable capture_refs : int;  (* sampled evaluations in flight *)
  trace_capacity : int;
  mutable traces : query_trace list;  (* newest first, bounded *)
  slow_capacity : int;
  mutable slow_log : slow_query list;  (* newest first, bounded *)
  (* counters *)
  mutable c_submitted : int;
  mutable c_completed : int;
  mutable c_failed : int;
  mutable c_result_hits : int;
  mutable c_shared_joins : int;
  mutable c_result_misses : int;
  mutable c_plan_hits : int;
  mutable c_plan_misses : int;
  mutable c_fix_evals : int;
  mutable c_fix_hits : int;
  mutable c_fix_shared : int;
  mutable c_invalidated : int;
  mutable c_evictions : int;
  mutable c_slow : int;
  mutable c_traces : int;
  mutable c_repaired : int;
  mutable c_repair_fallbacks : int;
}

(* optimized plans kept, LRU *)
let plan_cache_capacity = 128

let create ?(max_inflight = 1) ?(result_cache_bytes = 64 * 1024 * 1024) ?(max_plans = 120)
    ?(sample_every = 0) ?(slow_threshold_ms = infinity) ?(slow_log_capacity = 64)
    ?(max_repair_handles = 32) ?(repair_max_delta_frac = 0.5) ?config ~cluster () =
  if max_inflight < 1 then invalid_arg "Serve.create: max_inflight < 1";
  if max_repair_handles < 0 then invalid_arg "Serve.create: max_repair_handles < 0";
  if repair_max_delta_frac < 0. then invalid_arg "Serve.create: repair_max_delta_frac < 0";
  let exec_config =
    match config with
    | Some c -> { c with Exec.cluster }
    | None -> Exec.default_config cluster
  in
  let qtracer =
    if sample_every > 0 then begin
      let qtr = Trace.make () in
      (* wire the simulated clock like Cluster.make does for --trace, so
         captured per-query traces are deterministic in sequential mode *)
      Trace.set_sim_clock qtr (fun () -> (Cluster.metrics cluster).Metrics.sim_time_ns);
      Some qtr
    end
    else None
  in
  {
    cluster;
    exec_config;
    shell_statics = Exec.shell_cache ();
    max_inflight;
    cache_budget = result_cache_bytes;
    max_plans;
    cluster_lock = Mutex.create ();
    lock = Mutex.create ();
    admit_cond = Condition.create ();
    tbl = [];
    version = 0;
    table_versions = Hashtbl.create 16;
    sessions = Hashtbl.create 16;
    served = Hashtbl.create 16;
    next_session = 0;
    next_seq = 0;
    pending = [];
    inflight = 0;
    plan_cache = Hashtbl.create 64;
    result_cache = Hashtbl.create 64;
    cache_bytes = 0;
    max_repair_handles;
    repair_frac = repair_max_delta_frac;
    repair = Hashtbl.create 16;
    q_promises = Hashtbl.create 16;
    f_promises = Hashtbl.create 16;
    clock = 0;
    wait_h = Hist.create ();
    latency_h = Hist.create ();
    closed = false;
    next_query = 0;
    sampler =
      Telemetry.Sampler.make ~slow_threshold_ns:(slow_threshold_ms *. 1e6) ~every:sample_every ();
    qtracer;
    capture_refs = 0;
    trace_capacity = 32;
    traces = [];
    slow_capacity = max 0 slow_log_capacity;
    slow_log = [];
    c_submitted = 0;
    c_completed = 0;
    c_failed = 0;
    c_result_hits = 0;
    c_shared_joins = 0;
    c_result_misses = 0;
    c_plan_hits = 0;
    c_plan_misses = 0;
    c_fix_evals = 0;
    c_fix_hits = 0;
    c_fix_shared = 0;
    c_invalidated = 0;
    c_evictions = 0;
    c_slow = 0;
    c_traces = 0;
    c_repaired = 0;
    c_repair_fallbacks = 0;
  }

let cluster t = t.cluster

(* ------------------------------------------------------------------ *)
(* Telemetry feed (ambient registry; strict no-ops when disabled)      *)
(* ------------------------------------------------------------------ *)

let tele_cache ~cache event =
  let r = Telemetry.get () in
  if Telemetry.enabled r then
    Telemetry.inc r ~labels:[ ("cache", cache); ("event", event) ] "serve_cache_total"

let tele_done ~outcome ~session_name ~wait_ns ~latency_ns =
  let r = Telemetry.get () in
  if Telemetry.enabled r then begin
    Telemetry.inc r ~labels:[ ("outcome", outcome) ] "serve_queries_total";
    Telemetry.observe r ~labels:[ ("session", session_name) ] "serve_query_latency_ns" latency_ns;
    if wait_ns > 0. then Telemetry.observe r "serve_admission_wait_ns" wait_ns
  end

let tele_repair ~ns =
  let r = Telemetry.get () in
  if Telemetry.enabled r then begin
    Telemetry.inc r "serve_cache_repaired_total";
    Telemetry.observe r "serve_repair_ns" ns
  end

let tele_repair_fallback ~reason =
  let r = Telemetry.get () in
  if Telemetry.enabled r then
    Telemetry.inc r ~labels:[ ("reason", reason) ] "serve_repair_fallback_total"

(* gauges of the admission queue and result cache; [t.lock] held *)
let tele_gauges t =
  let r = Telemetry.get () in
  if Telemetry.enabled r then begin
    Telemetry.set r "serve_inflight" (float_of_int t.inflight);
    Telemetry.set r "serve_queued" (float_of_int (List.length t.pending));
    Telemetry.set r "serve_result_cache_bytes" (float_of_int t.cache_bytes);
    Telemetry.set r "serve_result_cache_entries" (float_of_int (Hashtbl.length t.result_cache))
  end

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  Mutex.unlock t.lock;
  Cluster.shutdown t.cluster

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let open_session ?(name = "") t =
  Mutex.lock t.lock;
  t.next_session <- t.next_session + 1;
  let id = t.next_session in
  let name = if name = "" then Printf.sprintf "session-%d" id else name in
  let s = { Session.id; name; closed = false } in
  Hashtbl.replace t.sessions id s;
  Mutex.unlock t.lock;
  s

let close_session t (s : Session.t) =
  Mutex.lock t.lock;
  s.Session.closed <- true;
  Hashtbl.remove t.sessions s.Session.id;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Catalog and invalidation                                            *)
(* ------------------------------------------------------------------ *)

(* with [t.lock] held: whether none of [deps] changed after catalog
   version [v0], i.e. a snapshot taken at [v0] still reads them as the
   catalog does now *)
let current t ~v0 deps =
  List.for_all
    (fun d -> match Hashtbl.find_opt t.table_versions d with Some v -> v <= v0 | None -> true)
    deps

let rel_bytes rel =
  let arity = List.length (Schema.cols (Rel.schema rel)) in
  64 + (Metrics.tuple_bytes arity * Rel.cardinal rel)

(* Fold an arriving (inserts, deletes) batch for [name] into the net
   pending pair, preserving arrival order (see [rhandle]). *)
let merge_pending ~name ~ins ~del (pi, pd) =
  let get l = List.assoc_opt name l in
  let minus a b =
    match (a, b) with
    | None, _ -> None
    | Some _, None -> a
    | Some a, Some b -> Some (Rel.diff a b)
  in
  let plus a b =
    match (a, b) with None, x -> x | x, None -> x | Some a, Some b -> Some (Rel.union a b)
  in
  let put l = function
    | Some r when not (Rel.is_empty r) -> (name, r) :: List.remove_assoc name l
    | _ -> List.remove_assoc name l
  in
  let ni = plus (minus (get pi) del) ins in
  let nd = plus (minus (get pd) ins) del in
  (put pi ni, put pd nd)

(* With [t.lock] held: advance the catalog version of [name] and drop
   what was derived from its old contents — dependent results, and
   in-flight promises (new waiters must not join evaluations over the
   old contents; owners still fulfill their promise object for waiters
   that attached before). A full replacement ([`Replaced]) also drops
   the dependent plans, whose statistics changed, and the dependent
   repair handles: their catalog has no net delta to the new contents.
   An edge batch ([`Delta]) parks its net delta on the dependent
   handles that can absorb it and drops the others; plans survive it. *)
let invalidate t name change =
  t.version <- t.version + 1;
  Hashtbl.replace t.table_versions name t.version;
  let drop_dependent ?(keep = fun _ -> false) tbl dropped =
    Hashtbl.filter_map_inplace
      (fun _ e ->
        if List.mem name e.deps && not (keep e) then begin
          dropped e;
          None
        end
        else Some e)
      tbl
  in
  let invalidated _ = t.c_invalidated <- t.c_invalidated + 1 in
  drop_dependent t.result_cache (fun e ->
      t.cache_bytes <- t.cache_bytes - rel_bytes e.v;
      invalidated e);
  let purge tbl =
    Hashtbl.filter_map_inplace (fun _ p -> if List.mem name p.p_deps then None else Some p) tbl
  in
  purge t.q_promises;
  purge t.f_promises;
  match change with
  | `Replaced ->
    drop_dependent t.plan_cache invalidated;
    drop_dependent t.repair ignore
  | `Delta (ins, del) ->
    let park e =
      let absorbs = Exec.Incr.repairable e.v.r_handle name in
      if absorbs then begin
        let pi, pd = merge_pending ~name ~ins ~del (e.v.r_ins, e.v.r_del) in
        e.v.r_ins <- pi;
        e.v.r_del <- pd
      end;
      absorbs
    in
    drop_dependent ~keep:park t.repair ignore

let register t name rel =
  Mutex.protect t.lock @@ fun () ->
  Exec.clear_shell_cache t.shell_statics;
  t.tbl <- (name, rel) :: List.remove_assoc name t.tbl;
  invalidate t name `Replaced

(* Register an edge-batch update to [name]. The batch is first trimmed
   to its effect: inserts already present and deletes of absent tuples
   (or of tuples the batch re-inserts) change nothing. A batch with no
   effect leaves the version, the caches and the handles alone. *)
let update ?inserts ?deletes t name =
  Mutex.protect t.lock @@ fun () ->
  let base =
    match List.assoc_opt name t.tbl with
    | Some base -> base
    | None -> invalid_arg (Printf.sprintf "Serve.update: unknown relation %s" name)
  in
  let effective what trim = function
    | None -> None
    | Some r ->
      if not (Schema.equal_names (Rel.schema r) (Rel.schema base)) then
        invalid_arg (Printf.sprintf "Serve.update: %s schema mismatch for %s" what name);
      let r = trim r in
      if Rel.is_empty r then None else Some r
  in
  let ins = effective "insert" (fun i -> Rel.diff i base) inserts in
  let del =
    effective "delete"
      (fun d ->
        let d = Rel.inter d base in
        match inserts with Some i -> Rel.diff d i | None -> d)
      deletes
  in
  if Option.is_some ins || Option.is_some del then begin
    let updated =
      let after_del = match del with Some d -> Rel.diff base d | None -> base in
      match ins with Some i -> Rel.union after_del i | None -> after_del
    in
    t.tbl <- (name, updated) :: List.remove_assoc name t.tbl;
    invalidate t name (`Delta (ins, del))
  end

let graph_version t =
  Mutex.lock t.lock;
  let v = t.version in
  Mutex.unlock t.lock;
  v

let relation t name =
  Mutex.lock t.lock;
  let r = List.assoc_opt name t.tbl in
  Mutex.unlock t.lock;
  r

let tables t =
  Mutex.lock t.lock;
  let l = t.tbl in
  Mutex.unlock t.lock;
  l

(* ------------------------------------------------------------------ *)
(* Plan cache, result cache and repair table (LRU)                     *)
(* ------------------------------------------------------------------ *)

(* all helpers run with [t.lock] held *)

let touch t e =
  t.clock <- t.clock + 1;
  e.last_use <- t.clock

let find t tbl key =
  match Hashtbl.find_opt tbl key with
  | Some e ->
    touch t e;
    Some e.v
  | None -> None

let add t tbl key v deps =
  t.clock <- t.clock + 1;
  Hashtbl.replace tbl key { v; deps; last_use = t.clock }

(* drop least-recently-used entries of [tbl] while [over ()] *)
let rec evict_lru tbl ~over ~evicted =
  if over () then
    match
      Hashtbl.fold
        (fun k e acc ->
          match acc with Some (_, e') when e'.last_use <= e.last_use -> acc | _ -> Some (k, e))
        tbl None
    with
    | None -> ()
    | Some (k, e) ->
      Hashtbl.remove tbl k;
      evicted e;
      evict_lru tbl ~over ~evicted

(* Cache a result computed against the catalog as of version [v0] —
   unless one of its inputs changed since (the result would be stale)
   or it alone exceeds the whole byte budget. *)
let cache_store t ~key ~deps ~v0 rel =
  let bytes = rel_bytes rel in
  if current t ~v0 deps && bytes <= t.cache_budget && not (Hashtbl.mem t.result_cache key) then begin
    add t t.result_cache key rel deps;
    t.cache_bytes <- t.cache_bytes + bytes;
    evict_lru t.result_cache
      ~over:(fun () -> t.cache_bytes > t.cache_budget)
      ~evicted:(fun e ->
        t.cache_bytes <- t.cache_bytes - rel_bytes e.v;
        t.c_evictions <- t.c_evictions + 1)
  end

let plan_store t key term deps =
  if not (Hashtbl.mem t.plan_cache key) then begin
    add t t.plan_cache key term deps;
    evict_lru t.plan_cache
      ~over:(fun () -> Hashtbl.length t.plan_cache > plan_cache_capacity)
      ~evicted:ignore
  end

(* ------------------------------------------------------------------ *)
(* Fair admission                                                      *)
(* ------------------------------------------------------------------ *)

let fair_pick ~served pending =
  List.fold_left
    (fun best (s, q) ->
      match best with
      | None -> Some (s, q)
      | Some (bs, bq) ->
        if (served s, q) < (served bs, bq) then Some (s, q) else best)
    None pending

let served_count t sid =
  match Hashtbl.find_opt t.served sid with Some n -> n | None -> 0

(* with [t.lock] held: admit pending entries while slots are free *)
let rec schedule t =
  if t.inflight < t.max_inflight && t.pending <> [] then begin
    match
      fair_pick
        ~served:(served_count t)
        (List.map (fun p -> (p.q_session, p.q_seq)) t.pending)
    with
    | None -> ()
    | Some (_, seq) ->
      let chosen = List.find (fun p -> p.q_seq = seq) t.pending in
      t.pending <- List.filter (fun p -> p.q_seq <> seq) t.pending;
      chosen.q_admitted <- true;
      t.inflight <- t.inflight + 1;
      Hashtbl.replace t.served chosen.q_session (served_count t chosen.q_session + 1);
      Condition.broadcast t.admit_cond;
      schedule t
  end

(* Blocks until admitted; returns the time spent queued and the catalog
   snapshot (version, tables) the evaluation reads. Snapshotting at
   admission rather than at submission keeps a query that waited across
   an update on the current catalog, where it can share cached and
   in-flight fixpoints and repair handles. *)
let admit t sid =
  let t0 = now_ns () in
  Mutex.lock t.lock;
  t.next_seq <- t.next_seq + 1;
  let me = { q_session = sid; q_seq = t.next_seq; q_admitted = false } in
  t.pending <- t.pending @ [ me ];
  schedule t;
  tele_gauges t;
  while not me.q_admitted do
    Condition.wait t.admit_cond t.lock
  done;
  tele_gauges t;
  let snapshot = (t.version, t.tbl) in
  Mutex.unlock t.lock;
  (now_ns () -. t0, snapshot)

let release t =
  Mutex.lock t.lock;
  t.inflight <- t.inflight - 1;
  schedule t;
  tele_gauges t;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let optimize_term t tbl term =
  let tenv = Mura.Typing.env (List.map (fun (n, r) -> (n, Rel.schema r)) tbl) in
  let stats = Cost.Stats.of_tables tbl in
  Rewrite.Engine.optimize ~max_plans:t.max_plans ~cost:(Cost.Estimate.cost stats) tenv term

(* per-evaluation accounting, folded into the response and (for queries
   breaching the slow threshold) the slow-query log *)
type eval_stats = {
  mutable e_iters : int;
  mutable e_fix_hits : int;
  mutable e_repaired : int;  (* fixpoints answered by incremental repair *)
  mutable e_plans : string list;  (* fixpoint plans chosen, reverse order *)
  mutable e_stages : int;  (* cluster stages this evaluation ran *)
  mutable e_strag_sum : float;  (* sum of per-stage straggler ratios *)
  mutable e_strag_n : int;
}

let eval_stats_make () =
  {
    e_iters = 0;
    e_fix_hits = 0;
    e_repaired = 0;
    e_plans = [];
    e_stages = 0;
    e_strag_sum = 0.;
    e_strag_n = 0;
  }

(* One cluster segment: run [f] under the cluster lock, inside a trace
   [span], and charge the stages and straggler ratios it ran to [st].
   Admission bounds how many evaluators exist; this lock keeps their
   stages from interleaving even with max_inflight > 1 (the
   Cluster.Concurrent_dispatch guard would reject that loudly), and it
   makes the deltas of the shared cluster metrics attributable to this
   evaluation. [f] may take [t.lock] briefly; it never awaits a promise. *)
let on_cluster t ~st ~span f =
  Mutex.protect t.cluster_lock @@ fun () ->
  let m = Cluster.metrics t.cluster in
  let stages0 = m.Metrics.stages in
  let strag_sum0 = Hist.total m.Metrics.straggler in
  let strag_n0 = Hist.count m.Metrics.straggler in
  let res = Trace.span (Trace.get ()) ~cat:"serve" span f in
  st.e_stages <- st.e_stages + (m.Metrics.stages - stages0);
  st.e_strag_sum <- st.e_strag_sum +. (Hist.total m.Metrics.straggler -. strag_sum0);
  st.e_strag_n <- st.e_strag_n + (Hist.count m.Metrics.straggler - strag_n0);
  res

let account st (reports : Exec.fix_report list) =
  List.iter
    (fun (fr : Exec.fix_report) ->
      st.e_iters <- st.e_iters + fr.iterations;
      st.e_plans <- Exec.plan_name fr.Exec.plan :: st.e_plans)
    reports

(* run [term] through the executor; inside a cluster segment *)
let exec_term t ~tbl ~st term =
  let ctx = Exec.session ~shell_cache:t.shell_statics t.exec_config tbl in
  let rel = Exec.run ctx term in
  account st (Exec.report ctx).Exec.fixpoints;
  rel

(* Evaluate a missed closed fixpoint, in one cluster segment from the
   freshness check to the handle's installation, so two misses on one
   handle can never interleave. A live handle whose inputs have not
   moved past this query's snapshot [v0] is repaired: its pending delta
   is detached and replayed through [Exec.Incr.update]. It is dropped
   instead (and the miss falls back) when the delta outgrew
   [repair_frac] of the base relations, when the differential calculus
   refuses it, or when the resume dies mid-flight (the accumulator is
   then corrupt). Otherwise the fixpoint is evaluated from scratch
   against [tbl], keeping its converged accumulator as a fresh handle
   when repair is enabled. Returns the result and whether it came from
   a repair. *)
let eval_fix t ~tbl ~v0 ~st ~key ~deps fix_term =
  on_cluster t ~st ~span:"serve.fix" @@ fun () ->
  let fallback reason =
    Hashtbl.remove t.repair key;
    t.c_repair_fallbacks <- t.c_repair_fallbacks + 1;
    tele_repair_fallback ~reason
  in
  let detached =
    Mutex.protect t.lock @@ fun () ->
    match Hashtbl.find_opt t.repair key with
    | Some e when current t ~v0 deps ->
      let h = e.v in
      let card l = List.fold_left (fun a (_, r) -> a + Rel.cardinal r) 0 l in
      let base =
        List.fold_left
          (fun a d -> a + match List.assoc_opt d t.tbl with Some r -> Rel.cardinal r | None -> 0)
          0 deps
      in
      if float_of_int (card h.r_ins + card h.r_del) > t.repair_frac *. float_of_int (max 1 base)
      then begin
        fallback "oversized";
        None
      end
      else begin
        touch t e;
        let ins = h.r_ins and del = h.r_del in
        h.r_ins <- [];
        h.r_del <- [];
        Some (h.r_handle, ins, del)
      end
    | _ -> None
  in
  let repaired =
    Option.bind detached (fun (h, inserts, deletes) ->
        let t0 = now_ns () in
        let refused reason =
          Mutex.protect t.lock (fun () -> fallback reason);
          None
        in
        match Exec.Incr.update ~inserts ~deletes h with
        | `Repaired (rel, iters) ->
          st.e_iters <- st.e_iters + iters;
          st.e_plans <- (Exec.plan_name (Exec.Incr.plan h) ^ "(incr)") :: st.e_plans;
          st.e_repaired <- st.e_repaired + 1;
          tele_repair ~ns:(now_ns () -. t0);
          Some rel
        | `Unsupported _ -> refused "unsupported"
        | exception _ -> refused "error")
  in
  match repaired with
  | Some rel -> (rel, true)
  | None -> (
    match
      if t.max_repair_handles = 0 then None
      else Some (Exec.Incr.establish t.exec_config ~tables:tbl fix_term)
    with
    | None | (exception Exec.Incr.Unsupported _) -> (exec_term t ~tbl ~st fix_term, false)
    | Some h ->
      account st (Exec.Incr.establish_report h);
      (* keep the handle unless an update landed since the snapshot (its
         delta was never parked here), a handle survives under this key
         for a newer snapshot, or no update of its inputs can be
         repaired *)
      Mutex.protect t.lock (fun () ->
          if current t ~v0 deps && (not (Hashtbl.mem t.repair key))
             && List.exists (Exec.Incr.repairable h) deps
          then begin
            add t t.repair key { r_handle = h; r_ins = []; r_del = [] } deps;
            evict_lru t.repair
              ~over:(fun () -> Hashtbl.length t.repair > t.max_repair_handles)
              ~evicted:ignore
          end);
      (Exec.Incr.result h, false))

(* Resolve one maximal closed Fix subterm through cache and promise
   table; evaluate it at most once process-wide per (normal key,
   catalog state). Both tables only ever hold fixpoints of the current
   catalog, so a snapshot that an input has moved past since (an update
   landed while the query was evaluating) neither reads nor publishes
   there: it evaluates alone. Never called with any lock held. *)
let resolve_fix t ~tbl ~v0 ~st fix_term =
  let key = Normal.key fix_term in
  let deps = Term.free_rels fix_term in
  Mutex.lock t.lock;
  let current = current t ~v0 deps in
  match if current then find t t.result_cache key else None with
  | Some rel ->
    t.c_fix_hits <- t.c_fix_hits + 1;
    st.e_fix_hits <- st.e_fix_hits + 1;
    Mutex.unlock t.lock;
    tele_cache ~cache:"fix" "hit";
    rel
  | None -> (
    match if current then Hashtbl.find_opt t.f_promises key else None with
    | Some p ->
      t.c_fix_shared <- t.c_fix_shared + 1;
      st.e_fix_hits <- st.e_fix_hits + 1;
      Mutex.unlock t.lock;
      tele_cache ~cache:"fix" "shared";
      promise_await p
    | None -> (
      let p = promise_make deps in
      if current then Hashtbl.replace t.f_promises key p;
      Mutex.unlock t.lock;
      let forget () =
        (* only our own registration: [register] may have purged it and a
           later evaluator may have installed a fresh one under this key *)
        Mutex.lock t.lock;
        (match Hashtbl.find_opt t.f_promises key with
        | Some p' when p' == p -> Hashtbl.remove t.f_promises key
        | _ -> ());
        Mutex.unlock t.lock
      in
      match eval_fix t ~tbl ~v0 ~st ~key ~deps fix_term with
      | rel, repaired ->
        Mutex.lock t.lock;
        if repaired then t.c_repaired <- t.c_repaired + 1
        else t.c_fix_evals <- t.c_fix_evals + 1;
        cache_store t ~key ~deps ~v0 rel;
        tele_gauges t;
        Mutex.unlock t.lock;
        tele_cache ~cache:"fix" (if repaired then "repaired" else "eval");
        forget ();
        promise_fulfill p (`Done rel);
        rel
      | exception e ->
        forget ();
        promise_fulfill p (`Failed e);
        raise e))

(* Substitute every maximal closed Fix subterm by its (cached, shared or
   freshly evaluated) value. Closed subterms denote the same relation in
   any context, so splicing them in as [Cst] is sound; [Fix] nodes with
   free recursion variables only occur under a closed ancestor and are
   never extracted on their own. *)
let rec resolve_fixes t ~tbl ~v0 ~st (term : Term.t) : Term.t =
  let r = resolve_fixes t ~tbl ~v0 ~st in
  match term with
  | Term.Fix _ when Term.free_vars term = [] -> Term.Cst (resolve_fix t ~tbl ~v0 ~st term)
  | Term.Rel _ | Term.Var _ | Term.Cst _ -> term
  | Term.Select (p, u) -> Term.Select (p, r u)
  | Term.Project (c, u) -> Term.Project (c, r u)
  | Term.Antiproject (c, u) -> Term.Antiproject (c, r u)
  | Term.Rename (m, u) -> Term.Rename (m, r u)
  | Term.Join (a, b) -> Term.Join (r a, r b)
  | Term.Antijoin (a, b) -> Term.Antijoin (r a, r b)
  | Term.Union (a, b) -> Term.Union (r a, r b)
  | Term.Fix (x, body) -> Term.Fix (x, r body)

(* the admitted-evaluation body: plan, resolve fixpoints, run residual *)
let evaluate t ~key ~deps ~v0 ~tbl ~optimize ~st term =
  let plan, plan_hit =
    if not optimize then (term, false)
    else begin
      Mutex.lock t.lock;
      match find t t.plan_cache key with
      | Some pl ->
        t.c_plan_hits <- t.c_plan_hits + 1;
        Mutex.unlock t.lock;
        tele_cache ~cache:"plan" "hit";
        (pl, true)
      | None ->
        t.c_plan_misses <- t.c_plan_misses + 1;
        Mutex.unlock t.lock;
        tele_cache ~cache:"plan" "miss";
        (* rewriting is pure CPU work — run it outside the lock *)
        let best = optimize_term t tbl term in
        Mutex.lock t.lock;
        plan_store t key best deps;
        Mutex.unlock t.lock;
        (best, false)
    end
  in
  let residual = resolve_fixes t ~tbl ~v0 ~st plan in
  let rel =
    match residual with
    | Term.Cst r -> r (* the whole plan was one shared fixpoint *)
    | _ -> on_cluster t ~st ~span:"serve.eval" (fun () -> exec_term t ~tbl ~st residual)
  in
  Mutex.lock t.lock;
  cache_store t ~key ~deps ~v0 rel;
  tele_gauges t;
  Mutex.unlock t.lock;
  (rel, plan_hit)

type response = {
  rel : Rel.t;
  session : int;
  query_id : int;
  sampled : bool;
  plan_hit : bool;
  result_hit : bool;
  shared : bool;
  fix_hits : int;
  repaired : bool;  (* at least one fixpoint was incrementally repaired *)
  iterations : int;
  wait_ns : float;
  exec_ns : float;
}

let rec take n = function [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

(* with [t.lock] held: count a slow query and append it to the bounded
   log (oldest entries fall off the end) *)
let record_slow_locked t ~qid ~session ~key ~st ~wait_ns ~total_ns ~plan_hit ~result_hit ~shared
    ~sampled =
  if Telemetry.Sampler.slow t.sampler ~ns:total_ns then begin
    t.c_slow <- t.c_slow + 1;
    if t.slow_capacity > 0 then begin
      let entry =
        {
          sq_query = qid;
          sq_session = session;
          sq_key = key;
          sq_plans = List.rev st.e_plans;
          sq_iterations = st.e_iters;
          sq_stages = st.e_stages;
          sq_straggler_mean =
            (if st.e_strag_n = 0 then 0. else st.e_strag_sum /. float_of_int st.e_strag_n);
          sq_wait_ns = wait_ns;
          sq_total_ns = total_ns;
          sq_plan_hit = plan_hit;
          sq_result_hit = result_hit;
          sq_shared = shared;
          sq_fix_hits = st.e_fix_hits;
          sq_sampled = sampled;
        }
      in
      t.slow_log <- take t.slow_capacity (entry :: t.slow_log)
    end;
    Telemetry.inc (Telemetry.get ()) "serve_slow_queries_total"
  end

let query ?(optimize = true) t (sn : Session.t) term =
  let t_start = now_ns () in
  let key = Normal.key term in
  let deps = Term.free_rels term in
  Mutex.lock t.lock;
  if t.closed || sn.Session.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Serve.query: closed session or server"
  end;
  t.c_submitted <- t.c_submitted + 1;
  t.next_query <- t.next_query + 1;
  let qid = t.next_query in
  let sampled = Telemetry.Sampler.sample_id t.sampler qid in
  let r = Telemetry.get () in
  if Telemetry.enabled r then Telemetry.inc r "serve_queries_submitted_total";
  let finish_hit rel ~shared =
    (if shared then t.c_shared_joins <- t.c_shared_joins + 1
     else t.c_result_hits <- t.c_result_hits + 1);
    t.c_completed <- t.c_completed + 1;
    let total_ns = now_ns () -. t_start in
    Hist.add t.latency_h total_ns;
    record_slow_locked t ~qid ~session:sn.Session.name ~key ~st:(eval_stats_make ())
      ~wait_ns:0. ~total_ns ~plan_hit:false ~result_hit:true ~shared ~sampled:false;
    tele_done
      ~outcome:(if shared then "shared" else "hit")
      ~session_name:sn.Session.name ~wait_ns:0. ~latency_ns:total_ns;
    tele_cache ~cache:"result" (if shared then "shared" else "hit");
    {
      rel;
      session = sn.Session.id;
      query_id = qid;
      sampled = false;
      plan_hit = false;
      result_hit = true;
      shared;
      fix_hits = 0;
      repaired = false;
      iterations = 0;
      wait_ns = 0.;
      exec_ns = 0.;
    }
  in
  match find t t.result_cache key with
  | Some rel ->
    let resp = finish_hit rel ~shared:false in
    Mutex.unlock t.lock;
    resp
  | None -> (
    match Hashtbl.find_opt t.q_promises key with
    | Some p -> (
      Mutex.unlock t.lock;
      (* identical query already in flight: batch onto it *)
      match promise_await p with
      | rel ->
        Mutex.lock t.lock;
        let resp = finish_hit rel ~shared:true in
        Mutex.unlock t.lock;
        resp
      | exception e ->
        Mutex.lock t.lock;
        t.c_failed <- t.c_failed + 1;
        Mutex.unlock t.lock;
        tele_done ~outcome:"failed" ~session_name:sn.Session.name ~wait_ns:0.
          ~latency_ns:(now_ns () -. t_start);
        raise e)
    | None -> (
      (* we own the evaluation: publish a promise *)
      let p = promise_make deps in
      Hashtbl.replace t.q_promises key p;
      t.c_result_misses <- t.c_result_misses + 1;
      (* start a sampled-trace capture: install the server's tracer as
         the ambient one unless the user already has their own (then
         their trace simply carries the query-id attrs). Refcounted so
         overlapping sampled queries share one installation. *)
      let capturing =
        sampled
        && (match t.qtracer with
           | None -> false
           | Some qtr ->
             let amb = Trace.get () in
             if Trace.enabled amb && amb != qtr then false
             else begin
               t.capture_refs <- t.capture_refs + 1;
               if t.capture_refs = 1 then begin
                 Trace.clear qtr;
                 Trace.install qtr
               end;
               true
             end)
      in
      Mutex.unlock t.lock;
      tele_cache ~cache:"result" "miss";
      let finish_capture () =
        if capturing then
          match t.qtracer with
          | None -> ()
          | Some qtr ->
            Mutex.lock t.lock;
            (* extract this query's events (by query_id attr) before a
               later sampled query can clear the collector *)
            let evs =
              List.filter
                (fun (e : Trace.event) ->
                  match List.assoc_opt "query_id" e.Trace.attrs with
                  | Some (Trace.Int q) -> q = qid
                  | _ -> false)
                (Trace.events qtr)
            in
            t.capture_refs <- t.capture_refs - 1;
            if t.capture_refs = 0 then Trace.uninstall ();
            t.traces <-
              take t.trace_capacity
                ({ qt_query = qid; qt_session = sn.Session.name; qt_key = key; qt_events = evs }
                :: t.traces);
            t.c_traces <- t.c_traces + 1;
            Mutex.unlock t.lock
      in
      let forget () =
        Mutex.lock t.lock;
        (match Hashtbl.find_opt t.q_promises key with
        | Some p' when p' == p -> Hashtbl.remove t.q_promises key
        | _ -> ());
        Mutex.unlock t.lock
      in
      let st = eval_stats_make () in
      let run () =
        (* every event this evaluation records — admission, serve.eval,
           stages, exchanges, operator spans — carries the query id *)
        Trace.with_ambient_attrs [ ("query_id", Trace.Int qid) ] @@ fun () ->
        Fun.protect ~finally:finish_capture @@ fun () ->
        let wait_ns, (v0, tbl) = admit t sn.Session.id in
        Fun.protect ~finally:(fun () -> release t) @@ fun () ->
        let rel, plan_hit = evaluate t ~key ~deps ~v0 ~tbl ~optimize ~st term in
        (rel, plan_hit, wait_ns)
      in
      match run () with
      | rel, plan_hit, wait_ns ->
        forget ();
        promise_fulfill p (`Done rel);
        let t_end = now_ns () in
        let total_ns = t_end -. t_start in
        Mutex.lock t.lock;
        t.c_completed <- t.c_completed + 1;
        Hist.add t.wait_h wait_ns;
        Hist.add t.latency_h total_ns;
        record_slow_locked t ~qid ~session:sn.Session.name ~key ~st ~wait_ns ~total_ns
          ~plan_hit ~result_hit:false ~shared:false ~sampled:capturing;
        Mutex.unlock t.lock;
        tele_done
          ~outcome:(if st.e_repaired > 0 then "repaired" else "evaluated")
          ~session_name:sn.Session.name ~wait_ns ~latency_ns:total_ns;
        {
          rel;
          session = sn.Session.id;
          query_id = qid;
          sampled = capturing;
          plan_hit;
          result_hit = false;
          shared = false;
          fix_hits = st.e_fix_hits;
          repaired = st.e_repaired > 0;
          iterations = st.e_iters;
          wait_ns;
          exec_ns = total_ns -. wait_ns;
        }
      | exception e ->
        forget ();
        promise_fulfill p (`Failed e);
        Mutex.lock t.lock;
        t.c_failed <- t.c_failed + 1;
        Mutex.unlock t.lock;
        tele_done ~outcome:"failed" ~session_name:sn.Session.name ~wait_ns:0.
          ~latency_ns:(now_ns () -. t_start);
        raise e))

let query_ucrpq ?optimize t sn text =
  query ?optimize t sn (Rpq.Query.union_to_term (Rpq.Query.parse_union text))

let explain ?(optimize = true) t term =
  Mutex.lock t.lock;
  let tbl = t.tbl in
  Mutex.unlock t.lock;
  let plan = if optimize then optimize_term t tbl term else term in
  Mutex.protect t.cluster_lock @@ fun () ->
  let ctx = Exec.session ~shell_cache:t.shell_statics t.exec_config tbl in
  Exec.explain ctx plan

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

type stats = {
  submitted : int;
  completed : int;
  failed : int;
  result_hits : int;
  shared_joins : int;
  result_misses : int;
  plan_hits : int;
  plan_misses : int;
  fix_evals : int;
  fix_hits : int;
  fix_shared : int;
  repaired : int;
  repair_fallbacks : int;
  repair_handles : int;
  invalidated : int;
  evictions : int;
  result_entries : int;
  result_bytes : int;
  plan_entries : int;
  graph_version : int;
  inflight : int;
  queued : int;
  slow_queries : int;
  traces_captured : int;
}

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      submitted = t.c_submitted;
      completed = t.c_completed;
      failed = t.c_failed;
      result_hits = t.c_result_hits;
      shared_joins = t.c_shared_joins;
      result_misses = t.c_result_misses;
      plan_hits = t.c_plan_hits;
      plan_misses = t.c_plan_misses;
      fix_evals = t.c_fix_evals;
      fix_hits = t.c_fix_hits;
      fix_shared = t.c_fix_shared;
      repaired = t.c_repaired;
      repair_fallbacks = t.c_repair_fallbacks;
      repair_handles = Hashtbl.length t.repair;
      invalidated = t.c_invalidated;
      evictions = t.c_evictions;
      result_entries = Hashtbl.length t.result_cache;
      result_bytes = t.cache_bytes;
      plan_entries = Hashtbl.length t.plan_cache;
      graph_version = t.version;
      inflight = t.inflight;
      queued = List.length t.pending;
      slow_queries = t.c_slow;
      traces_captured = t.c_traces;
    }
  in
  Mutex.unlock t.lock;
  s

let slow_log t =
  Mutex.lock t.lock;
  let l = t.slow_log in
  Mutex.unlock t.lock;
  l

let sampled_traces t =
  Mutex.lock t.lock;
  let l = t.traces in
  Mutex.unlock t.lock;
  l

let wait_hist t = t.wait_h
let latency_hist t = t.latency_h
