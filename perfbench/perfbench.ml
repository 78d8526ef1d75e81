(* End-to-end and per-layer benchmark of Dist-mu-RA on the paper's query
   workloads.

   Three workloads share one load generator:
   - yago_oneshot: Yago-like graph, Q1-Q25 one query at a time through the
     Dist-mu-RA pipeline of [Harness.Systems.dist_mu_ra] (4 sequential
     workers), the path murarun and Fig. 9 use;
   - uniprot_oneshot: Uniprot-like graph, Q26-Q49, same pipeline;
   - yago_serve: the Yago graph registered in one [Serve.t]; a closed loop
     of two client domains sends Zipf-popular Q1-Q24 while client 0 applies
     an edge batch after every 40 queries.

   Timing happens only from the outside: the benchmark times calls into
   the public functions of each layer and reads public counters
   ([Cluster.metrics], [Exec.report], [Serve.stats], response fields, [Gc]).
   Every answer is checked against golden digests made by the centralized
   oracle [Mura.Eval] ([goldens] subcommand); serve responses are checked
   after the timed window against the graph version they were served at.

   The last stdout line of [run] is the JSON result
   {"correct", "attempted", "failed", "metrics"}; the run context goes to
   the file given by --context. *)

module Rel = Relation.Rel
module Schema = Relation.Schema
module Value = Relation.Value
module Cluster = Distsim.Cluster
module Metrics = Distsim.Metrics
module Dds = Distsim.Dds
module Exec = Physical.Exec
module Systems = Harness.Systems

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type kind = Yago | Uniprot

let kind_name = function Yago -> "yago" | Uniprot -> "uniprot"

type workload = { name : string; kind : kind; serve : bool }

let workloads =
  [
    { name = "yago_oneshot"; kind = Yago; serve = false };
    { name = "uniprot_oneshot"; kind = Uniprot; serve = false };
    { name = "yago_serve"; kind = Yago; serve = true };
  ]

(* The graph seeds of the paper figures (bench/main.ml). The golden
   digests are per graph and the oracle needs minutes per graph, so the
   run seed orders the queries; it does not pick the graph. *)
let default_graph_seed = function Yago -> 42 | Uniprot -> 31
let default_scale = 2_000
let workers = 4

(* the rewriter budget of [Systems.optimize] and of [Serve.create] *)
let max_plans = 120
let timeout_s = 120.
let updates_every = 40
let batch_inserts = 8
let batch_deletes = 4

(* Admitted evaluations of the serve workload. At 2, two evaluations can
   repair the same fixpoint handle at once, and [Serve] then now and then
   returns and caches the answer of a graph that never existed (see
   NOTES.md, known defects). The benchmark runs at 1, on which no response
   was wrong. *)
let max_inflight = 1

let generate kind ~seed ~scale =
  match kind with
  | Yago -> Graphgen.Yago_like.generate ~seed ~scale ()
  | Uniprot -> Graphgen.Uniprot_like.generate ~seed ~scale ()

(* (id, UCRPQ text) *)
let queries kind g =
  let specs =
    match kind with Yago -> Harness.Queries.yago | Uniprot -> Harness.Queries.uniprot g
  in
  List.map (fun (s : Harness.Queries.spec) -> (s.id, s.text)) specs

(* Q25's miss takes seconds and would make the serve tail one query *)
let serve_queries g = List.filter (fun (id, _) -> id <> "Q25") (queries Yago g)

(* ------------------------------------------------------------------ *)
(* Digests and goldens                                                 *)
(* ------------------------------------------------------------------ *)

(* Order-independent digest: the wrapping sum of per-tuple MD5 prefixes
   over the printed values, columns taken in name order, so it does not
   depend on symbol interning, column layout or partition order. *)
let digest rel =
  let named = List.sort compare (List.mapi (fun i c -> (c, i)) (Schema.cols (Rel.schema rel))) in
  let order = Array.of_list (List.map snd named) in
  let buf = Buffer.create 64 in
  let sum = ref (Hashtbl.hash (List.map fst named)) in
  Rel.iter
    (fun tu ->
      Buffer.clear buf;
      Array.iter
        (fun i ->
          Buffer.add_string buf (Value.to_string tu.(i));
          Buffer.add_char buf '\t')
        order;
      sum := !sum + Int64.to_int (String.get_int64_le (Digest.string (Buffer.contents buf)) 0))
    rel;
  Printf.sprintf "%d:%x" (Rel.cardinal rel) (!sum land max_int)

let translate text = Rpq.Query.union_to_term (Rpq.Query.parse_union text)

(* golden key: graph kind, graph seed, scale, query id *)
let golden_key kind ~seed ~scale qid =
  Printf.sprintf "%s\t%d\t%d\t%s" (kind_name kind) seed scale qid

let load_goldens file =
  let tbl = Hashtbl.create 64 in
  if Sys.file_exists file then begin
    let ic = open_in file in
    (try
       while true do
         let line = input_line ic in
         if line <> "" && line.[0] <> '#' then
           match String.split_on_char '\t' line with
           | [ k; s; sc; q; d ] -> Hashtbl.replace tbl (String.concat "\t" [ k; s; sc; q ]) d
           | _ -> failwith ("malformed golden line: " ^ line)
       done
     with End_of_file -> ());
    close_in ic
  end;
  tbl

(* Recompute the goldens of one graph with the oracle and rewrite [file],
   keeping the lines of other graphs. *)
let regen_goldens ~file kind ~seed ~scale =
  let g = generate kind ~seed ~scale in
  let env = Mura.Eval.env [ ("E", g) ] in
  let prefix = Printf.sprintf "%s\t%d\t%d\t" (kind_name kind) seed scale in
  let fresh =
    List.map
      (fun (qid, text) ->
        let t0 = now () in
        let d = digest (Mura.Eval.eval env (translate text)) in
        Printf.eprintf "oracle %s %s: %s (%.1fs)\n%!" (kind_name kind) qid d (now () -. t0);
        prefix ^ qid ^ "\t" ^ d)
      (queries kind g)
  in
  let kept =
    if Sys.file_exists file then
      In_channel.with_open_text file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l ->
             l <> "" && l.[0] <> '#' && not (String.starts_with ~prefix l))
    else []
  in
  let header =
    "# kind\tgraph_seed\tscale\tquery\tcardinality:digest  (regenerate: perfbench goldens)"
  in
  Out_channel.with_open_text file (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) ((header :: kept) @ fresh))

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* nearest-rank percentile: at least [n (1 - p)] samples lie beyond it *)
let percentile xs p =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil ((p *. float_of_int n) -. 1e-9)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 0.5
let sum = List.fold_left ( +. ) 0.
let mean xs = match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)

(* the highest percentile with at least 10 samples beyond it, capped *)
let supported_p ~cap n = Float.min cap (1. -. (10. /. float_of_int (max n 1)))

let gc_alloc_mb (s : Gc.stat) =
  (s.minor_words +. s.major_words -. s.promoted_words) *. float_of_int (Sys.word_size / 8)
  /. 1e6

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* A fixed kernel of Stdlib code only, so no change to the program under
   test can move it: hashing, scattered reads and writes over a 4 MB
   table allocated once, and short-lived allocation that dies in the minor
   heap, as the engine's own allocation mostly does. Its time measures
   how fast the host runs this kind of code at the moment. *)
let calib_table = Array.make (1 lsl 19) 0

let calib_kernel ?(n = 400_000) () =
  let mask = Array.length calib_table - 1 in
  for i = 0 to n - 1 do
    let j = (i * 2654435761) land mask in
    let pair = Sys.opaque_identity (i, j) in
    calib_table.(j) <- calib_table.(j) + Hashtbl.hash pair
  done

(* Kernel seconds at the reference host speed: about the median kernel
   time, run after a compaction as it is here, on a 2-core Xeon (2.0 GHz)
   sizing host. *)
let calib_ref_s = 0.026

(* wall seconds of one kernel run *)
let kernel_s ?n () =
  let t0 = now () in
  calib_kernel ?n ();
  now () -. t0

(* An eighth of the kernel, around executions too short for the whole
   one, and its reference time *)
let mini_n = 50_000
let mini_ref_s = calib_ref_s /. 8.

(* applications of each one-shot update batch, timed one by one *)
let update_repeats = 5

let top_heap_mb () = float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Kernel samples; multiplying a wall time measured among them by
   [factor] scales it to the reference host speed. *)
type speed = { mutable samples : float list }

let speed () = { samples = [] }
let sample_speed sp n = for _ = 1 to n do sp.samples <- kernel_s () :: sp.samples done
let factor ?(ref_s = calib_ref_s) sp = if sp.samples = [] then 1. else ref_s /. median sp.samples

(* The serving mix keeps both cores busy, and a slow core holds up the
   other at every stop-the-world minor collection. Its samples therefore
   run the kernel on two domains at once and take the wall time until
   both are done; [calib_pair_ref_s] is about their median on the sizing
   host. *)
let calib_pair_ref_s = 0.032

let sample_speed_pair sp n =
  for _ = 1 to n do
    let t0 = now () in
    let d = Domain.spawn calib_kernel in
    calib_kernel ();
    Domain.join d;
    sp.samples <- (now () -. t0) :: sp.samples
  done

(* ------------------------------------------------------------------ *)
(* Traced layers                                                       *)
(* ------------------------------------------------------------------ *)

(* Spans recorded by this file only, on a private tracer: the library's
   own instrumentation keeps reading the (disabled) ambient tracer. *)
let tracer = ref Trace.disabled
let span name f = Trace.span !tracer ~cat:"bench" name f

(* self time (ms) per span name over [events]: duration minus the part
   covered by child spans *)
let self_times events =
  let child = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      if e.parent >= 0 then
        Hashtbl.replace child e.parent
          (e.wall_dur_us +. Option.value ~default:0. (Hashtbl.find_opt child e.parent)))
    events;
  let self = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      let s = e.wall_dur_us -. Option.value ~default:0. (Hashtbl.find_opt child e.id) in
      Hashtbl.replace self e.name
        ((s /. 1e3) +. Option.value ~default:0. (Hashtbl.find_opt self e.name)))
    events;
  self

let layer_spans =
  [
    "rpq.translate";
    "cost.stats";
    "cost.estimate";
    "rewrite.optimize";
    "physical.session";
    "physical.exec_dds";
    "distsim.collect";
    "serve.query";
    "serve.update";
  ]

(* ------------------------------------------------------------------ *)
(* One-shot queries                                                    *)
(* ------------------------------------------------------------------ *)

type shot = {
  s_ms : float;
  s_rel : Rel.t option;  (* None: failed or timed out *)
  s_plans : int;  (* plans costed, traced executions only *)
  s_est_cost : float;  (* estimated cost of the chosen plan, traced only *)
  s_iterations : int;
  s_metrics : Metrics.t;
  s_plan_ok : bool;  (* traced: [Systems.optimize] chose this plan or one of equal cost *)
}

(* The printed plan with the rewriter's fresh names ([_X<n>] variables,
   [_m<n>] columns) numbered in order of first appearance, so two runs of
   the rewriter that draw different fresh names compare equal. *)
let canonical_plan t =
  let s = Mura.Term.to_string t in
  let n = String.length s and names = Hashtbl.create 8 and b = Buffer.create 256 in
  let digit i = i < n && s.[i] >= '0' && s.[i] <= '9' in
  let rec go i =
    if i < n then
      if s.[i] = '_' && i + 1 < n && (s.[i + 1] = 'X' || s.[i + 1] = 'm') && digit (i + 2) then begin
        let j = ref (i + 2) in
        while digit !j do incr j done;
        let name = String.sub s i (!j - i) in
        let k =
          match Hashtbl.find_opt names name with
          | Some k -> k
          | None ->
            let k = Hashtbl.length names in
            Hashtbl.add names name k;
            k
        in
        Buffer.add_string b (Printf.sprintf "_%c'%d" s.[i + 1] k);
        go !j
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let same_plan a b = String.equal (canonical_plan a) (canonical_plan b)

(* The Dist-mu-RA pipeline of [Systems.run_physical], composed from the
   public layer functions so the rows reach the digest check. Untraced it
   calls [Systems.optimize] as the system does; traced, it re-composes
   [Systems.optimize] step by step with the same [max_plans] and wraps
   every layer call in a span. After the timed part, a traced execution
   also calls [Systems.optimize] itself and checks that it chose the same
   plan, or one of the same estimated cost, so the per-layer figures fail
   loudly once the shipped planner and the re-composed one part. *)
let run_shot ~traced tables text =
  let result = ref None and plans = ref 0 and chosen_cost = ref (fun () -> nan) and iters = ref 0 in
  let chosen = ref None in
  let t0 = now () in
  let cluster = Cluster.make ~workers () in
  let config =
    {
      (Exec.default_config cluster) with
      force_plan = None;
      use_stable_partitioning = true;
      use_compiled_exec = true;
    }
  in
  let body () =
    let term = span "rpq.translate" (fun () -> translate text) in
    let best =
      if not traced then Systems.optimize tables term
      else begin
        let tenv = Mura.Typing.env (List.map (fun (n, r) -> (n, Rel.schema r)) tables) in
        let stats = span "cost.stats" (fun () -> Cost.Stats.of_tables tables) in
        let cost t =
          incr plans;
          span "cost.estimate" (fun () -> Cost.Estimate.cost stats t)
        in
        let best =
          span "rewrite.optimize" (fun () -> Rewrite.Engine.optimize ~max_plans ~cost tenv term)
        in
        chosen_cost := (fun () -> Cost.Estimate.cost stats best);
        chosen := Some (best, stats);
        best
      end
    in
    let ctx = span "physical.session" (fun () -> Exec.session config tables) in
    let dds = span "physical.exec_dds" (fun () -> Exec.exec_dds ctx best) in
    let rel = span "distsim.collect" (fun () -> Dds.collect dds) in
    List.iter
      (fun (f : Exec.fix_report) -> iters := !iters + f.iterations)
      (Exec.report ctx).fixpoints;
    result := Some rel;
    Rel.cardinal rel
  in
  let outcome =
    span "query" (fun () -> Systems.guarded ~timeout_s (Some (Cluster.metrics cluster)) body)
  in
  let ms = (now () -. t0) *. 1e3 in
  let rel =
    match outcome with
    | Systems.Success _ -> !result
    | Systems.Failed msg ->
      Printf.eprintf "query failed: %s\n%!" msg;
      None
    | Systems.Timeout s ->
      Printf.eprintf "query timed out after %.1fs\n%!" s;
      None
  in
  {
    s_ms = ms;
    s_rel = rel;
    s_plans = !plans;
    s_est_cost = !chosen_cost ();
    s_iterations = !iters;
    s_metrics = Cluster.metrics cluster;
    s_plan_ok =
      (match !chosen with
      | None -> true
      | Some (best, stats) ->
        let shipped = Systems.optimize tables (translate text) in
        (* ties between plans of equal estimated cost may break either
           way, since fresh names change the rewriter's iteration order *)
        same_plan best shipped
        || Float.equal (Cost.Estimate.cost stats best) (Cost.Estimate.cost stats shipped));
  }

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type result = {
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;
  context : (string * string) list;  (* JSON-encoded values *)
}

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_str s = Trace.Json.str s

let metrics_json ms =
  Trace.Json.obj
    (List.map
       (fun m ->
         ( m.m_name,
           Trace.Json.obj [ ("value", json_num m.m_value); ("unit", json_str m.m_unit) ] ))
       ms)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let setup_repeats = 5

(* run [f] [setup_repeats] times from a compacted heap, keep the last
   value, report the median wall time scaled to the reference host speed
   (kernel samples just before and just after each set-up) *)
let timed_setup f =
  let times = ref [] and last = ref None in
  for _ = 1 to setup_repeats do
    last := None;
    Gc.compact ();
    let sp = speed () in
    sample_speed sp 3;
    let t0 = now () in
    last := Some (f ());
    let t = now () -. t0 in
    Gc.compact ();
    sample_speed sp 3;
    times := (t *. factor sp) :: !times
  done;
  Gc.compact ();
  (Option.get !last, median !times)

(* ------------------------------------------------------------------ *)
(* One-shot workloads                                                  *)
(* ------------------------------------------------------------------ *)

(* Update batch [k] (1-based): [batch_inserts] resident edges cloned with
   the source and target of two other resident edges, and
   [batch_deletes] resident edges, all drawn from the base graph by a
   stream seeded with the graph seed. The stream is fixed with the graph,
   not drawn from the run seed: batches accumulate, and in sizing runs
   with per-seed streams the drifting graph moved serve_p99_ms between
   125 and 293 ms from one seed to the next. *)
let make_batch ~graph_seed g =
  let schema = Rel.schema g in
  let arr = Array.of_list (Rel.to_list g) in
  let col c = Option.get (List.find_index (( = ) c) (Schema.cols schema)) in
  let src = col "src" and trg = col "trg" in
  fun k ->
    let rng = Graphgen.Rng.create ((graph_seed * 1_000_003) + k) in
    let ins = Rel.create schema and del = Rel.create schema in
    while Rel.cardinal ins < batch_inserts do
      let tu = Array.copy (Graphgen.Rng.pick rng arr) in
      tu.(src) <- (Graphgen.Rng.pick rng arr).(src);
      tu.(trg) <- (Graphgen.Rng.pick rng arr).(trg);
      if not (Rel.mem g tu) then ignore (Rel.add ins tu)
    done;
    while Rel.cardinal del < batch_deletes do
      ignore (Rel.add del (Array.copy (Graphgen.Rng.pick rng arr)))
    done;
    (ins, del)

type check = { goldens : (string, string) Hashtbl.t; gkind : kind; gseed : int; gscale : int }

let expected chk qid =
  Hashtbl.find_opt chk.goldens (golden_key chk.gkind ~seed:chk.gseed ~scale:chk.gscale qid)

(* one-shot runs keep going past the window until the tail percentile
   has 10 samples beyond it *)
let min_samples = 100

let run_oneshot ~kind ~chk ~seed ~seconds ~trace ~scale ~graph_seed =
  let (g, qs), setup_s =
    timed_setup (fun () ->
        let g = generate kind ~seed:graph_seed ~scale in
        let qs = queries kind g in
        (* warm-up: one query pages in the code paths and grows the heap *)
        ignore (run_shot ~traced:false [ ("E", g) ] (snd (List.hd qs)));
        (g, qs))
  in
  let tables = [ ("E", g) ] in
  let rng = Graphgen.Rng.create seed in
  let batch = make_batch ~graph_seed g in
  let lat = ref [] and passes = ref [] and updates = ref [] and by_query = Hashtbl.create 32 in
  let attempted = ref 0 and failed = ref 0 in
  let alloc = ref [] and majors = ref [] and heaps = ref [] in
  (* traced runs only *)
  let tr = if trace then Trace.make () else Trace.disabled in
  let ratios = ref [] and traced_n = ref 0 in
  let layer_self = Hashtbl.create 16 and pass_counts = ref [] and chosen = Hashtbl.create 32 in
  let check qid (s : shot) =
    incr attempted;
    let got = Option.map digest s.s_rel in
    if got = None || got <> expected chk qid then begin
      incr failed;
      if !failed <= 5 then
        Printf.eprintf "wrong or missing answer for %s: got %s, want %s\n%!" qid
        (Option.value ~default:"-" got)
        (Option.value ~default:"-" (expected chk qid))
    end
    else if not s.s_plan_ok then begin
      incr failed;
      Printf.eprintf "%s: the re-composed planner and Systems.optimize chose different plans\n%!"
        qid
    end
  in
  let side = ref g and applied = ref 0 in
  let factors = ref [] in
  let t_start = now () in
  let continue () =
    match !passes with
    | [] -> true
    | ps ->
      ((not trace) && List.length !lat < min_samples) || now () -. t_start +. mean ps <= seconds
  in
  while continue () do
    let order = Array.of_list qs in
    Graphgen.Rng.shuffle rng order;
    let p_alloc = ref 0. and p_major = ref 0 in
    let p_lat = ref [] in
    let p_plans = ref 0 and p_iters = ref 0 and p_metrics = Metrics.create () in
    (* Every query starts from a compacted heap, as in a fresh murarun
       process, so its time does not depend on what ran before it. The
       host-speed kernel runs there, untimed. *)
    let untraced qid text =
      Gc.compact ();
      let k = kernel_s () in
      let a = Gc.quick_stat () in
      let s = run_shot ~traced:false tables text in
      let b = Gc.quick_stat () in
      p_alloc := !p_alloc +. (gc_alloc_mb b -. gc_alloc_mb a);
      p_major := !p_major + (b.major_collections - a.major_collections);
      check qid s;
      p_lat := (qid, s.s_ms, k) :: !p_lat;
      s.s_ms
    in
    let traced qid text =
      Gc.compact ();
      tracer := tr;
      let s =
        Fun.protect
          ~finally:(fun () -> tracer := Trace.disabled)
          (fun () -> run_shot ~traced:true tables text)
      in
      check qid s;
      Hashtbl.iter
        (fun k v ->
          Hashtbl.replace layer_self k
            (v +. Option.value ~default:0. (Hashtbl.find_opt layer_self k)))
        (self_times (Trace.events tr));
      Trace.clear tr;
      incr traced_n;
      p_plans := !p_plans + s.s_plans;
      p_iters := !p_iters + s.s_iterations;
      Metrics.add p_metrics s.s_metrics;
      Hashtbl.replace chosen qid s.s_est_cost;
      s.s_ms
    in
    let t0 = now () in
    Array.iteri
      (fun i (qid, text) ->
        if not trace then ignore (untraced qid text)
        else
          (* alternate which side goes first *)
          let u, t =
            if i land 1 = 0 then
              let u = untraced qid text in
              (u, traced qid text)
            else
              let t = traced qid text in
              (untraced qid text, t)
          in
          ratios := (t /. u) :: !ratios)
      order;
    passes := (now () -. t0) :: !passes;
    (* A one-shot engine keeps no derived state, so an edge batch only
       rebuilds the base relation the next query reads. One batch of the
       update stream per query run, applied to a side copy so the queries
       stay on the graph the goldens describe. *)
    Gc.compact ();
    let k_end = kernel_s () in
    (* The host's speed can halve for a fraction of a second, so each
       update is scaled by short kernel samples just before and after it. *)
    let before = ref (kernel_s ~n:mini_n ()) in
    List.iter
      (fun _ ->
        incr applied;
        let ins, del = batch !applied in
        (* the median of [update_repeats] applications of the batch to the
           same copy: one takes about a millisecond on Uniprot *)
        let apply () =
          let t0 = now () in
          let r = Rel.union (Rel.diff !side del) ins in
          (r, (now () -. t0) *. 1e3)
        in
        let runs = List.init update_repeats (fun _ -> apply ()) in
        side := fst (List.hd runs);
        let ms = median (List.map snd runs) in
        let after = kernel_s ~n:mini_n () in
        updates := (ms *. 2. *. mini_ref_s /. (!before +. after)) :: !updates;
        before := after)
      !p_lat;
    (* a query's times are scaled by the kernel samples just before and
       just after it *)
    let next_k = ref k_end in
    List.iter
      (fun (qid, ms, k) ->
        let f = 2. *. calib_ref_s /. (k +. !next_k) in
        next_k := k;
        factors := f :: !factors;
        lat := (ms *. f) :: !lat;
        Hashtbl.replace by_query qid
          ((ms *. f) :: Option.value ~default:[] (Hashtbl.find_opt by_query qid)))
      !p_lat;
    alloc := !p_alloc :: !alloc;
    majors := float_of_int !p_major :: !majors;
    pass_counts := (!p_plans, !p_iters, p_metrics) :: !pass_counts;
    heaps := top_heap_mb () :: !heaps
  done;
  let window = now () -. t_start in
  let lat = !lat in
  let n = List.length lat in
  let heap_mb = top_heap_mb () in
  let p90 = supported_p ~cap:0.9 n and p_tail = supported_p ~cap:0.99 n in
  let e2e =
    [
      metric "setup_s" "s" setup_s;
      metric "suite_s" "s" (Hashtbl.fold (fun _ ms acc -> acc +. (median ms /. 1e3)) by_query 0.);
      metric "query_p50_ms" "ms" (median lat);
      metric "query_p90_ms" "ms" (percentile lat p90);
      metric "serve_qps" "1/s" (float_of_int n /. (sum lat /. 1e3));
      metric "serve_p50_ms" "ms" (median lat);
      metric "serve_p99_ms" "ms" (percentile lat p_tail);
      metric "miss_p50_ms" "ms" (median lat);
      metric "update_p50_ms" "ms" (median !updates);
      metric "peak_heap_mb" "MB" heap_mb;
    ]
  in
  let per_pass f = median (List.map f !pass_counts) in
  let dist f = per_pass (fun (_, _, m) -> f m) in
  let total_ms k = Option.value ~default:0. (Hashtbl.find_opt layer_self k) in
  let per_query k = total_ms k /. float_of_int (max 1 !traced_n) in
  let layers =
    if not trace then []
    else
      [
        metric "rpq.translate_ms" "ms" (per_query "rpq.translate");
        metric "cost.stats_ms" "ms" (per_query "cost.stats");
        metric "cost.estimate_calls" "count" (per_pass (fun (p, _, _) -> float_of_int p));
        metric "cost.estimate_ms" "ms" (per_query "cost.estimate");
        metric "rewrite.self_ms" "ms" (per_query "rewrite.optimize");
        metric "rewrite.plans" "count" (per_pass (fun (p, _, _) -> float_of_int p));
        metric "rewrite.best_cost_geo" "cost"
          (let costs = List.sort compare (List.of_seq (Hashtbl.to_seq chosen)) in
           exp (mean (List.map (fun (_, c) -> log (Float.max c 1.)) costs)));
        metric "physical.exec_ms" "ms"
          (per_query "physical.session" +. per_query "physical.exec_dds");
        metric "physical.iterations" "count" (per_pass (fun (_, i, _) -> float_of_int i));
        metric "distsim.collect_ms" "ms" (per_query "distsim.collect");
        metric "distsim.shuffles" "count" (dist (fun m -> float_of_int m.shuffles));
        metric "distsim.shuffled_records" "count"
          (dist (fun m -> float_of_int m.shuffled_records));
        metric "distsim.shuffled_bytes" "bytes" (dist (fun m -> float_of_int m.shuffled_bytes));
        metric "distsim.broadcast_records" "count"
          (dist (fun m -> float_of_int m.broadcast_records));
        metric "distsim.stages" "count" (dist (fun m -> float_of_int m.stages));
        metric "distsim.sim_s" "s" (dist (fun m -> m.sim_time_ns /. 1e9));
        metric "gc.alloc_mb" "MB" (median !alloc);
        metric "gc.major_collections" "count" (median !majors);
        metric "trace.overhead_frac" "frac" (median !ratios -. 1.);
        metric "trace.coverage_frac" "frac"
          (let layers = List.fold_left (fun a k -> a +. total_ms k) 0. layer_spans in
           layers /. (layers +. total_ms "query"));
      ]
  in
  {
    attempted = !attempted;
    failed = !failed;
    e2e;
    layers;
    context =
      [
        ("passes", json_num (float_of_int (List.length !passes)));
        ("pass_wall_s", Trace.Json.arr (List.rev_map json_num !passes));
        ("speed_factor_median", json_num (median !factors));
        ("top_heap_mb_by_pass", Trace.Json.arr (List.rev_map json_num !heaps));
        ("query_samples", json_num (float_of_int n));
        ("update_samples", json_num (float_of_int (List.length !updates)));
        ("query_p90_ms_percentile", json_num p90);
        ("serve_p99_ms_percentile", json_num p_tail);
        ("window_s", json_num window);
      ]
      @
      if not trace then []
      else
        [
          ("traced_queries", json_num (float_of_int !traced_n));
          ("trace_overhead_base", json_str "median traced/untraced time of paired executions");
          ( "trace_coverage_base_ms",
            json_num (List.fold_left (fun a k -> a +. total_ms k) (total_ms "query") layer_spans) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Serving mix                                                         *)
(* ------------------------------------------------------------------ *)

type response = {
  r_qid : string;
  r_ms : float;
  r_v0 : int;  (* graph version at submission *)
  r_v1 : int;  (* graph version at return *)
  r_rel : Rel.t;
  r_hit : bool;
  r_repaired : bool;
  r_shared : bool;
  r_plan_hit : bool;
  r_iterations : int;
  r_wait_ms : float;
  r_exec_ms : float;
}

type serve_window = {
  responses : response list;
  errors : int;  (* queries that raised *)
  updates : float list;  (* Serve.update latencies, ms *)
  rounds : float list;  (* seconds between consecutive updates of one segment *)
  wall : float;  (* seconds the clients ran, summed over segments *)
  busy : float;  (* [wall] scaled to the reference host speed *)
  factor : float;  (* to the reference host speed *)
  kernel_s : float;  (* median paired kernel time *)
  live_mb : (float * float) list;
      (* (updates applied, live heap MB) at the compactions around segments, in order *)
  alloc_mb : float;  (* allocated while the clients ran *)
  majors : int;  (* major collections while the clients ran *)
  stats0 : Serve.stats;  (* at the start of the window *)
  stats : Serve.stats;
  metrics : Metrics.t;
  self : (string, float) Hashtbl.t;  (* traced windows: span self times, ms *)
  loops_ms : float;  (* traced windows: client loop time, summed over clients *)
}

(* The query stream: every block of [updates_every] queries holds each
   query in proportion to its Zipf weight (rank k weighs 1/(k+1); counts
   rounded by largest remainder), in a seeded order. Fixing the mix per
   block keeps the work of a window independent of the seed, which only
   orders it. *)
let schedule ~seed ~n ~blocks =
  let w = Array.init n (fun k -> 1. /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let exact = Array.map (fun x -> x *. float_of_int updates_every /. total) w in
  let counts = Array.map (fun x -> int_of_float x) exact in
  let short = updates_every - Array.fold_left ( + ) 0 counts in
  let rem k = exact.(k) -. float_of_int counts.(k) in
  let by_rem = List.stable_sort (fun a b -> compare (rem b) (rem a)) (List.init n Fun.id) in
  List.iteri (fun i k -> if i < short then counts.(k) <- counts.(k) + 1) by_rem;
  let block = Array.concat (Array.to_list (Array.mapi (fun k c -> Array.make c k) counts)) in
  let rng = Graphgen.Rng.create seed in
  Array.concat
    (List.init blocks (fun _ ->
         let b = Array.copy block in
         Graphgen.Rng.shuffle rng b;
         b))

let make_server g qs =
  let cluster = Cluster.make ~workers () in
  let t = Serve.create ~max_inflight ~max_plans ~cluster () in
  Serve.register t "E" g;
  let sn = Serve.open_session ~name:"warm-up" t in
  List.iter (fun (_, text) -> ignore (Serve.query_ucrpq t sn text)) qs;
  Serve.close_session t sn;
  t

(* Two client domains in a closed loop with no think time, taking the
   next query of the [schedule] in turn. Client 0 applies the next update
   batch whenever the global query count crosses a multiple of
   [updates_every]. The window runs as [segments] equal segments. Before,
   between and after them both clients are parked, and the host-speed
   kernel runs on a compacted heap; the window's times are scaled by the
   median of all these samples. With [max_ops], the window is one segment
   that ends after that many queries instead of after [seconds]. *)
let serve_window ~t ~qs ~seed ~seconds ?max_ops ~segments ~batch ~traced () =
  let qa = Array.of_list qs in
  let order = schedule ~seed ~n:(Array.length qa) ~blocks:1000 in
  let tr = if traced then Trace.make () else Trace.disabled in
  let sp name f = Trace.span tr ~cat:"bench" name f in
  let issued = Atomic.make 0 and errors = Atomic.make 0 and applied = ref 0 in
  let m0 = Metrics.create () in
  Metrics.add m0 (Cluster.metrics (Serve.cluster t));
  let v_base = Serve.graph_version t in
  let stats0 = Serve.stats t in
  let segments = if max_ops = None then segments else 1 in
  let host = speed () and live = ref [] in
  let calibrate () =
    Gc.compact ();
    live :=
      (float_of_int !applied, float_of_int ((Gc.stat ()).live_words * (Sys.word_size / 8)) /. 1e6)
      :: !live;
    sample_speed_pair host 4
  in
  (* one client's loop over one segment: its responses, the update
     latencies and completion stamps (client 0), and its loop time *)
  let client i sn deadline () =
    Trace.with_tid (100 + i) @@ fun () ->
    let more () =
      match max_ops with Some k -> Atomic.get issued < k | None -> now () < deadline
    in
    let out = ref [] and updates = ref [] and stamps = ref [] in
    let l0 = now () in
    while more () do
      let qid, text = qa.(order.(Atomic.fetch_and_add issued 1 mod Array.length order)) in
      let v0 = Serve.graph_version t in
      let t0 = now () in
      (match
         sp "query" (fun () ->
             let term = sp "rpq.translate" (fun () -> translate text) in
             sp "serve.query" (fun () -> Serve.query t sn term))
       with
      | exception e ->
        if Atomic.fetch_and_add errors 1 < 5 then
          Printf.eprintf "serve query %s failed: %s\n%!" qid (Printexc.to_string e)
      | r ->
        let ms = (now () -. t0) *. 1e3 in
        out :=
          {
            r_qid = qid;
            r_ms = ms;
            r_v0 = v0 - v_base;
            r_v1 = Serve.graph_version t - v_base;
            r_rel = r.Serve.rel;
            r_hit = r.Serve.result_hit;
            r_repaired = r.Serve.repaired;
            r_shared = r.Serve.shared;
            r_plan_hit = r.Serve.plan_hit;
            r_iterations = r.Serve.iterations;
            r_wait_ms = r.Serve.wait_ns /. 1e6;
            r_exec_ms = r.Serve.exec_ns /. 1e6;
          }
          :: !out);
      if i = 0 && Atomic.get issued / updates_every > !applied then begin
        incr applied;
        let inserts, deletes = batch (Serve.graph_version t - v_base + 1) in
        let t0 = now () in
        sp "update" (fun () -> sp "serve.update" (fun () -> Serve.update ~inserts ~deletes t "E"));
        let t1 = now () in
        updates := ((t1 -. t0) *. 1e3) :: !updates;
        stamps := t1 :: !stamps
      end
    done;
    (!out, !updates, !stamps, now () -. l0)
  in
  let sn = Array.init 2 (fun i -> Serve.open_session ~name:(Printf.sprintf "client-%d" i) t) in
  let rec gaps = function a :: (b :: _ as rest) -> (a -. b) :: gaps rest | _ -> [] in
  let responses = ref [] and updates = ref [] and rounds = ref [] in
  let wall = ref 0. and loops = ref 0. and alloc = ref 0. and majors = ref 0 in
  calibrate ();
  for _ = 1 to segments do
    let gc0 = Gc.quick_stat () in
    let t_start = now () in
    let deadline = t_start +. (seconds /. float_of_int segments) in
    let d1 = Domain.spawn (client 1 sn.(1) deadline) in
    let r0, u0, s0, l0 = client 0 sn.(0) deadline () in
    let r1, _, _, l1 = Domain.join d1 in
    let w = now () -. t_start in
    let gc1 = Gc.quick_stat () in
    alloc := !alloc +. (gc_alloc_mb gc1 -. gc_alloc_mb gc0);
    majors := !majors + (gc1.major_collections - gc0.major_collections);
    calibrate ();
    responses := r0 @ r1 @ !responses;
    updates := u0 @ !updates;
    rounds := gaps s0 @ !rounds;
    wall := !wall +. w;
    loops := !loops +. ((l0 +. l1) *. 1e3)
  done;
  let f = factor ~ref_s:calib_pair_ref_s host in
  let scale = List.map (fun x -> x *. f) in
  Array.iter (Serve.close_session t) sn;
  let m = Metrics.create () in
  Metrics.add m (Cluster.metrics (Serve.cluster t));
  let sub a b = a - b in
  let delta =
    {
      m with
      Metrics.shuffles = sub m.shuffles m0.shuffles;
      shuffled_records = sub m.shuffled_records m0.shuffled_records;
      shuffled_bytes = sub m.shuffled_bytes m0.shuffled_bytes;
      broadcast_records = sub m.broadcast_records m0.broadcast_records;
      stages = sub m.stages m0.stages;
      sim_time_ns = m.sim_time_ns -. m0.sim_time_ns;
    }
  in
  {
    responses = List.map (fun r -> { r with r_ms = r.r_ms *. f }) !responses;
    errors = Atomic.get errors;
    updates = scale !updates;
    rounds = scale !rounds;
    wall = !wall;
    busy = !wall *. f;
    factor = f;
    kernel_s = median host.samples;
    live_mb = List.rev !live;
    alloc_mb = !alloc;
    majors = !majors;
    stats0;
    stats = Serve.stats t;
    metrics = delta;
    self = self_times (Trace.events tr);
    loops_ms = !loops;
  }

(* Check every response against the oracle at some graph version between
   its submission and its return. Version [v] is replayed from the base
   graph and the batch stream, which are pure functions of the seed. A
   query reads only the edges whose labels it names, so its answer at [v]
   is its answer at the last version whose batch touched one of those
   labels: version 0 takes the golden digest, later ones run [Mura.Eval]
   on the query's plan as optimized on the base graph (the rewriter's
   plans are equivalent on every graph, and the one-shot workloads check
   them against the goldens), because the oracle on the translated term
   takes tens of seconds on Q9. Returns the number of mismatches. *)
let serve_parity ~chk ~g ~qs ~batch responses =
  let pred = Option.get (List.find_index (( = ) "pred") (Schema.cols (Rel.schema g))) in
  let info = Hashtbl.create 32 in
  let query_info qid =
    match Hashtbl.find_opt info qid with
    | Some x -> x
    | None ->
      let text = List.assoc qid qs in
      let labels =
        List.concat_map
          (fun (q : Rpq.Query.t) ->
            List.concat_map (fun (a : Rpq.Query.atom) -> Rpq.Regex.labels a.path) q.atoms)
          (Rpq.Query.parse_union text)
      in
      let x = (labels, Systems.optimize [ ("E", g) ] (translate text)) in
      Hashtbl.replace info qid x;
      x
  in
  let reference = Hashtbl.create 256 in
  let bad = ref 0 in
  (* touched.(v): labels of the edges batch [v] inserts or deletes *)
  let touched = ref [| [] |] and graph = ref g in
  let goto v =
    while Array.length !touched <= v do
      let ins, del = batch (Array.length !touched) in
      let ls = Rel.fold (fun tu acc -> Value.to_string tu.(pred) :: acc) ins [] in
      let ls = Rel.fold (fun tu acc -> Value.to_string tu.(pred) :: acc) del ls in
      touched := Array.append !touched [| ls |];
      graph := Rel.union (Rel.diff !graph del) ins
    done
  in
  let refdigest qid v =
    goto v;
    let labels, plan = query_info qid in
    let rec last_change v =
      if v = 0 || List.exists (fun l -> List.mem l labels) !touched.(v) then v
      else last_change (v - 1)
    in
    let c = last_change v in
    match Hashtbl.find_opt reference (qid, c) with
    | Some d -> d
    | None ->
      let d =
        if c = 0 then Option.get (expected chk qid)
        else digest (Mura.Eval.eval (Mura.Eval.env [ ("E", !graph) ]) plan)
      in
      Hashtbl.replace reference (qid, c) d;
      d
  in
  let digests = Hashtbl.create 64 in
  let digest_of r =
    let known = Option.value ~default:[] (Hashtbl.find_opt digests r.r_qid) in
    match List.assq_opt r.r_rel known with
    | Some d -> d
    | None ->
      let d = digest r.r_rel in
      Hashtbl.replace digests r.r_qid ((r.r_rel, d) :: known);
      d
  in
  let pending = ref (List.sort (fun a b -> compare a.r_v0 b.r_v0) responses) in
  let active = ref [] in
  let vmax = List.fold_left (fun m r -> max m r.r_v1) 0 responses in
  for v = 0 to vmax do
    let starting, later = List.partition (fun r -> r.r_v0 <= v) !pending in
    pending := later;
    active :=
      List.filter
        (fun r ->
          if refdigest r.r_qid v = digest_of r then false
          else if r.r_v1 > v then true
          else begin
            incr bad;
            if !bad <= 5 then
              Printf.eprintf
                "serve parity: %s at versions %d..%d: got %s, want %s (hit %b, repaired %b, \
                 shared %b)\n%!"
                r.r_qid r.r_v0 r.r_v1 (digest_of r)
                (String.concat " or "
                   (List.init (r.r_v1 - r.r_v0 + 1) (fun i -> refdigest r.r_qid (r.r_v0 + i))))
                r.r_hit r.r_repaired r.r_shared;
            false
          end)
        (starting @ !active)
  done;
  !bad

(* segments of the untraced serve window *)
let segments = 10

(* The server's live heap grows with every update it applies, so the
   serve [peak_heap_mb] is read at a fixed point of the update stream:
   the live heap after [heap_updates] updates, interpolated linearly
   between the compactions around it (extrapolated from the last two if
   the window ends before). *)
let heap_updates = 50

let live_at ~updates points =
  let u = float_of_int updates in
  let line (u0, m0) (u1, m1) = if u1 = u0 then m1 else m0 +. ((m1 -. m0) *. (u -. u0) /. (u1 -. u0)) in
  let rec go = function
    | a :: (b :: _ as rest) -> if fst b >= u || rest = [ b ] then line a b else go rest
    | [ (_, m) ] -> m
    | [] -> nan
  in
  match points with (u0, m0) :: _ when u0 >= u -> m0 | _ -> go points

let run_serve ~chk ~seed ~seconds ~trace ~scale ~graph_seed =
  let last = ref None in
  let (g, qs, t), setup_s =
    timed_setup (fun () ->
        Option.iter (fun (_, _, t) -> Serve.shutdown t) !last;
        last := None;
        let g = generate Yago ~seed:graph_seed ~scale in
        let qs = serve_queries g in
        let t = make_server g qs in
        last := Some (g, qs, t);
        (g, qs, t))
  in
  last := None;
  let batch = make_batch ~graph_seed g in
  let w =
    serve_window ~t ~qs ~seed ~seconds:(if trace then seconds /. 2. else seconds) ~segments
      ~batch ~traced:false ()
  in
  Serve.shutdown t;
  let wt =
    if not trace then None
    else begin
      let t2 = make_server g qs in
      let wt =
        serve_window ~t:t2 ~qs ~seed ~seconds ~max_ops:(List.length w.responses) ~segments
          ~batch ~traced:true ()
      in
      Serve.shutdown t2;
      Some wt
    end
  in
  let all = w.responses @ (match wt with Some x -> x.responses | None -> []) in
  let bad = serve_parity ~chk ~g ~qs ~batch all in
  let lat = List.map (fun r -> r.r_ms) w.responses in
  let n = List.length lat in
  let evaluated = List.filter (fun r -> not r.r_hit) w.responses in
  let misses = List.map (fun r -> r.r_ms) evaluated in
  let p_tail = supported_p ~cap:0.99 n in
  let e2e =
    [
      metric "setup_s" "s" setup_s;
      metric "suite_s" "s" (median w.rounds);
      metric "query_p50_ms" "ms" (median lat);
      metric "query_p90_ms" "ms" (percentile lat (supported_p ~cap:0.9 n));
      metric "serve_qps" "1/s" (float_of_int n /. w.busy);
      metric "serve_p50_ms" "ms" (median lat);
      metric "serve_p99_ms" "ms" (percentile lat p_tail);
      metric "miss_p50_ms" "ms" (median misses);
      metric "update_p50_ms" "ms" (median w.updates);
      metric "peak_heap_mb" "MB" (live_at ~updates:heap_updates w.live_mb);
    ]
  in
  let rounds = float_of_int (max 1 (List.length w.updates)) in
  let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let count f = List.length (List.filter f w.responses) in
  let s = w.stats and s0 = w.stats0 in
  let repaired = s.repaired - s0.repaired in
  let fallbacks = s.repair_fallbacks - s0.repair_fallbacks in
  let layers =
    match wt with
    | None -> []
    | Some wt ->
      let self k = Option.value ~default:0. (Hashtbl.find_opt wt.self k) in
      let nt = float_of_int (List.length wt.responses) in
      let per_round x = float_of_int x /. rounds in
      [
        metric "rpq.translate_ms" "ms" (self "rpq.translate" /. nt);
        metric "physical.iterations" "count"
          (per_round (List.fold_left (fun a r -> a + r.r_iterations) 0 w.responses));
        metric "distsim.shuffles" "count" (per_round w.metrics.shuffles);
        metric "distsim.shuffled_records" "count" (per_round w.metrics.shuffled_records);
        metric "distsim.shuffled_bytes" "bytes" (per_round w.metrics.shuffled_bytes);
        metric "distsim.broadcast_records" "count" (per_round w.metrics.broadcast_records);
        metric "distsim.stages" "count" (per_round w.metrics.stages);
        metric "distsim.sim_s" "s" (w.metrics.sim_time_ns /. 1e9 /. rounds);
        metric "gc.alloc_mb" "MB" (w.alloc_mb /. rounds);
        metric "gc.major_collections" "count" (per_round w.majors);
        metric "serve.result_hit_frac" "frac" (frac (count (fun r -> r.r_hit)) n);
        metric "serve.plan_hit_frac" "frac"
          (frac
             (List.length (List.filter (fun r -> r.r_plan_hit) evaluated))
             (List.length evaluated));
        metric "serve.repair_frac" "frac" (frac repaired (repaired + fallbacks));
        metric "serve.fix_evals" "count" (per_round (s.fix_evals - s0.fix_evals));
        metric "serve.wait_ms_p50" "ms" (median (List.map (fun r -> r.r_wait_ms) evaluated));
        metric "serve.exec_ms_p50" "ms" (median (List.map (fun r -> r.r_exec_ms) evaluated));
        metric "trace.overhead_frac" "frac"
          ((wt.wall /. nt) /. (w.wall /. float_of_int n) -. 1.);
        metric "trace.coverage_frac" "frac"
          ((self "rpq.translate" +. self "serve.query" +. self "serve.update") /. wt.loops_ms);
      ]
  in
  {
    attempted =
      List.length all + List.length w.updates + w.errors
      + (match wt with Some x -> x.errors | None -> 0);
    failed = bad + w.errors + (match wt with Some x -> x.errors | None -> 0);
    e2e;
    layers;
    context =
      [
        ("query_samples", json_num (float_of_int n));
        ("miss_samples", json_num (float_of_int (List.length misses)));
        ("update_samples", json_num (float_of_int (List.length w.updates)));
        ("rounds", json_num (float_of_int (List.length w.rounds)));
        ("query_p90_ms_percentile", json_num (supported_p ~cap:0.9 n));
        ("serve_p99_ms_percentile", json_num p_tail);
        ("window_s", json_num w.wall);
        ("serve_qps_raw", json_num (float_of_int n /. w.wall));
        ("speed_factor", json_num w.factor);
        ("max_inflight", json_num (float_of_int max_inflight));
        ("kernel_pair_s_median", json_num w.kernel_s);
        ( "live_mb_by_updates",
          Trace.Json.arr
            (List.map (fun (u, mb) -> Trace.Json.arr [ json_num u; json_num mb ]) w.live_mb) );
        ( "peak_heap_mb_base",
          json_str "live heap after heap_updates updates, from the compactions around segments" );
        ("heap_updates", json_num (float_of_int heap_updates));
        ("repaired", json_num (float_of_int repaired));
        ("repair_fallbacks", json_num (float_of_int fallbacks));
        ("repair_frac_base", json_num (float_of_int (repaired + fallbacks)));
      ];
  }

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

(* Every run reports every metric of its kind; a layer a workload never
   reaches (the serving layer on the one-shot workloads) or cannot be
   observed from outside (planning inside [Serve.query]) reads 0, and the
   context lists those names. *)
let layer_metrics =
  [
    ("rpq.translate_ms", "ms");
    ("cost.stats_ms", "ms");
    ("cost.estimate_calls", "count");
    ("cost.estimate_ms", "ms");
    ("rewrite.self_ms", "ms");
    ("rewrite.plans", "count");
    ("rewrite.best_cost_geo", "cost");
    ("physical.exec_ms", "ms");
    ("physical.iterations", "count");
    ("distsim.collect_ms", "ms");
    ("distsim.shuffles", "count");
    ("distsim.shuffled_records", "count");
    ("distsim.shuffled_bytes", "bytes");
    ("distsim.broadcast_records", "count");
    ("distsim.stages", "count");
    ("distsim.sim_s", "s");
    ("gc.alloc_mb", "MB");
    ("gc.major_collections", "count");
    ("serve.result_hit_frac", "frac");
    ("serve.plan_hit_frac", "frac");
    ("serve.repair_frac", "frac");
    ("serve.fix_evals", "count");
    ("serve.wait_ms_p50", "ms");
    ("serve.exec_ms_p50", "ms");
    ("trace.overhead_frac", "frac");
    ("trace.coverage_frac", "frac");
  ]

let complete measured =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun m -> m.m_name = name) measured with
      | Some m -> (m, true)
      | None -> (metric name unit 0., false))
    layer_metrics

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let goldens = ref "perfbench/goldens.tsv" and context = ref "" and corrupt = ref false in
  let yago_scale = ref default_scale and uniprot_scale = ref default_scale in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N run seed (query order, serve mix, update stream)");
      ("--seconds", Arg.Set_float seconds, "S measurement window");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--goldens", Arg.Set_string goldens, "FILE golden digests");
      ("--context", Arg.Set_string context, "FILE write the run context here (JSON)");
      ("--corrupt-digest", Arg.Set corrupt, " corrupt one golden digest (self-test)");
      ("--yago-scale", Arg.Set_int yago_scale, "N Yago-like scale");
      ("--uniprot-scale", Arg.Set_int uniprot_scale, "N Uniprot-like scale");
    ]
  in
  Arg.parse_argv ~current:(ref 1) Sys.argv specs
    (fun a -> raise (Arg.Bad a))
    "perfbench (run|goldens) ...";
  let scale = function Yago -> !yago_scale | Uniprot -> !uniprot_scale in
  match cmd with
  | "goldens" ->
    List.iter
      (fun kind ->
        regen_goldens ~file:!goldens kind ~seed:(default_graph_seed kind) ~scale:(scale kind))
      [ Yago; Uniprot ]
  | "run" ->
    let w =
      match List.find_opt (fun w -> w.name = !workload) workloads with
      | Some w -> w
      | None -> failwith ("unknown workload " ^ !workload)
    in
    let kind = w.kind and graph_seed = default_graph_seed w.kind in
    let chk =
      { goldens = load_goldens !goldens; gkind = kind; gseed = graph_seed; gscale = scale kind }
    in
    let g = generate kind ~seed:graph_seed ~scale:(scale kind) in
    let qs = if w.serve then serve_queries g else queries kind g in
    List.iter
      (fun (qid, _) ->
        if expected chk qid = None then
          failwith (Printf.sprintf "no golden digest for %s in %s: run goldens" qid !goldens))
      qs;
    if !corrupt then begin
      let key = golden_key kind ~seed:graph_seed ~scale:(scale kind) (fst (List.hd qs)) in
      Hashtbl.replace chk.goldens key ("corrupted:" ^ Hashtbl.find chk.goldens key)
    end;
    let run = if w.serve then run_serve else run_oneshot ~kind in
    let r =
      run ~chk ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~scale:(scale kind) ~graph_seed
    in
    let layers = complete r.layers in
    let metrics = if !trace = 1 then List.map fst layers else r.e2e in
    if !context <> "" then
      Out_channel.with_open_text !context (fun oc ->
          let i n = json_num (float_of_int n) in
          output_string oc
            (Trace.Json.obj
               ([
                  ("workload", json_str w.name);
                  ("seed", i !seed);
                  ("trace", i !trace);
                  ("seconds", json_num !seconds);
                  ("graph", json_str (kind_name kind));
                  ("graph_seed", i graph_seed);
                  ("scale", i (scale kind));
                  ("edges", i (Rel.cardinal g));
                  ("workers", i workers);
                  ("max_plans", i max_plans);
                  ("setup_repeats", i setup_repeats);
                  ("host_cores", i (Domain.recommended_domain_count ()));
                  ("ocaml_version", json_str Sys.ocaml_version);
                  ("attempted", i r.attempted);
                  ("failed", i r.failed);
                  ( "failed_frac",
                    json_num (float_of_int r.failed /. float_of_int (max 1 r.attempted)) );
                ]
               @ (if !trace = 0 then []
                  else
                    [
                      ( "not_on_path",
                        Trace.Json.arr
                          (List.filter_map
                             (fun (m, seen) -> if seen then None else Some (json_str m.m_name))
                             layers) );
                    ])
               @ r.context)));
    print_endline
      (Trace.Json.obj
         [
           ("correct", if r.failed = 0 then "true" else "false");
           ("attempted", string_of_int r.attempted);
           ("failed", string_of_int r.failed);
           ("metrics", metrics_json metrics);
         ]);
    if r.failed > 0 then exit 1
  | _ ->
    prerr_endline "usage: perfbench (run|goldens) [options]";
    exit 2
