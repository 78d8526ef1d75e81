(* Tests for the serving layer: result-cache hits skip the fixpoint
   entirely, cached results are bit-identical to uncached evaluation
   across fixpoint plans and worker counts, registration invalidates
   exactly the dependent entries, the LRU byte budget evicts, admission
   is fair across sessions, and concurrent queries sharing a fixpoint
   subterm evaluate it exactly once. *)

open Relation
module Term = Mura.Term
module Patterns = Mura.Patterns
module Exec = Physical.Exec
module Cluster = Distsim.Cluster
module Metrics = Distsim.Metrics

let sch = Schema.of_list
let rel schema rows = Rel.of_list (sch schema) rows
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_rel msg expected actual =
  if not (Rel.equal expected actual) then
    Alcotest.failf "%s:@.expected %a@.got %a" msg Rel.pp_full expected Rel.pp_full actual

(* two chains joined through a cycle: several fixpoint iterations *)
let edges =
  rel [ "src"; "trg" ]
    [
      [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 5 ]; [ 5; 6 ];
      [ 10; 11 ]; [ 11; 12 ]; [ 12; 10 ];
      [ 3; 10 ]; [ 6; 1 ];
    ]

let edges2 = rel [ "src"; "trg" ] [ [ 1; 2 ]; [ 2; 3 ]; [ 7; 8 ] ]
let eval_on graph term = Mura.Eval.eval (Mura.Eval.env [ ("E", graph) ]) term

let make_serve ?max_inflight ?result_cache_bytes ?max_repair_handles ?repair_max_delta_frac
    ?force_plan ?(workers = 2) ?(parallel = false) () =
  let cluster = Cluster.make ~parallel ~workers () in
  let config =
    match force_plan with
    | None -> None
    | Some _ -> Some { (Exec.default_config cluster) with Exec.force_plan }
  in
  let t =
    Serve.create ?max_inflight ?result_cache_bytes ?max_repair_handles ?repair_max_delta_frac
      ?config ~cluster ()
  in
  Serve.register t "E" edges;
  t

(* ---- result cache: repeat query skips the fixpoint ---- *)

let test_result_cache_hit () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  let q = Patterns.closure (Term.Rel "E") in
  let r1 = Serve.query t sn q in
  check_bool "first is a miss" false r1.Serve.result_hit;
  check_bool "first ran iterations" true (r1.Serve.iterations > 0);
  check_rel "first is correct" (eval_on edges q) r1.Serve.rel;
  (* metrics must stay flat across the hit: no stage runs at all *)
  let m = Cluster.metrics (Serve.cluster t) in
  let supersteps_before = m.Metrics.supersteps and stages_before = m.Metrics.stages in
  (* a fresh translation of the same query: different fresh names *)
  let r2 = Serve.query t sn (Patterns.closure (Term.Rel "E")) in
  check_bool "second is a hit" true r2.Serve.result_hit;
  check_int "second runs no iterations" 0 r2.Serve.iterations;
  check_int "no superstep ran" supersteps_before m.Metrics.supersteps;
  check_int "no stage ran" stages_before m.Metrics.stages;
  check_bool "identical result object" true (r1.Serve.rel == r2.Serve.rel);
  let s = Serve.stats t in
  check_int "one hit" 1 s.Serve.result_hits;
  check_int "one miss" 1 s.Serve.result_misses;
  Serve.shutdown t

(* unoptimized submissions share the entry with optimized ones *)
let test_optimize_flag_shares_entry () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  let q = Patterns.closure (Term.Rel "E") in
  let r1 = Serve.query ~optimize:false t sn q in
  let r2 = Serve.query t sn q in
  check_bool "hit across optimize flag" true r2.Serve.result_hit;
  check_rel "same contents" r1.Serve.rel r2.Serve.rel;
  Serve.shutdown t

(* ---- parity: cached results bit-identical across plans and workers ---- *)

let test_parity_across_plans () =
  let q () = Patterns.closure (Term.Rel "E") in
  let expected = eval_on edges (q ()) in
  List.iter
    (fun (force_plan, workers) ->
      let t = make_serve ?force_plan ~workers () in
      let sn = Serve.open_session t in
      let miss = Serve.query t sn (q ()) in
      let hit = Serve.query t sn (q ()) in
      check_bool "hit" true hit.Serve.result_hit;
      check_rel "uncached matches oracle" expected miss.Serve.rel;
      check_rel "cached matches uncached" miss.Serve.rel hit.Serve.rel;
      Serve.shutdown t)
    [
      (None, 1); (None, 4);
      (Some Exec.P_gld, 1); (Some Exec.P_gld, 4);
      (Some Exec.P_plw_s, 1); (Some Exec.P_plw_s, 4);
    ]

(* ---- plan cache ---- *)

let test_plan_cache () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  (* same query shape against different constants: distinct result keys,
     distinct plan keys — but an identical resubmission reuses the plan *)
  let r1 = Serve.query t sn (Patterns.reach 1) in
  check_bool "first optimizes" false r1.Serve.plan_hit;
  (* different query, then mutate the graph so the result entry dies but
     the plan entry (still valid? no — plans depend on stats) dies too *)
  let s1 = Serve.stats t in
  check_int "one plan miss" 1 s1.Serve.plan_misses;
  (* force an evaluation of the same normal form again by dropping only
     the result entry: register a different relation name *)
  Serve.register t "F" edges2;
  let r2 = Serve.query t sn (Patterns.reach 1) in
  (* the result entry survived (depends on E only), so this is a hit *)
  check_bool "result survives unrelated register" true r2.Serve.result_hit;
  Serve.shutdown t

(* ---- invalidation: register -> miss -> hit -> mutate -> miss ---- *)

let test_invalidation () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  let q () = Patterns.closure (Term.Rel "E") in
  let v0 = Serve.graph_version t in
  let r1 = Serve.query t sn (q ()) in
  check_bool "miss after register" false r1.Serve.result_hit;
  let r2 = Serve.query t sn (q ()) in
  check_bool "hit" true r2.Serve.result_hit;
  check_bool "identical object" true (r1.Serve.rel == r2.Serve.rel);
  (* mutate the graph *)
  Serve.register t "E" edges2;
  check_bool "version bumped" true (Serve.graph_version t > v0);
  let r3 = Serve.query t sn (q ()) in
  check_bool "miss after mutation" false r3.Serve.result_hit;
  check_rel "fresh result on new graph" (eval_on edges2 (q ())) r3.Serve.rel;
  let s = Serve.stats t in
  check_bool "entries were invalidated" true (s.Serve.invalidated > 0);
  let r4 = Serve.query t sn (q ()) in
  check_bool "hit again on new version" true r4.Serve.result_hit;
  Serve.shutdown t

(* ---- LRU eviction under a small byte budget ---- *)

let test_lru_eviction () =
  (* budget fits one closure result but not two *)
  let q k = Term.Select (Pred.Gt_const ("src", k), Patterns.closure (Term.Rel "E")) in
  let size =
    let r = eval_on edges (q 0) in
    64 + (Metrics.tuple_bytes 2 * Rel.cardinal r)
  in
  let t = make_serve ~result_cache_bytes:(size + (size / 4)) () in
  let sn = Serve.open_session t in
  ignore (Serve.query ~optimize:false t sn (q 0));
  ignore (Serve.query ~optimize:false t sn (q 1));
  let s = Serve.stats t in
  check_bool "evicted" true (s.Serve.evictions > 0);
  check_bool "budget respected" true (s.Serve.result_bytes <= size + (size / 4));
  (* q 0 was evicted (LRU): querying it again is a miss *)
  let r = Serve.query ~optimize:false t sn (q 0) in
  check_bool "evicted entry misses" false r.Serve.result_hit;
  (* while the most recent entry still hits after its own re-insertion *)
  let r' = Serve.query ~optimize:false t sn (q 0) in
  check_bool "reinserted entry hits" true r'.Serve.result_hit;
  Serve.shutdown t

let test_too_big_to_cache () =
  let t = make_serve ~result_cache_bytes:16 () in
  let sn = Serve.open_session t in
  let q () = Patterns.closure (Term.Rel "E") in
  ignore (Serve.query t sn (q ()));
  let r = Serve.query t sn (q ()) in
  check_bool "never cached" false r.Serve.result_hit;
  let s = Serve.stats t in
  check_int "nothing stored" 0 s.Serve.result_entries;
  check_int "no evictions" 0 s.Serve.evictions;
  Serve.shutdown t

(* ---- fairness ---- *)

let test_fair_pick () =
  let served = function 1 -> 1 | _ -> 0 in
  (* session 2 has been served less: it jumps the queue *)
  Alcotest.(check (option (pair int int)))
    "less-served session first"
    (Some (2, 4))
    (Serve.fair_pick ~served [ (1, 2); (1, 3); (2, 4) ]);
  (* equal service: FIFO by arrival *)
  Alcotest.(check (option (pair int int)))
    "fifo on ties"
    (Some (1, 2))
    (Serve.fair_pick ~served:(fun _ -> 0) [ (1, 2); (2, 3) ]);
  Alcotest.(check (option (pair int int))) "empty" None (Serve.fair_pick ~served [])

(* ---- concurrency: identical queries batch onto one evaluation ---- *)

let test_concurrent_identical_queries () =
  let t = make_serve ~max_inflight:1 () in
  let expected = eval_on edges (Patterns.closure (Term.Rel "E")) in
  let n = 4 in
  let domains =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            let sn = Serve.open_session ~name:(Printf.sprintf "client-%d" i) t in
            Serve.query t sn (Patterns.closure (Term.Rel "E"))))
  in
  let rs = List.map Domain.join domains in
  List.iter (fun (r : Serve.response) -> check_rel "every client correct" expected r.Serve.rel) rs;
  let s = Serve.stats t in
  check_int "all completed" n s.Serve.completed;
  check_int "one evaluation" 1 s.Serve.result_misses;
  check_int "everyone else reused it" (n - 1) (s.Serve.result_hits + s.Serve.shared_joins);
  Serve.shutdown t

(* ---- concurrency: distinct queries sharing a fixpoint subterm
   evaluate it exactly once (the acceptance criterion) ---- *)

let test_shared_fixpoint_batching () =
  let t = make_serve ~max_inflight:2 () in
  (* distinct whole queries, same closed fixpoint subterm when executed
     as written *)
  let qa = Patterns.closure (Term.Rel "E") in
  let qb = Term.Select (Pred.Gt_const ("src", 3), qa) in
  let da = Domain.spawn (fun () ->
      let sn = Serve.open_session t in
      Serve.query ~optimize:false t sn qa)
  in
  let db = Domain.spawn (fun () ->
      let sn = Serve.open_session t in
      Serve.query ~optimize:false t sn qb)
  in
  let ra = Domain.join da and rb = Domain.join db in
  check_rel "a correct" (eval_on edges qa) ra.Serve.rel;
  check_rel "b correct" (eval_on edges qb) rb.Serve.rel;
  let s = Serve.stats t in
  (* whatever the interleaving — b waited on a's in-flight fixpoint, or
     found it in the cache, or evaluated first and a reused it — the
     fixpoint ran exactly once. The reuse can surface as a fixpoint hit,
     a join onto the in-flight promise, or (when b finishes before a
     even starts resolving: a's whole term IS the shared fixpoint, and
     the fixpoint and result caches share one normal-key table) as a
     whole-result cache hit. *)
  check_int "exactly one fixpoint evaluation" 1 s.Serve.fix_evals;
  check_int "the other query reused it" 1
    (s.Serve.fix_hits + s.Serve.fix_shared + s.Serve.result_hits);
  Serve.shutdown t

(* the cluster-level guard cannot fire through the serve layer, even
   with several admitted evaluations on real domains *)
let test_no_concurrent_dispatch_through_serve () =
  let t = make_serve ~max_inflight:3 ~workers:2 ~parallel:true () in
  let queries =
    [
      Patterns.closure (Term.Rel "E");
      Term.Select (Pred.Gt_const ("src", 2), Patterns.closure (Term.Rel "E"));
      Term.Project ([ "src" ], Patterns.closure (Term.Rel "E"));
      Patterns.reach 1;
      Patterns.same_generation ();
    ]
  in
  let domains =
    List.map
      (fun q ->
        Domain.spawn (fun () ->
            let sn = Serve.open_session t in
            let r = Serve.query ~optimize:false t sn q in
            check_rel "correct under concurrency" (eval_on edges q) r.Serve.rel))
      queries
  in
  List.iter Domain.join domains;
  let s = Serve.stats t in
  check_int "all completed" (List.length queries) s.Serve.completed;
  check_int "none failed" 0 s.Serve.failed;
  Serve.shutdown t

(* ---- sessions and errors ---- *)

let test_session_lifecycle () =
  let t = make_serve () in
  let a = Serve.open_session ~name:"alice" t in
  let b = Serve.open_session t in
  check_bool "distinct ids" true (Serve.Session.id a <> Serve.Session.id b);
  Alcotest.(check string) "name kept" "alice" (Serve.Session.name a);
  Serve.close_session t a;
  (match Serve.query t a (Patterns.reach 1) with
  | _ -> Alcotest.fail "closed session accepted a query"
  | exception Invalid_argument _ -> ());
  (* failures propagate and are counted; the server survives *)
  (match Serve.query t b (Term.Rel "NOSUCH") with
  | _ -> Alcotest.fail "unknown relation did not fail"
  | exception _ -> ());
  let r = Serve.query t b (Patterns.reach 1) in
  check_rel "server still works" (eval_on edges (Patterns.reach 1)) r.Serve.rel;
  let s = Serve.stats t in
  check_int "failure counted" 1 s.Serve.failed;
  Serve.shutdown t;
  match Serve.query t b (Patterns.reach 1) with
  | _ -> Alcotest.fail "shut-down server accepted a query"
  | exception Invalid_argument _ -> ()

(* ---- incremental repair: updates promote cached fixpoints to
   repairable; the next miss pays only the delta resume ---- *)

let test_update_repairs () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  let q () = Patterns.closure (Term.Rel "E") in
  ignore (Serve.query t sn (q ()));
  let ins = rel [ "src"; "trg" ] [ [ 6; 20 ]; [ 20; 21 ] ] in
  Serve.update ~inserts:ins t "E";
  let updated = Rel.union edges ins in
  check_rel "table updated" updated (Option.get (Serve.relation t "E"));
  let r = Serve.query t sn (q ()) in
  check_bool "post-update miss" false r.Serve.result_hit;
  check_bool "repaired, not recomputed" true r.Serve.repaired;
  check_rel "repaired result correct" (eval_on updated (q ())) r.Serve.rel;
  let s = Serve.stats t in
  check_int "one repair" 1 s.Serve.repaired;
  check_int "only the establishment evaluated" 1 s.Serve.fix_evals;
  check_int "no fallback" 0 s.Serve.repair_fallbacks;
  let r2 = Serve.query t sn (q ()) in
  check_bool "repaired result is cached" true r2.Serve.result_hit;
  Serve.shutdown t

(* rapid successive batches with and without interleaved queries: pending
   deltas merge into a net delta; each repair builds on the previous one *)
let test_rapid_update_batches () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  let q () = Patterns.closure (Term.Rel "E") in
  ignore (Serve.query t sn (q ()));
  let current = ref edges in
  let apply ?inserts ?deletes () =
    Serve.update ?inserts ?deletes t "E";
    (match deletes with Some d -> current := Rel.diff !current d | None -> ());
    match inserts with Some i -> current := Rel.union !current i | None -> ()
  in
  (* two batches, no query in between: deltas merge *)
  apply ~inserts:(rel [ "src"; "trg" ] [ [ 6; 20 ] ]) ();
  apply
    ~inserts:(rel [ "src"; "trg" ] [ [ 20; 21 ] ])
    ~deletes:(rel [ "src"; "trg" ] [ [ 1; 2 ] ])
    ();
  let r = Serve.query t sn (q ()) in
  check_bool "merged batches repaired" true r.Serve.repaired;
  check_rel "merged-delta result correct" (eval_on !current (q ())) r.Serve.rel;
  (* an edge inserted then deleted before any query nets out *)
  apply ~inserts:(rel [ "src"; "trg" ] [ [ 40; 41 ] ]) ();
  apply ~deletes:(rel [ "src"; "trg" ] [ [ 40; 41 ] ]) ();
  let r2 = Serve.query t sn (q ()) in
  check_bool "repair of repair" true r2.Serve.repaired;
  check_rel "cancelling batches correct" (eval_on !current (q ())) r2.Serve.rel;
  (* sustained stream: every round repairs, never re-establishes *)
  for k = 0 to 4 do
    apply ~inserts:(rel [ "src"; "trg" ] [ [ 21 + k; 22 + k ] ]) ();
    let rk = Serve.query t sn (q ()) in
    check_bool "stream round repaired" true rk.Serve.repaired;
    check_rel "stream round correct" (eval_on !current (q ())) rk.Serve.rel
  done;
  let s = Serve.stats t in
  check_int "established exactly once" 1 s.Serve.fix_evals;
  check_int "seven repairs" 7 s.Serve.repaired;
  check_int "no fallbacks" 0 s.Serve.repair_fallbacks;
  Serve.shutdown t

(* updates racing in-flight queries: every response is a consistent
   snapshot (entirely-old or entirely-new), and once the stream settles
   the served result is the fresh one *)
let test_update_mid_evaluation () =
  let t = make_serve ~workers:2 ~parallel:true () in
  let q () = Patterns.closure (Term.Rel "E") in
  ignore (Serve.query t (Serve.open_session t) (q ()));
  let ins = rel [ "src"; "trg" ] [ [ 6; 20 ]; [ 20; 21 ] ] in
  let old_expected = eval_on edges (q ())
  and new_expected = eval_on (Rel.union edges ins) (q ()) in
  let d =
    Domain.spawn (fun () ->
        let sn = Serve.open_session t in
        List.init 8 (fun _ -> Serve.query t sn (q ())))
  in
  Serve.update ~inserts:ins t "E";
  let rs = Domain.join d in
  List.iter
    (fun (r : Serve.response) ->
      check_bool "consistent snapshot" true
        (Rel.equal old_expected r.Serve.rel || Rel.equal new_expected r.Serve.rel))
    rs;
  let r = Serve.query t (Serve.open_session t) (q ()) in
  check_rel "settled result is fresh" new_expected r.Serve.rel;
  check_int "none failed" 0 (Serve.stats t).Serve.failed;
  Serve.shutdown t

(* a delta above the repair threshold falls back to recomputation —
   transparently, with the fallback counted *)
let test_oversized_delta_fallback () =
  let t = make_serve ~repair_max_delta_frac:0.01 () in
  let sn = Serve.open_session t in
  let q () = Patterns.closure (Term.Rel "E") in
  ignore (Serve.query t sn (q ()));
  let ins = rel [ "src"; "trg" ] [ [ 6; 20 ]; [ 20; 21 ] ] in
  Serve.update ~inserts:ins t "E";
  let r = Serve.query t sn (q ()) in
  check_bool "not repaired" false r.Serve.repaired;
  check_rel "fallback result correct" (eval_on (Rel.union edges ins) (q ())) r.Serve.rel;
  let s = Serve.stats t in
  check_int "fallback counted" 1 s.Serve.repair_fallbacks;
  check_int "no repair claimed" 0 s.Serve.repaired;
  check_int "recomputed instead" 2 s.Serve.fix_evals;
  Serve.shutdown t

(* full registration severs the delta chain: handles are dropped, the
   next evaluation re-establishes *)
let test_register_drops_handles () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  let q () = Patterns.closure (Term.Rel "E") in
  ignore (Serve.query t sn (q ()));
  check_int "handle parked" 1 (Serve.stats t).Serve.repair_handles;
  Serve.register t "E" edges2;
  check_int "register drops handles" 0 (Serve.stats t).Serve.repair_handles;
  let r = Serve.query t sn (q ()) in
  check_bool "recomputed after register" false r.Serve.repaired;
  check_rel "fresh graph result" (eval_on edges2 (q ())) r.Serve.rel;
  (* and the re-established handle repairs again *)
  let ins = rel [ "src"; "trg" ] [ [ 3; 9 ] ] in
  Serve.update ~inserts:ins t "E";
  let r2 = Serve.query t sn (q ()) in
  check_bool "repairs on the new graph" true r2.Serve.repaired;
  check_rel "repaired on new graph" (eval_on (Rel.union edges2 ins) (q ())) r2.Serve.rel;
  Serve.shutdown t

(* [max_repair_handles = 0] disables the machinery entirely *)
let test_repair_disabled () =
  let t = make_serve ~max_repair_handles:0 () in
  let sn = Serve.open_session t in
  let q () = Patterns.closure (Term.Rel "E") in
  ignore (Serve.query t sn (q ()));
  let ins = rel [ "src"; "trg" ] [ [ 6; 20 ] ] in
  Serve.update ~inserts:ins t "E";
  let r = Serve.query t sn (q ()) in
  check_bool "never repaired" false r.Serve.repaired;
  check_rel "still correct" (eval_on (Rel.union edges ins) (q ())) r.Serve.rel;
  let s = Serve.stats t in
  check_int "no handles" 0 s.Serve.repair_handles;
  check_int "recomputed" 2 s.Serve.fix_evals;
  Serve.shutdown t

let test_update_validation () =
  let t = make_serve () in
  let ins = rel [ "src"; "trg" ] [ [ 1; 2 ] ] in
  (match Serve.update ~inserts:ins t "NOSUCH" with
  | () -> Alcotest.fail "unknown relation accepted"
  | exception Invalid_argument _ -> ());
  (match Serve.update ~inserts:(rel [ "a"; "b"; "c" ] [ [ 1; 2; 3 ] ]) t "E" with
  | () -> Alcotest.fail "schema mismatch accepted"
  | exception Invalid_argument _ -> ());
  (match Serve.update t "E" with
  | () -> ()  (* empty update is a no-op, not an error *)
  | exception _ -> Alcotest.fail "empty update raised");
  Serve.shutdown t

(* an update that changes no tuple keeps the version and the cache *)
let test_noop_update_keeps_cache () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  let q () = Patterns.closure (Term.Rel "E") in
  ignore (Serve.query t sn (q ()));
  let v = Serve.graph_version t in
  Serve.update t "E";
  Serve.update ~inserts:(rel [ "src"; "trg" ] [ [ 1; 2 ]; [ 6; 1 ] ]) t "E";
  Serve.update ~deletes:(rel [ "src"; "trg" ] [ [ 2; 1 ]; [ 40; 41 ] ]) t "E";
  (* a present tuple both deleted and re-inserted stays present *)
  let x = rel [ "src"; "trg" ] [ [ 3; 4 ] ] in
  Serve.update ~inserts:x ~deletes:x t "E";
  check_int "version unchanged" v (Serve.graph_version t);
  check_int "nothing invalidated" 0 (Serve.stats t).Serve.invalidated;
  let r = Serve.query t sn (q ()) in
  check_bool "still a hit" true r.Serve.result_hit;
  check_rel "still correct" (eval_on edges (q ())) r.Serve.rel;
  Serve.shutdown t

(* a tuple deleted by one batch and re-inserted by the next nets out on
   the parked delta, also when the second batch names it in its deletes
   too: the repair must see it present, as the catalog does *)
let test_reinsert_nets_out () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  let q () = Patterns.closure (Term.Rel "E") in
  ignore (Serve.query t sn (q ()));
  let x = rel [ "src"; "trg" ] [ [ 3; 10 ] ] in
  Serve.update ~deletes:x t "E";
  Serve.update ~inserts:x ~deletes:x t "E";
  check_rel "catalog holds the tuple" edges (Option.get (Serve.relation t "E"));
  let r = Serve.query t sn (q ()) in
  check_bool "repaired" true r.Serve.repaired;
  check_rel "repaired result correct" (eval_on edges (q ())) r.Serve.rel;
  Serve.shutdown t

(* a handle is kept only while an update of its inputs can be repaired.
   [F] is read inside a nested fixpoint and [E] positively: an update to
   F drops the handle without counting a fallback, an update to E
   repairs. A fixpoint that reads its only input inside a nested
   fixpoint keeps no handle at all. *)
let test_unrepairable_handle_dropped () =
  let t = make_serve () in
  Serve.register t "F" edges2;
  let sn = Serve.open_session t in
  let q () = Patterns.closure_from (Term.Rel "E") (Patterns.closure (Term.Rel "F")) in
  let run q =
    let r = Serve.query ~optimize:false t sn q in
    check_rel "correct" (Mura.Eval.eval (Mura.Eval.env (Serve.tables t)) q) r.Serve.rel;
    r
  in
  let handles () = (Serve.stats t).Serve.repair_handles in
  ignore (run (q ()));
  check_int "handle kept" 1 (handles ());
  Serve.update ~inserts:(rel [ "src"; "trg" ] [ [ 3; 7 ] ]) t "F";
  check_int "update to F drops it" 0 (handles ());
  check_bool "recomputed" false (run (q ())).Serve.repaired;
  Serve.update ~inserts:(rel [ "src"; "trg" ] [ [ 6; 20 ] ]) t "E";
  check_bool "update to E repaired" true (run (q ())).Serve.repaired;
  ignore (run (Patterns.closure (Patterns.closure (Term.Rel "E"))));
  check_int "nested-only fixpoint keeps no handle" 1 (handles ());
  check_int "no fallback" 0 (Serve.stats t).Serve.repair_fallbacks;
  Serve.shutdown t

(* two clients at max_inflight 2 query one multi-iteration closure (as a
   whole query and under a selection, so both whole-query and fixpoint
   keys are in play) while the main domain extends the chain after every
   few responses: the closure changes with every update and each miss
   repairs the same handle. A third domain keeps the cluster lock
   contended with [explain], so repairs queue behind one another. Every
   response must equal the oracle at some graph version between its
   submission and its return. *)
let test_concurrent_repairs () =
  let chain n = rel [ "src"; "trg" ] (List.init n (fun i -> [ i; i + 1 ])) in
  let n0 = 16 and updates = 30 in
  let t = Serve.create ~max_inflight:2 ~cluster:(Cluster.make ~workers:2 ()) () in
  Serve.register t "E" (chain n0);
  let v_base = Serve.graph_version t in
  let closure = Patterns.closure (Term.Rel "E") in
  let queries = [| closure; Term.Select (Pred.Gt_const ("src", -1), closure) |] in
  let stop = Atomic.make false and responses = Atomic.make 0 in
  let client i =
    Domain.spawn (fun () ->
        let sn = Serve.open_session t in
        let log = ref [] and k = ref i in
        while not (Atomic.get stop) do
          let qi = !k mod 2 in
          incr k;
          let v0 = Serve.graph_version t - v_base in
          let r = Serve.query ~optimize:false t sn queries.(qi) in
          let v1 = Serve.graph_version t - v_base in
          Atomic.incr responses;
          (* a hit leaves the handle alone: pause, so the run's responses
             are mostly misses *)
          if r.Serve.result_hit then Unix.sleepf 0.0002;
          log := (qi, v0, v1, r.Serve.rel) :: !log
        done;
        !log)
  in
  let clients = [ client 0; client 1 ] in
  let busy =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          ignore (Serve.explain ~optimize:false t closure)
        done)
  in
  let deadline = Unix.gettimeofday () +. 1.0 in
  for k = 1 to updates do
    let seen = Atomic.get responses in
    while Atomic.get responses < seen + 2 && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    Serve.update ~inserts:(rel [ "src"; "trg" ] [ [ n0 + k - 1; n0 + k ] ]) t "E"
  done;
  Atomic.set stop true;
  Domain.join busy;
  let logs = List.concat_map Domain.join clients in
  let oracle = Hashtbl.create 64 in
  let expected qi v =
    match Hashtbl.find_opt oracle (qi, v) with
    | Some r -> r
    | None ->
      let r = eval_on (chain (n0 + v)) queries.(qi) in
      Hashtbl.replace oracle (qi, v) r;
      r
  in
  let wrong =
    List.filter
      (fun (qi, v0, v1, r) ->
        not (List.exists (fun v -> Rel.equal r (expected qi v)) (List.init (v1 - v0 + 1) (( + ) v0))))
      logs
  in
  let s = Serve.stats t in
  Serve.shutdown t;
  check_int "every response matches a version in its window" 0 (List.length wrong);
  check_bool "repairs ran" true (s.Serve.repaired > 0);
  check_int "no query failed" 0 s.Serve.failed

(* the server's live heap is bounded: under an update stream that keeps
   |E| constant, the live words after many repair cycles stay within a
   small slack of those after warm-up *)
let test_heap_bounded () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  let queries = [ Patterns.closure (Term.Rel "E"); Patterns.reach 1 ] in
  (* round k swaps edge (6, 99 + k) for (6, 100 + k) *)
  Serve.update ~inserts:(rel [ "src"; "trg" ] [ [ 6; 100 ] ]) t "E";
  let round k =
    Serve.update
      ~inserts:(rel [ "src"; "trg" ] [ [ 6; 100 + k ] ])
      ~deletes:(rel [ "src"; "trg" ] [ [ 6; 99 + k ] ])
      t "E";
    List.iter (fun q -> ignore (Serve.query t sn q)) queries
  in
  let live () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  for k = 1 to 20 do
    round k
  done;
  let warm = live () in
  for k = 21 to 220 do
    round k
  done;
  let after = live () in
  let s = Serve.stats t in
  Serve.shutdown t;
  check_bool "rounds repaired" true (s.Serve.repaired >= 200);
  if after > warm + 4096 then
    Alcotest.failf "live heap grew from %d to %d words over 200 updates" warm after

let test_wait_accounting () =
  let t = make_serve () in
  let sn = Serve.open_session t in
  ignore (Serve.query t sn (Patterns.closure (Term.Rel "E")));
  let h = Serve.wait_hist t in
  check_bool "wait recorded" true (Metrics.Hist.count h >= 1);
  let l = Serve.latency_hist t in
  check_bool "latency recorded" true (Metrics.Hist.count l >= 1);
  Serve.shutdown t

let () =
  Alcotest.run "serve"
    [
      ( "cache",
        [
          Alcotest.test_case "repeat query hits, zero iterations" `Quick test_result_cache_hit;
          Alcotest.test_case "optimize flag shares entry" `Quick test_optimize_flag_shares_entry;
          Alcotest.test_case "parity across plans and workers" `Quick test_parity_across_plans;
          Alcotest.test_case "plan cache" `Quick test_plan_cache;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "register/mutate cycle" `Quick test_invalidation;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "oversized results bypass" `Quick test_too_big_to_cache;
        ] );
      ( "admission",
        [
          Alcotest.test_case "fair pick" `Quick test_fair_pick;
          Alcotest.test_case "concurrent identical queries" `Quick test_concurrent_identical_queries;
          Alcotest.test_case "shared fixpoint batching" `Quick test_shared_fixpoint_batching;
          Alcotest.test_case "no concurrent dispatch" `Quick test_no_concurrent_dispatch_through_serve;
        ] );
      ( "repair",
        [
          Alcotest.test_case "update then repaired query" `Quick test_update_repairs;
          Alcotest.test_case "rapid successive batches" `Quick test_rapid_update_batches;
          Alcotest.test_case "update mid-evaluation" `Quick test_update_mid_evaluation;
          Alcotest.test_case "oversized delta falls back" `Quick test_oversized_delta_fallback;
          Alcotest.test_case "register drops handles" `Quick test_register_drops_handles;
          Alcotest.test_case "repair disabled" `Quick test_repair_disabled;
          Alcotest.test_case "update validation" `Quick test_update_validation;
          Alcotest.test_case "no-op update keeps the cache" `Quick test_noop_update_keeps_cache;
          Alcotest.test_case "re-insert nets out" `Quick test_reinsert_nets_out;
          Alcotest.test_case "unrepairable handles dropped" `Quick test_unrepairable_handle_dropped;
          Alcotest.test_case "concurrent repairs across updates" `Quick test_concurrent_repairs;
          Alcotest.test_case "live heap bounded" `Quick test_heap_bounded;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "lifecycle and failures" `Quick test_session_lifecycle;
          Alcotest.test_case "wait accounting" `Quick test_wait_accounting;
        ] );
    ]
