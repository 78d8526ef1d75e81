(* Golden communication counters of the distributed executor.

   Each row of [golden_counters.tsv] pins one run, keyed by query ×
   forced fixpoint plan × worker count × [use_compiled_exec]: the result
   (cardinality and an order-independent digest), the fixpoint
   iterations and per-iteration delta curves, and the exchange counters
   (shuffles, shuffled records and bytes, broadcasts, broadcast records,
   seen-filter drops). Runs use fresh sequential clusters, so every
   field is deterministic; any change to what the executor moves or
   derives shows up as a row mismatch, reported with the row the run
   produced. *)

open Relation
module Term = Mura.Term
module Exec = Physical.Exec
module Cluster = Distsim.Cluster
module Metrics = Distsim.Metrics

let rel cols rows = Rel.of_list (Schema.of_list cols) rows

(* a graph with two long chains and a cycle, to force several iterations *)
let edges =
  rel [ "src"; "trg" ]
    [
      [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 5 ]; [ 5; 6 ];
      [ 10; 11 ]; [ 11; 12 ]; [ 12; 10 ];
      [ 3; 10 ]; [ 6; 1 ];
    ]

(* deterministic Erdős–Rényi-ish multigraph (LCG, no global Random
   state; the low state bits alternate parity, so draw from the high
   ones) *)
let er_graph ~n ~m ~seed =
  let state = ref seed in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    (!state lsr 12) mod bound
  in
  rel [ "src"; "trg" ] (List.init m (fun _ -> [ next n; next n ]))

let closure_term = Mura.Patterns.closure (Term.Rel "E")

(* a shell-heavy plan around the closure: select, rename, join,
   antiproject, project, union and antijoin *)
let shell_term =
  let two_hop =
    Term.Antiproject
      ( [ "_m" ],
        Term.Join
          ( Term.Rename ([ ("trg", "_m") ], Term.Rel "E"),
            Term.Rename ([ ("src", "_m") ], Term.Rel "E") ) )
  in
  Term.Antijoin
    ( Term.Union
        ( Term.Select (Pred.Gt_const ("src", 2), two_hop),
          Term.Project ([ "src"; "trg" ], closure_term) ),
      Term.Select (Pred.Eq_const ("src", 1), Term.Rel "E") )

(* query name -> (term, catalog) *)
let queries =
  [
    ("closure", (closure_term, [ ("E", edges) ]));
    ("same_gen", (Mura.Patterns.same_generation (), [ ("E", edges) ]));
    ("shell", (shell_term, [ ("E", er_graph ~n:40 ~m:60 ~seed:7) ]));
  ]

let plans = [ Exec.P_gld; Exec.P_plw_s; Exec.P_plw_pg ]
let worker_counts = [ 1; 4 ]

(* Order-independent digest: MD5 of the sorted printed rows, columns
   taken in name order. *)
let digest r =
  let cols = List.sort compare (Schema.cols (Rel.schema r)) in
  let pos = Schema.positions (Rel.schema r) cols in
  let row tu = String.concat "," (Array.to_list (Array.map (fun i -> Value.to_string tu.(i)) pos)) in
  let rows = List.sort compare (List.map row (Rel.to_list r)) in
  Digest.to_hex (Digest.string (String.concat "\n" (String.concat "," cols :: rows)))

type row = {
  query : string;
  plan : string;
  workers : int;
  compiled : bool;
  cardinality : int;
  digest : string;
  iterations : string;  (* per fixpoint, innermost-first, ';'-separated *)
  deltas : string;  (* per fixpoint delta curves, '|'-separated *)
  shuffles : int;
  shuffled_records : int;
  shuffled_bytes : int;
  broadcasts : int;
  broadcast_records : int;
  dedup_dropped : int;
}

let key r = (r.query, r.plan, r.workers, r.compiled)

let ints sep l = String.concat sep (List.map string_of_int l)

(* Run one keyed configuration and return its row together with the
   collected result. *)
let run ~query ~plan ~workers ~compiled =
  let term, tables = List.assoc query queries in
  let cluster = Cluster.make ~workers () in
  let config =
    { (Exec.default_config cluster) with force_plan = Some plan; use_compiled_exec = compiled }
  in
  let ctx = Exec.session config tables in
  let result = Exec.run ctx term in
  let fixes = (Exec.report ctx).fixpoints in
  let m = Exec.metrics ctx in
  ( {
      query;
      plan = Exec.plan_name plan;
      workers;
      compiled;
      cardinality = Rel.cardinal result;
      digest = digest result;
      iterations = ints ";" (List.map (fun (f : Exec.fix_report) -> f.iterations) fixes);
      deltas = String.concat "|" (List.map (fun (f : Exec.fix_report) -> ints ";" f.deltas) fixes);
      shuffles = m.Metrics.shuffles;
      shuffled_records = m.Metrics.shuffled_records;
      shuffled_bytes = m.Metrics.shuffled_bytes;
      broadcasts = m.Metrics.broadcasts;
      broadcast_records = m.Metrics.broadcast_records;
      dedup_dropped = m.Metrics.dedup_dropped_records;
    },
    result )

let to_line r =
  String.concat "\t"
    [
      r.query; r.plan; string_of_int r.workers; string_of_bool r.compiled;
      string_of_int r.cardinality; r.digest; r.iterations; r.deltas;
      string_of_int r.shuffles; string_of_int r.shuffled_records;
      string_of_int r.shuffled_bytes; string_of_int r.broadcasts;
      string_of_int r.broadcast_records; string_of_int r.dedup_dropped;
    ]

let of_line line =
  match String.split_on_char '\t' line with
  | [ query; plan; workers; compiled; card; digest; iterations; deltas; sh; shr; shb; bc; bcr; dd ]
    ->
    {
      query;
      plan;
      workers = int_of_string workers;
      compiled = bool_of_string compiled;
      cardinality = int_of_string card;
      digest;
      iterations;
      deltas;
      shuffles = int_of_string sh;
      shuffled_records = int_of_string shr;
      shuffled_bytes = int_of_string shb;
      broadcasts = int_of_string bc;
      broadcast_records = int_of_string bcr;
      dedup_dropped = int_of_string dd;
    }
  | _ -> failwith ("golden_counters.tsv: malformed row: " ^ line)


(* Every keyed configuration, in file order. *)
let all_keys =
  List.concat_map
    (fun (query, _) ->
      List.concat_map
        (fun plan ->
          List.concat_map
            (fun workers -> List.map (fun compiled -> (query, plan, workers, compiled)) [ true; false ])
            worker_counts)
        plans)
    queries

let goldens =
  lazy
    (In_channel.with_open_text "golden_counters.tsv" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.map of_line)

(* Run one keyed configuration and check it absolutely: the result
   against the centralized evaluator, and every pinned field (digest,
   iterations, delta curves, exchange counters, seen-filter drops)
   against its golden row. Returns the row. *)
let check ~query ~plan ~workers ~compiled =
  let row, result = run ~query ~plan ~workers ~compiled in
  let label = Printf.sprintf "%s %s w=%d compiled=%b" query row.plan workers compiled in
  let term, tables = List.assoc query queries in
  let expected = Mura.Eval.eval (Mura.Eval.env tables) term in
  if not (Rel.equal expected result) then
    Alcotest.failf "%s: result differs from the centralized evaluator" label;
  match List.find_opt (fun r -> key r = key row) (Lazy.force goldens) with
  | None -> Alcotest.failf "%s: no golden row" label
  | Some golden ->
    if golden <> row then
      Alcotest.failf "%s: golden mismatch@.expected %s@.got      %s" label (to_line golden)
        (to_line row);
    row
