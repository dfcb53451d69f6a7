(* Replay runs serially in commit order; [Config.workers] only sets the
   lane count of the simulated makespan. These tests check that the
   outcome — final database hash and new-universe log — does not move
   with [workers], that trigger cascades, mid-history DDL and the
   Hash-jumper replay to the full re-execution oracle, and the
   Conflict_dag units behind the simulated makespan. *)

open Uv_db
open Uv_retroactive
module W = Uv_workloads.Workload
module R = Uv_transpiler.Runtime

let check = Alcotest.check

let run e sql = ignore (Engine.exec_sql e sql)

(* A log digest covering everything scenario-stacking depends on:
   commit index, rendered SQL, recorded draws, row counts, the
   restamped per-table hashes, and the transaction tag. *)
let log_digest log =
  let buf = Buffer.create 4096 in
  Log.iter log (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d|%s|%s|%d|%s|%s\n" e.Log.index e.Log.sql
           (String.concat ","
              (List.map Uv_sql.Value.to_string e.Log.nondet))
           e.Log.rows_written
           (String.concat ","
              (List.map
                 (fun (t, h) -> Printf.sprintf "%s=%Lx" t h)
                 e.Log.written_hashes))
           (Option.value e.Log.app_txn ~default:"-")));
  Buffer.contents buf

(* Definition E.1 over a history that grew from [base]: re-execute the
   log minus [skip] on a fresh copy of [base] *)
let oracle_hash ~base log ~skip =
  let e = Engine.of_catalog (Catalog.snapshot base) in
  Log.iter log (fun entry ->
      if entry.Log.index <> skip then
        try
          ignore
            (Engine.exec ~nondet:entry.Log.nondet ?app_txn:entry.Log.app_txn e
               entry.Log.stmt)
        with Engine.Sql_error _ | Engine.Signal_raised _ -> ());
  Engine.db_hash e

(* the whole database of the new universe, as the oracle sees it *)
let universe_hash e out =
  let merged = Engine.of_catalog (Catalog.snapshot (Engine.catalog e)) in
  Whatif.commit merged out;
  Engine.db_hash merged

let build (w : W.t) ~n ~dep_rate =
  let eng, rt = W.setup ~mode:R.Transpiled w in
  let base = Engine.snapshot eng in
  let prng = Uv_util.Prng.create 4242 in
  let calls = w.W.target_call :: w.W.generate prng ~scale:1 ~n ~dep_rate in
  ignore (W.run_history rt ~mode:R.Transpiled calls);
  (eng, base)

(* ------------------------------------------------------------------ *)
(* Worker-count invariance on the five workloads                        *)
(* ------------------------------------------------------------------ *)

let test_workers_invariant (w : W.t) () =
  let eng, base = build w ~n:60 ~dep_rate:0.3 in
  let analyzer = Analyzer.analyze ~config:w.W.ri_config ~base (Engine.log eng) in
  let target = { Analyzer.tau = 1; op = Analyzer.Remove } in
  let run_with config = Whatif.run_exn ~config ~analyzer eng target in
  let serial = run_with (Whatif.Config.make ~workers:1 ()) in
  let want_hash = serial.Whatif.final_db_hash in
  let want_log = log_digest serial.Whatif.new_log in
  List.iter
    (fun workers ->
      let out = run_with (Whatif.Config.make ~workers ()) in
      check Alcotest.bool
        (Printf.sprintf "%s: workers=%d replayed serially" w.W.name workers)
        true
        (out.Whatif.measured_parallel_ms = None && out.Whatif.exec_waves = 0);
      check Alcotest.bool
        (Printf.sprintf "%s: workers=%d makespan within the serial cost"
           w.W.name workers)
        true
        (out.Whatif.simulated_parallel_ms
        <= out.Whatif.serial_cost_ms +. 1e-6);
      check Alcotest.int64
        (Printf.sprintf "%s: workers=%d final hash == serial" w.W.name workers)
        want_hash out.Whatif.final_db_hash;
      check Alcotest.string
        (Printf.sprintf "%s: workers=%d new log == serial" w.W.name workers)
        want_log
        (log_digest out.Whatif.new_log))
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Trigger cascades replay to the oracle                                *)
(* ------------------------------------------------------------------ *)

let test_trigger_wave_serializes () =
  let e = Engine.create () in
  run e "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)";
  run e "CREATE TABLE audit (id INT PRIMARY KEY, n INT)";
  run e
    "CREATE TRIGGER taud AFTER UPDATE ON acct FOR EACH ROW BEGIN UPDATE \
     audit SET n = n + 1 WHERE id = 1; END";
  run e "INSERT INTO audit VALUES (1, 0)";
  for i = 1 to 8 do
    run e (Printf.sprintf "INSERT INTO acct VALUES (%d, 100)" i)
  done;
  let base = Engine.snapshot e in
  Engine.reset_log e;
  (* DML-only history: every UPDATE fires the trigger, so every entry is
     structural and they all funnel through the shared audit row *)
  for i = 1 to 8 do
    run e (Printf.sprintf "UPDATE acct SET bal = bal + %d WHERE id = %d" i i)
  done;
  let analyzer = Analyzer.analyze ~base (Engine.log e) in
  let target = { Analyzer.tau = 1; op = Analyzer.Remove } in
  let out = Whatif.run_exn ~analyzer e target in
  check Alcotest.int64 "trigger cascades produce the oracle state"
    (oracle_hash ~base (Engine.log e) ~skip:1)
    (universe_hash e out);
  (* removing UPDATE #1 leaves 7 trigger firings *)
  let merged = Engine.of_catalog (Catalog.snapshot (Engine.catalog e)) in
  Whatif.commit merged out;
  match Engine.query_sql merged "SELECT n FROM audit WHERE id = 1" with
  | { Engine.rows = [ [| Uv_sql.Value.Int n |] ]; _ } ->
      check Alcotest.int "audit counter" 7 n
  | _ -> Alcotest.fail "audit row missing"

(* ------------------------------------------------------------------ *)
(* Mid-history DDL and the Hash-jumper against the oracle               *)
(* ------------------------------------------------------------------ *)

let test_ddl_member_falls_back () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  run e "INSERT INTO t VALUES (1, 10)";
  (* TRUNCATE writes every row of t, so removing the INSERT pulls this
     DDL into the replay set through the write-write conflict *)
  run e "TRUNCATE TABLE t";
  run e "INSERT INTO t VALUES (2, 20)";
  let analyzer = Analyzer.analyze ~base (Engine.log e) in
  (* row-only mode: the TRUNCATE's wildcard row write joins the closure *)
  let out =
    Whatif.run_exn
      ~config:(Whatif.Config.make ~mode:Analyzer.Row_only ())
      ~analyzer e
      { Analyzer.tau = 1; op = Analyzer.Remove }
  in
  check Alcotest.bool "DDL joined the replay set" true
    out.Whatif.replay.Analyzer.members.(1);
  check Alcotest.int64 "mid-history DDL replays to the oracle"
    (oracle_hash ~base (Engine.log e) ~skip:1)
    (universe_hash e out)

let test_hash_jumper_falls_back () =
  let e = Engine.create () in
  run e "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  let base = Engine.snapshot e in
  Engine.reset_log e;
  run e "INSERT INTO t VALUES (1, 10)";
  run e "UPDATE t SET v = v + 1 WHERE id = 1";
  let analyzer = Analyzer.analyze ~base (Engine.log e) in
  let out =
    Whatif.run_exn
      ~config:(Whatif.Config.make ~hash_jumper:true ())
      ~analyzer e { Analyzer.tau = 1; op = Analyzer.Remove }
  in
  check Alcotest.int64 "hash-jumper run replays to the oracle"
    (oracle_hash ~base (Engine.log e) ~skip:1)
    (universe_hash e out)

(* ------------------------------------------------------------------ *)
(* Concurrent closures on one shared analyzer                           *)
(* ------------------------------------------------------------------ *)

(* Served what-ifs compute replay sets concurrently on the read side of
   one analyzer. Two domains ask the same questions of a fresh analyzer
   (so they also race to build its lazy indexes); each must get exactly
   the answers a serial run on a separate analyzer gives. The targets mix
   [Remove], [Add] and [Change]: an added or changed statement's row sets
   are extracted without writing the shared alias/merge state. *)
let test_concurrent_closures (w : W.t) () =
  let eng, base = build w ~n:60 ~dep_rate:0.3 in
  let log = Engine.log eng in
  let analyze () = Analyzer.analyze ~config:w.W.ri_config ~base log in
  let n = Log.length log in
  (* Add/Change reuse another entry's statement, so the hypothetical
     statements read and rewrite the workload's real RI values *)
  let stmt_at k = (Log.entry log ((k mod n) + 1)).Log.stmt in
  let targets =
    List.init n (fun i ->
        let op =
          match i mod 3 with
          | 0 -> Analyzer.Remove
          | 1 -> Analyzer.Add (stmt_at (i * 7))
          | _ -> Analyzer.Change (stmt_at (i * 3))
        in
        { Analyzer.tau = i + 1; op })
  in
  let modes =
    [ Analyzer.Col_only; Analyzer.Row_only; Analyzer.Cell; Analyzer.Joint ]
  in
  let answers anl =
    List.map
      (fun target ->
        List.map
          (fun mode ->
            let rs = Analyzer.replay_set ~mode anl target in
            ( Array.to_list rs.Analyzer.members,
              (rs.Analyzer.mutated, rs.Analyzer.consulted),
              Analyzer.replay_members ~mode anl target ))
          modes)
      targets
  in
  let serial = answers (analyze ()) in
  let shared = analyze () in
  let domains =
    List.init 2 (fun _ -> Domain.spawn (fun () -> answers shared))
  in
  List.iteri
    (fun d dom ->
      check Alcotest.bool
        (Printf.sprintf "%s: domain %d == serial" w.W.name d)
        true
        (Domain.join dom = serial))
    domains

(* ------------------------------------------------------------------ *)
(* Conflict_dag unit tests                                              *)
(* ------------------------------------------------------------------ *)

let test_waves_layering () =
  (* 1 -> 2 -> 4, 3 independent: waves [1;3] [2] [4] *)
  let dag =
    Conflict_dag.build ~nodes:[ 1; 2; 3; 4 ]
      ~edges:[ (2, 1); (4, 2) ]
  in
  check
    Alcotest.(list (list int))
    "longest-path layers"
    [ [ 1; 3 ]; [ 2 ]; [ 4 ] ]
    (Conflict_dag.waves dag);
  check Alcotest.int "wave count" 3 (Conflict_dag.wave_count dag);
  check Alcotest.int "edge count (deduped)" 2
    (Conflict_dag.edge_count
       (Conflict_dag.build ~nodes:[ 1; 2; 3; 4 ]
          ~edges:[ (2, 1); (4, 2); (2, 1) ]))

let test_waves_empty_and_chain () =
  let empty = Conflict_dag.build ~nodes:[] ~edges:[] in
  check Alcotest.(list (list int)) "empty" [] (Conflict_dag.waves empty);
  let chain =
    Conflict_dag.build ~nodes:[ 10; 20; 30 ] ~edges:[ (20, 10); (30, 20) ]
  in
  check
    Alcotest.(list (list int))
    "pure chain: one node per wave"
    [ [ 10 ]; [ 20 ]; [ 30 ] ]
    (Conflict_dag.waves chain)

let test_makespan_parity () =
  (* commit indexes map to dense positions: the sparse-id makespan equals
     the dense DAG's list schedule over the same edges *)
  let entries = [ 10; 20; 30; 40; 50 ] in
  let edges = [ (30, 10); (40, 20); (50, 30); (50, 40) ] in
  let weight i = float_of_int i *. 0.15 in
  let sparse =
    Conflict_dag.makespan
      (Conflict_dag.build ~nodes:entries ~edges)
      ~weight ~workers:2
  in
  let dense = Uv_util.Dag.create 5 in
  List.iter (fun (l, e) -> Uv_util.Dag.add_edge dense ((l / 10) - 1) ((e / 10) - 1)) edges;
  let direct =
    Uv_util.Dag.critical_path_makespan dense
      ~weights:(Array.of_list (List.map weight entries))
      ~workers:2
  in
  check (Alcotest.float 1e-9) "same schedule over sparse ids" direct sparse;
  check (Alcotest.float 1e-9) "empty DAG costs nothing" 0.0
    (Conflict_dag.makespan (Conflict_dag.build ~nodes:[] ~edges:[])
       ~weight ~workers:2)

let workload_cases (w : W.t) =
  ( "determinism: " ^ w.W.name,
    [
      Alcotest.test_case "workers in {1,2,4,8} == serial" `Slow
        (test_workers_invariant w);
      Alcotest.test_case "concurrent closures == serial" `Quick
        (test_concurrent_closures w);
    ] )

let () =
  Alcotest.run "uv_parallel"
    (List.map workload_cases (W.all ())
    @ [
        ( "structural",
          [
            Alcotest.test_case "trigger wave serializes" `Quick
              test_trigger_wave_serializes;
          ] );
        ( "fallback",
          [
            Alcotest.test_case "mid-history DDL" `Quick
              test_ddl_member_falls_back;
            Alcotest.test_case "hash-jumper" `Quick
              test_hash_jumper_falls_back;
          ] );
        ( "conflict-dag",
          [
            Alcotest.test_case "wave layering" `Quick test_waves_layering;
            Alcotest.test_case "empty & chain" `Quick
              test_waves_empty_and_chain;
            Alcotest.test_case "makespan parity" `Quick
              test_makespan_parity;
          ] );
      ])
