(* The what-if benchmark's entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--exe PATH] [--work-dir DIR] [--commit REV]

   Runs one workload, prints a human-readable report (every metric by
   name with its unit and sample count, the run facts, the failure
   breakdown) and, as the last stdout line, one JSON object:
   {"correct", "attempted", "failed", "metrics"} where [metrics] holds the
   end-to-end metrics with --trace 0 and the per-layer metrics with
   --trace 1. Exits 1 when a correctness check failed. *)

open Uvbench
module J = Uv_obs.Json

(* the names BENCHMARK.json declares; each is reported on every workload.
   ingest_p95_ms, peak_rss_mb and fail_ratio are printed but not declared:
   the first two spread too widely between serve-astore runs to gate on,
   and a healthy run's fail_ratio is exactly 0 *)
let end_to_end = [ "setup_s"; "whatif_p50_ms"; "whatif_p95_ms"; "whatif_per_s"; "ingest_p50_ms" ]

let per_layer =
  [
    "analyzer.closure_ms"; "analyzer.closure_iters"; "analyzer.members";
    "analyzer.member_share"; "analyzer.builds"; "analyzer.extends";
    "whatif.snapshot_ms"; "whatif.rollback_ms"; "whatif.replay_ms";
    "whatif.cost_model_ms"; "whatif.merge_log_ms"; "whatif.undone";
    "whatif.replayed"; "whatif.failed_replays"; "whatif.plans_used";
    "whatif.checkpoint_rollback_share"; "wave_exec.waves"; "wave_exec.parallel_ms";
    "wave_exec.queue_wait_ms"; "wave_exec.utilization"; "engine.exec_ms";
    "engine.rollback_ms"; "engine.log_appends"; "engine.plan_hits";
    "engine.plan_binds_failed"; "checkpoint.rungs"; "checkpoint.jumps";
    "trace.overhead_p50_ms";
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let exe = ref "_build/default/bin/ultraverse.exe" and work_dir = ref ".uvbench" in
  let commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME cold-tpcc | session-tatp | serve-astore");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed region");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--exe", Arg.Set_string exe, "PATH the ultraverse CLI (serve-astore)");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch directory");
      ("--commit", Arg.Set_string commit, "REV source revision, for the report");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload Suite.workloads with
    | Some r -> r
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  Common.mkdir_p !work_dir;
  let opts =
    {
      Common.seed = !seed; seconds = !seconds; trace = !trace = 1; tiny = false;
      work_dir = !work_dir; exe = !exe;
    }
  in
  let r = run opts in
  let t = r.Common.tally in
  let correct = t.Common.check_errors = [] && r.Common.valid in
  let facts =
    [
      ("workload", J.Str !workload); ("seed", J.Int !seed); ("seconds", J.Float !seconds);
      ("trace", J.Bool opts.Common.trace); ("nproc", J.Int (Common.host_workers ()));
      ("ocaml", J.Str Sys.ocaml_version); ("commit", J.Str !commit);
    ]
    @ r.Common.facts
  in
  Common.print_line "facts %s" (J.to_string (J.Obj facts));
  let show (m : Common.metric) =
    Common.print_line "  %-36s %14.4f %-6s%s" m.Common.name m.Common.value m.Common.unit_
      (match m.Common.samples with Some n -> Printf.sprintf "  (n=%d)" n | None -> "")
  in
  print_endline "end-to-end:";
  List.iter show r.Common.e2e;
  if opts.Common.trace then begin
    print_endline "per-layer:";
    List.iter show r.Common.layers
  end;
  Common.print_line "attempted %d, failed %d%s" t.Common.attempted t.Common.failed
    (String.concat ""
       (Hashtbl.fold (fun k v acc -> Printf.sprintf " %s=%d" k v :: acc) t.Common.reasons []));
  if not r.Common.valid then print_endline "INVALID RUN: the load generator fell behind its schedule";
  let wanted, pool =
    if opts.Common.trace then (per_layer, r.Common.layers) else (end_to_end, r.Common.e2e)
  in
  let metrics =
    List.map
      (fun name ->
        match List.find_opt (fun (m : Common.metric) -> m.Common.name = name) pool with
        | Some m ->
            (name, J.Obj [ ("value", J.Float m.Common.value); ("unit", J.Str m.Common.unit_) ])
        | None -> failwith ("metric not produced: " ^ name))
      wanted
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int t.Common.attempted);
            ("failed", J.Int t.Common.failed);
            ("metrics", J.Obj metrics);
          ]));
  if not correct then exit 1
