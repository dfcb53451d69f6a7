(* the benchmark's workloads, by the names BENCHMARK.json uses *)
let workloads =
  [
    ("cold-tpcc", Cold_tpcc.run);
    ("session-tatp", Session_tatp.run);
    ("serve-astore", Serve_astore.run);
  ]
