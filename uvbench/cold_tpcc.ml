(* cold-tpcc: sessionless what-ifs over a transpiled TPC-C history (the
   paper's T+D system).

   Every what-if pays what a one-shot [ultraverse whatif] pays: a full
   [Analyzer.analyze] over the whole log, then [Whatif.run] with the
   CLI's default config (workers = host parallelism, no checkpoints, no
   session caches). Between what-ifs the application keeps committing:
   one ingest batch is a few transpiled TPC-C CALLs executed on the live
   engine, which appends them to the log the next analysis scans.

   The run is a sequence of epochs: each starts from a fresh copy of the
   recorded history (untimed) and interleaves the same ingest batches
   with its own target list, so the history an op sees does not depend on
   how many operations fit in the run. Every answer is checked against
   the oracle, untimed. The clock of whatif_per_s runs only during the
   timed ingest and what-if calls. *)

open Uv_db
open Uv_retroactive
open Common
module W = Uv_workloads.Workload
module R = Uv_transpiler.Runtime
module Prng = Uv_util.Prng

type sizes = {
  scale : int;
  calls : int;  (** history length in application transactions *)
  epoch : int;  (** what-ifs (and ingest batches) per epoch *)
  batch : int;  (** transactions per ingest batch *)
  setups : int;  (** repeated set-ups whose median is [setup_s] *)
}

let sizes (o : opts) =
  if o.tiny then { scale = 1; calls = 40; epoch = 6; batch = 1; setups = 1 }
  else { scale = 1; calls = 160; epoch = 120; batch = 1; setups = 5 }

type built = {
  w : W.t;
  base : Catalog.t;  (** population + installed procedures *)
  hist_cat : Catalog.t;  (** database after the history *)
  hist_log : Log.t;
  ingest : (Uv_sql.Ast.stmt * string option) list array;  (** batch i *)
  times : (string * float) list;  (** set-up phase wall times, ms *)
}

(* set-up [k] of a run builds its own history, from a seed derived from
   the run's: epochs cycle through the histories, so a run measures
   several histories and one seed's history does not set its cost *)
let build (o : opts) sz ~k =
  let seed = (o.seed * 8) + k in
  let w = W.by_name "TPC-C" in
  let (eng, rt, calls, more), generate_ms =
    time (fun () ->
        let eng, rt = W.setup ~seed ~scale:sz.scale ~mode:R.Raw w in
        let prng = Prng.create ((seed * 7919) + 1) in
        let calls =
          w.W.target_call :: w.W.generate prng ~scale:sz.scale ~n:sz.calls ~dep_rate
        in
        let more = w.W.generate prng ~scale:sz.scale ~n:(4 * sz.epoch * sz.batch) ~dep_rate in
        (eng, rt, calls, more))
  in
  let (), transpile_ms =
    time (fun () ->
        ignore (R.transpile_install rt);
        Engine.reset_log eng)
  in
  let base = Engine.snapshot eng in
  let _, execute_ms = time (fun () -> W.run_history rt ~mode:R.Transpiled calls) in
  let hist_cat = Engine.snapshot eng and hist_log = Log.copy (Engine.log eng) in
  let h = Log.length hist_log in
  (* the ingest stream: further committed CALLs, recorded here and
     re-executed verbatim on every epoch's fresh engine *)
  ignore (W.run_history rt ~mode:R.Transpiled more);
  let log = Engine.log eng in
  let stream =
    List.init (Log.length log - h) (fun i ->
        let e = Log.entry log (h + 1 + i) in
        (e.Log.stmt, e.Log.app_txn))
  in
  if List.length stream < sz.epoch * sz.batch then failwith "cold-tpcc: ingest stream too short";
  let stream = Array.of_list stream in
  let ingest = Array.init sz.epoch (fun i -> List.init sz.batch (fun k -> stream.((i * sz.batch) + k))) in
  let _, analyze_ms = time (fun () -> Analyzer.analyze ~config:w.W.ri_config ~base hist_log) in
  {
    w; base; hist_cat; hist_log; ingest;
    times =
      [ ("generate", generate_ms); ("transpile", transpile_ms); ("execute", execute_ms);
        ("analyze", analyze_ms) ];
  }

(* epoch [e]'s seeded targets at spread-out τ: one per slice of the
   history, so the replay sets range from the tail's few members to the
   hot chain. The op mix ([op_kind]) is fixed and τ stratified; a fresh
   list per epoch spreads a run over many targets, so a seed moves the
   inputs without moving the cost distribution much. *)
let targets (o : opts) b ~epoch n =
  let h = Log.length b.hist_log in
  let prng = Prng.create ((o.seed * 104729) + (epoch * 131) + 17) in
  let pick () = (Log.entry b.hist_log (Prng.int_range prng 1 h)).Log.stmt in
  let ts =
    Array.init n (fun i ->
        let lo = 1 + (i * h / n) in
        let tau = Prng.int_range prng lo (max lo ((i + 1) * h / n)) in
        let op =
          match op_kind i with
          | Op_change -> Analyzer.Change (pick ())
          | Op_add -> Analyzer.Add (pick ())
          | Op_remove -> Analyzer.Remove
        in
        { Analyzer.tau; op })
  in
  Prng.shuffle prng ts;
  ts

let render (t : Analyzer.target) =
  match t.Analyzer.op with
  | Analyzer.Remove -> Printf.sprintf "remove@%d" t.Analyzer.tau
  | Analyzer.Change s -> Printf.sprintf "change@%d:%s" t.Analyzer.tau (Uv_sql.Printer.stmt_compact s)
  | Analyzer.Add s -> Printf.sprintf "add@%d:%s" t.Analyzer.tau (Uv_sql.Printer.stmt_compact s)

(* Definition E.1: the edited history re-executed from scratch. An added
   or changed statement that draws AUTO_INCREMENT/RAND/NOW values has no
   single right draw, so the oracle replays it with the draws the what-if
   recorded for it (its entry sits at τ in the outcome's new log); every
   other entry keeps its recorded draws. *)
let oracle b eng (t : Analyzer.target) (out : Whatif.outcome) =
  let e2 = Engine.of_catalog (Catalog.snapshot b.base) in
  let exec ?nondet ?app_txn s =
    try ignore (Engine.exec ?nondet ?app_txn e2 s)
    with Engine.Sql_error _ | Engine.Signal_raised _ -> ()
  in
  let edited s =
    let nl = out.Whatif.new_log in
    let nondet =
      if t.Analyzer.tau <= Log.length nl && (Log.entry nl t.Analyzer.tau).Log.stmt = s then
        Some (Log.entry nl t.Analyzer.tau).Log.nondet
      else None
    in
    exec ?nondet s
  in
  Log.iter (Engine.log eng) (fun e ->
      let orig () = exec ~nondet:e.Log.nondet ?app_txn:e.Log.app_txn e.Log.stmt in
      if e.Log.index = t.Analyzer.tau then
        match t.Analyzer.op with
        | Analyzer.Remove -> ()
        | Analyzer.Change s -> edited s
        | Analyzer.Add s ->
            edited s;
            orig ()
      else orig ());
  List.sort compare (table_hashes (Engine.catalog e2))

let merged_hashes eng out =
  let merged = Catalog.snapshot (Engine.catalog eng) in
  Whatif.commit (Engine.of_catalog merged) out;
  List.sort compare (table_hashes merged)

type loop = {
  whatif_ms : float list;
  ingest_ms : float list;
  build_ms : float list;
  busy_ms : float;  (** summed time of the timed ingest and what-if calls *)
  after_tau : int;  (** summed count of log entries at or after each τ *)
  counts : op_counts;
  oracle_ms : float list;
  obs : Uv_obs.Trace.t;
}

(* Epochs on fresh copies of the recorded history: untimed warm-up epochs
   for at least [warmup_s], then timed ones until the deadline (the
   self-test runs one timed epoch). *)
let loop (o : opts) sz bs tally ~traced ~seconds tr =
  let live = if traced then Uv_obs.Trace.create () else Uv_obs.Trace.disabled in
  let counts = op_counts () in
  let whatif_ms = ref [] and ingest_ms = ref [] and build_ms = ref [] and oracle_ms = ref [] in
  let busy = ref 0.0 and after_tau = ref 0 in
  let epoch ~timed e =
    let b = bs.(e mod Array.length bs) in
    let op0 = e * sz.epoch and targets = targets o b ~epoch:e sz.epoch in
    let ri = b.w.W.ri_config in
    (* only timed epochs feed the collector and the spans, so counts are
       per timed op *)
    let obs = if timed then live else Uv_obs.Trace.disabled in
    let tr = if timed then tr else tracer false in
    let config = Whatif.Config.make ~workers:(host_workers ()) ~obs () in
    let eng = Engine.of_catalog (Catalog.snapshot b.hist_cat) ~log:(Log.copy b.hist_log) in
    for i = 0 to sz.epoch - 1 do
      let op = op0 + i + 1 in
      (* ingest: the application commits a batch of CALLs *)
      (* every timed op starts on an empty minor heap (untimed), so a
         cheap ingest does not pay for the previous what-if's garbage *)
      Gc.minor ();
      attempt tally;
      (match
         span tr ~op "op.ingest" (fun _ ->
             time (fun () ->
                 List.iter (fun (s, app_txn) -> ignore (Engine.exec ?app_txn eng s)) b.ingest.(i)))
       with
      | (), ms ->
          if timed then begin
            ingest_ms := ms :: !ingest_ms;
            busy := !busy +. ms
          end
      | exception (Engine.Sql_error _ | Engine.Signal_raised _) -> fail tally "ingest_error");
      (* what-if: full analysis, then the driver *)
      Gc.minor ();
      attempt tally;
      let target = targets.(i) in
      let history = Log.length (Engine.log eng) in
      let gc0 = Gc.minor_words () in
      let t0 = now_ms () in
      let res, build =
        span tr ~op "op.whatif" (fun parent ->
            let analyzer, build =
              span tr ~parent ~op "analyzer.analyze" (fun _ ->
                  time (fun () -> Analyzer.analyze ~config:ri ~base:b.base ~obs (Engine.log eng)))
            in
            let start = now_ms () in
            let res =
              span tr ~parent ~op "whatif.run" (fun parent ->
                  let r = Whatif.run ~config ~analyzer eng target in
                  (match r with
                  | Ok out -> phase_spans tr ~parent ~op ~start out.Whatif.phases
                  | Error _ -> ());
                  r)
            in
            (res, build))
      in
      let ms = now_ms () -. t0 in
      let words = Gc.minor_words () -. gc0 in
      if timed then busy := !busy +. ms;
      match res with
      | Error e -> fail tally (Whatif.Error.code_name e.Whatif.Error.code)
      | Ok out -> (
          if timed then begin
            whatif_ms := ms :: !whatif_ms;
            build_ms := build :: !build_ms;
            after_tau := !after_tau + (history - target.Analyzer.tau + 1);
            counts.minor_words <- counts.minor_words +. words;
            note_outcome counts ~history out
          end;
          let truth, oms = time (fun () -> oracle b eng target out) in
          oracle_ms := oms :: !oracle_ms;
          if truth <> merged_hashes eng out then begin
            fail tally "hash_divergence";
            check_error tally
              (Printf.sprintf "cold-tpcc: %s differs from full re-execution" (render target))
          end)
    done
  in
  let epochs = ref 0 in
  let next ~timed =
    epoch ~timed !epochs;
    incr epochs
  in
  if o.tiny then next ~timed:true
  else begin
    (* the first seconds of a fresh process run measurably slower *)
    let warm = now_ms () +. (warmup_s *. 1000.0) in
    while now_ms () < warm do
      next ~timed:false
    done;
    let deadline = now_ms () +. (seconds *. 1000.0) in
    while now_ms () < deadline do
      next ~timed:true
    done
  end;
  {
    whatif_ms = !whatif_ms; ingest_ms = !ingest_ms; build_ms = !build_ms; busy_ms = !busy; after_tau = !after_tau; counts;
    oracle_ms = !oracle_ms; obs = live;
  }

let run (o : opts) : result =
  let sz = sizes o in
  let builds = List.init sz.setups (fun k -> time (fun () -> build o sz ~k)) in
  let bs = Array.of_list (List.map fst builds) in
  let b = bs.(0) in
  let setup_s = setup_median (List.map snd builds) in
  let tally = tally () in
  let tr = tracer o.trace in
  (* the traced run spends its first half untraced: the difference of the
     two halves' medians is the tracing overhead *)
  let plain =
    if o.trace && not o.tiny then
      Some (loop o sz bs tally ~traced:false ~seconds:(o.seconds /. 2.0) (tracer false))
    else None
  in
  let seconds = if Option.is_none plain then o.seconds else o.seconds /. 2.0 in
  let l = loop o sz bs tally ~traced:(o.trace || o.tiny) ~seconds tr in
  if o.trace then write_spans tr (Filename.concat o.work_dir "spans-cold-tpcc.json");
  let c = l.counts in
  let payload = Uv_obs.Trace.metrics_payload l.obs in
  let e2e =
    e2e_metrics ~setup_s ~whatif:l.whatif_ms ~ingest:l.ingest_ms ~run_ms:l.busy_ms
      ~peak_rss_kb:(vm_hwm_kb "self") tally
  in
  let setup_ms k = List.assoc k b.times in
  let ops = c.ops in
  let layers =
    [
      metric "setup.generate_ms" "ms" (setup_ms "generate");
      metric "setup.transpile_ms" "ms" (setup_ms "transpile");
      metric "setup.execute_ms" "ms" (setup_ms "execute");
      metric "setup.analyze_ms" "ms" (setup_ms "analyze");
      metric ~samples:(List.length l.build_ms) "analyzer.build_ms" "ms" (median l.build_ms);
      (* members ÷ the entries a replay could reach: how shared the
         history is, whatever the τ spread *)
      metric ~samples:ops "analyzer.member_share_after_tau" "ratio"
        (float_of_int c.members /. float_of_int (max 1 l.after_tau));
      metric ~samples:ops "analyzer.builds" "count" 1.0;
      metric ~samples:ops "analyzer.extends" "count" 0.0;
      metric ~samples:(List.length l.oracle_ms) "oracle.full_replay_ms" "ms" (median l.oracle_ms);
      metric "checkpoint.rungs" "count" 0.0;
    ]
    @ outcome_layers c @ collector_layers ~ops payload
    @
    match plain with
    | Some p ->
        [ metric "trace.overhead_p50_ms" "ms" (median l.whatif_ms -. median p.whatif_ms) ]
    | None -> []
  in
  {
    e2e; layers;
    counters =
      [
        ("whatif.replayed", c.replayed); ("whatif.undone", c.undone);
        ("analyzer.members", c.members);
        ("analyzer.closure_iters", counter payload "analyze.closure_iters");
        ("analyzer.builds", ops); ("analyzer.extends", 0);
        ("service.plans_compiled", 0); ("whatif.plans_used", c.plans_used);
      ];
    targets = Array.to_list (Array.map render (targets o b ~epoch:0 sz.epoch));
    tally;
    facts =
      [
        ("system", J.Str "T+D (transpiled, sessionless)");
        ("scale", J.Int sz.scale);
        ("history_calls", J.Int (sz.calls + 1));
        ("histories", J.Int (Array.length bs));
        ("history_len", J.List (Array.to_list (Array.map (fun b -> J.Int (Log.length b.hist_log)) bs)));
        ("ingest_batch_txns", J.Int sz.batch);
        ("epoch_ops", J.Int sz.epoch);
        ("workers", J.Int (host_workers ()));
        ("setups", J.Int sz.setups);
      ];
    valid = true;
  }
