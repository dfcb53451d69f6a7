(* session-tatp: a long-lived Whatif.Service over a raw-mode TATP history
   with a checkpoint ladder (as [ultraverse whatif --checkpoint-every]).

   The run alternates [Service.ingest] batches of the workload's own
   statements with what-ifs, most at τ near the growing tail and a
   seeded minority deep in the log. Analysis is amortised (extend, plan
   cache, checkpoint jumps) and replay sets are tiny, so the merge-log
   phase, the domain pool's per-run cost and ingest dominate instead of
   replay.

   As in cold-tpcc the run is a sequence of epochs, each on a fresh
   service over one of the run's recorded histories (rebuilt untimed: the
   clock of whatif_per_s runs only during the timed ingest and what-if
   calls), with its own target list. *)

open Uv_db
open Uv_retroactive
open Common
module W = Uv_workloads.Workload
module R = Uv_transpiler.Runtime
module Prng = Uv_util.Prng

type sizes = {
  calls : int;  (** history length in application transactions *)
  epoch : int;  (** what-ifs (and ingest batches) per epoch *)
  batch : int;  (** transactions per ingest batch *)
  checkpoint_every : int;
  sample_every : int;  (** sessionless cross-check stride, every epoch *)
  setups : int;
}

let sizes (o : opts) =
  if o.tiny then
    { calls = 60; epoch = 40; batch = 1; checkpoint_every = 16; sample_every = 1; setups = 1 }
  else
    { calls = 600; epoch = 160; batch = 2; checkpoint_every = 32; sample_every = 6; setups = 5 }

type built = {
  w : W.t;
  base : Catalog.t;
  hist : Log.entry array;  (** the recorded history *)
  ingest : Uv_sql.Ast.stmt list array;  (** batch i *)
  times : (string * float) list;
}

let config sz ~obs = Whatif.Config.make ~workers:(host_workers ()) ~checkpoint_every:sz.checkpoint_every ~obs ()

(* an engine holding the recorded history, its checkpoint ladder built
   while the history commits, behind a published service *)
let service b sz ~obs =
  let eng = Engine.of_catalog (Catalog.snapshot b.base) in
  Engine.enable_checkpoints eng ~every:sz.checkpoint_every;
  Array.iter
    (fun e -> ignore (Engine.exec ~nondet:e.Log.nondet ?app_txn:e.Log.app_txn eng e.Log.stmt))
    b.hist;
  let svc = Whatif.Service.create ~config:(config sz ~obs) ~rowset:b.w.W.ri_config ~base:b.base eng in
  (eng, svc)

(* group consecutive entries of one application transaction *)
let txn_groups entries =
  List.fold_left
    (fun acc (e : Log.entry) ->
      match acc with
      | (tag, stmts) :: rest when tag = e.Log.app_txn && tag <> None -> (tag, e.Log.stmt :: stmts) :: rest
      | _ -> (e.Log.app_txn, [ e.Log.stmt ]) :: acc)
    [] entries
  |> List.rev_map (fun (_, stmts) -> List.rev stmts)

(* as in cold-tpcc, set-up [k] builds its own history and epochs cycle
   through them *)
let build (o : opts) sz ~k =
  let seed = (o.seed * 8) + k in
  let w = W.by_name "tatp" in
  let (eng, rt, calls, more), generate_ms =
    time (fun () ->
        let eng, rt = W.setup ~seed ~mode:R.Raw w in
        let prng = Prng.create ((seed * 7919) + 2) in
        let calls = w.W.target_call :: w.W.generate prng ~scale:1 ~n:sz.calls ~dep_rate in
        let more = w.W.generate prng ~scale:1 ~n:(3 * sz.epoch * sz.batch) ~dep_rate in
        (eng, rt, calls, more))
  in
  let base = Engine.snapshot eng in
  let _, execute_ms =
    time (fun () ->
        Engine.enable_checkpoints eng ~every:sz.checkpoint_every;
        W.run_history rt ~mode:R.Raw calls)
  in
  let hist = Log.to_array (Engine.log eng) in
  let h = Array.length hist in
  (* the ingest stream, recorded on a scratch copy of the live engine *)
  let eng2 = Engine.of_catalog (Catalog.snapshot (Engine.catalog eng)) ~log:(Log.copy (Engine.log eng)) in
  ignore (W.run_history (R.create_from_program eng2 (R.program rt)) ~mode:R.Raw more);
  let log2 = Engine.log eng2 in
  let groups =
    Array.of_list (txn_groups (List.init (Log.length log2 - h) (fun i -> Log.entry log2 (h + 1 + i))))
  in
  if Array.length groups < sz.epoch * sz.batch then failwith "session-tatp: ingest stream too short";
  let ingest =
    Array.init sz.epoch (fun i -> List.concat (List.init sz.batch (fun k -> groups.((i * sz.batch) + k))))
  in
  let b = { w; base; hist; ingest; times = [] } in
  let (_, svc), service_ms =
    time (fun () ->
        let eng, svc = service b sz ~obs:Uv_obs.Trace.disabled in
        Whatif.Service.publish svc;
        (eng, svc))
  in
  ignore svc;
  { b with times = [ ("generate", generate_ms); ("execute", execute_ms); ("analyze", service_ms) ] }

type spec = { deep : bool; offset : int; kind : op_kind; pick : int }

(* targets are resolved against the history length at the moment they
   run: four in five sit within one checkpoint interval of the tail, one
   in five deep in the first half of the recorded history, one per
   stratum. The deep fifth outnumbers the 5 % that the p95 reads, so the
   p95 measures deep targets, not a few outliers. The op mix is
   [op_kind]'s; the positions and statements come from the seed. Each
   epoch [e] draws its own list: the latency tail is the deep targets
   that hit the hot subscriber's chain, and one list has too few of them
   for a steady p95. *)
let specs (o : opts) sz b ~epoch n =
  let prng = Prng.create ((o.seed * 104729) + (epoch * 131) + 29) in
  let h = Array.length b.hist in
  let deep_n = max 1 (n / 5) and half = max 1 (h / 2) in
  Array.init n (fun i ->
      let deep = i mod 5 = 4 in
      let offset =
        if deep then
          (* stratified like cold-tpcc's τ: the tail of the latency
             distribution is these targets, so its shape must not hinge
             on a few draws *)
          let d = i / 5 in
          let lo = 1 + (d * half / deep_n) in
          Prng.int_range prng lo (max lo ((d + 1) * half / deep_n))
        else Prng.int prng sz.checkpoint_every
      in
      { deep; offset; kind = op_kind i; pick = Prng.int prng h })

let resolve b s ~len =
  let tau = if s.deep then s.offset else max 1 (len - s.offset) in
  let stmt () = b.hist.(s.pick).Log.stmt in
  let op =
    match s.kind with
    | Op_change -> Analyzer.Change (stmt ())
    | Op_add -> Analyzer.Add (stmt ())
    | Op_remove -> Analyzer.Remove
  in
  { Analyzer.tau; op }

let render s =
  Printf.sprintf "%s%s%d#%d"
    (match s.kind with Op_change -> "change" | Op_add -> "add" | Op_remove -> "remove")
    (if s.deep then "@" else "@tail-")
    s.offset s.pick

type svc_stats = {
  mutable builds : int;
  mutable extends : int;
  mutable publishes : int;
  mutable compiled : int;
  mutable hits : int;
  mutable rungs : int;
}

(* as in cold-tpcc: untimed warm-up epochs for at least [warmup_s], then
   timed ones until the deadline (the self-test runs one timed epoch) *)
let loop (o : opts) sz bs tally ~traced ~seconds tr =
  let live = if traced then Uv_obs.Trace.create () else Uv_obs.Trace.disabled in
  let counts = op_counts () in
  let st = { builds = 0; extends = 0; publishes = 0; compiled = 0; hits = 0; rungs = 0 } in
  let whatif_ms = ref [] and ingest_ms = ref [] and busy = ref 0.0 in
  let epoch ~timed e =
    let b = bs.(e mod Array.length bs) in
    let op0 = e * sz.epoch and specs = specs o sz b ~epoch:e sz.epoch in
    (* only timed epochs feed the collector and the spans, so counts are
       per timed op *)
    let obs = if timed then live else Uv_obs.Trace.disabled in
    let tr = if timed then tr else tracer false in
    let eng, svc = service b sz ~obs in
    Whatif.Service.publish svc;
    (* the set-up publish is not a per-op build *)
    let s0 = Whatif.Service.stats svc in
    for i = 0 to sz.epoch - 1 do
      let op = op0 + i + 1 in
      (* every timed op starts on an empty minor heap (untimed), so a
         cheap ingest does not pay for the previous what-if's garbage *)
      Gc.minor ();
      attempt tally;
      let (applied, failed), ms =
        span tr ~op "op.ingest" (fun parent ->
            span tr ~parent ~op "service.ingest" (fun _ ->
                time (fun () -> Whatif.Service.ingest svc b.ingest.(i))))
      in
      if timed then busy := !busy +. ms;
      if failed > 0 || applied = 0 then fail tally "ingest_error"
      else if timed then ingest_ms := ms :: !ingest_ms;
      Gc.minor ();
      attempt tally;
      let len = Whatif.Service.history_len svc in
      let target = resolve b specs.(i) ~len in
      let gc0 = Gc.minor_words () in
      let t0 = now_ms () in
      let res =
        span tr ~op "op.whatif" (fun parent ->
            span tr ~parent ~op "service.run" (fun parent ->
                let start = now_ms () in
                let r = Whatif.Service.run svc target in
                (match r with
                | Ok rep -> phase_spans tr ~parent ~op ~start rep.Whatif.Service.outcome.Whatif.phases
                | Error _ -> ());
                r))
      in
      let ms = now_ms () -. t0 in
      let words = Gc.minor_words () -. gc0 in
      if timed then busy := !busy +. ms;
      match res with
      | Error e -> fail tally (Whatif.Error.code_name e.Whatif.Error.code)
      | Ok rep -> (
          let out = rep.Whatif.Service.outcome in
          if timed then begin
            whatif_ms := ms :: !whatif_ms;
            counts.minor_words <- counts.minor_words +. words;
            note_outcome counts ~history:rep.Whatif.Service.history_len out
          end;
          (* sampled, untimed: the same question asked sessionless over
             the same history length *)
          if i mod sz.sample_every = 0 then begin
            let analyzer = Analyzer.analyze ~config:b.w.W.ri_config ~base:b.base (Engine.log eng) in
            match
              Whatif.run ~config:(Whatif.Config.make ~workers:(host_workers ()) ()) ~analyzer eng target
            with
            | Ok one when one.Whatif.final_db_hash = out.Whatif.final_db_hash -> ()
            | _ ->
                fail tally "hash_divergence";
                check_error tally
                  (Printf.sprintf "session-tatp: op %d (%s) differs from a sessionless run" op
                     (render specs.(i)))
          end)
    done;
    if timed then begin
      let s = Whatif.Service.stats svc in
      let d f = f s - f s0 in
      st.builds <- st.builds + d (fun s -> s.Whatif.Service.analyzer_builds);
      st.extends <- st.extends + d (fun s -> s.Whatif.Service.analyzer_extends);
      st.publishes <- st.publishes + d (fun s -> s.Whatif.Service.publishes);
      st.compiled <- st.compiled + d (fun s -> s.Whatif.Service.plans_compiled);
      st.hits <- st.hits + d (fun s -> s.Whatif.Service.plan_cache_hits);
      st.rungs <- s.Whatif.Service.checkpoint_rungs
    end
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
  (!whatif_ms, !ingest_ms, !busy, counts, st, live)

let run (o : opts) : result =
  let sz = sizes o in
  let builds = List.init sz.setups (fun k -> time (fun () -> build o sz ~k)) in
  let bs = Array.of_list (List.map fst builds) in
  let b = bs.(0) in
  let setup_s = setup_median (List.map snd builds) in
  let tally = tally () in
  let tr = tracer o.trace in
  let plain =
    if o.trace && not o.tiny then
      Some (loop o sz bs tally ~traced:false ~seconds:(o.seconds /. 2.0) (tracer false))
    else None
  in
  let seconds = if Option.is_none plain then o.seconds else o.seconds /. 2.0 in
  let whatif, ingest, busy_ms, c, st, obs =
    loop o sz bs tally ~traced:(o.trace || o.tiny) ~seconds tr
  in
  if o.trace then write_spans tr (Filename.concat o.work_dir "spans-session-tatp.json");
  let payload = Uv_obs.Trace.metrics_payload obs in
  let ops = c.ops in
  let per x = float_of_int x /. float_of_int (max 1 ops) in
  let e2e = e2e_metrics ~setup_s ~whatif ~ingest ~run_ms:busy_ms ~peak_rss_kb:(vm_hwm_kb "self") tally in
  let setup_ms k = List.assoc k b.times in
  let layers =
    [
      metric "setup.generate_ms" "ms" (setup_ms "generate");
      metric "setup.execute_ms" "ms" (setup_ms "execute");
      metric "setup.analyze_ms" "ms" (setup_ms "analyze");
      metric ~samples:ops "analyzer.builds" "count" (per st.builds);
      metric ~samples:ops "analyzer.extends" "count" (per st.extends);
      metric ~samples:(List.length ingest) "service.ingest_ms" "ms" (mean ingest);
      metric ~samples:ops "service.publishes" "count" (per st.publishes);
      metric ~samples:ops "service.plans_compiled" "count" (per st.compiled);
      metric ~samples:ops "service.plan_cache_hits" "count" (per st.hits);
      metric "checkpoint.rungs" "count" (float_of_int st.rungs);
    ]
    @ outcome_layers c @ collector_layers ~ops payload
    @
    match plain with
    | Some (pw, _, _, _, _, _) -> [ metric "trace.overhead_p50_ms" "ms" (median whatif -. median pw) ]
    | None -> []
  in
  {
    e2e; layers;
    counters =
      [
        ("whatif.replayed", c.replayed); ("whatif.undone", c.undone);
        ("analyzer.members", c.members);
        ("analyzer.closure_iters", counter payload "analyze.closure_iters");
        ("analyzer.builds", st.builds); ("analyzer.extends", st.extends);
        ("service.plans_compiled", st.compiled); ("whatif.plans_used", c.plans_used);
      ];
    targets = Array.to_list (Array.map render (specs o sz b ~epoch:0 sz.epoch));
    tally;
    facts =
      [
        ("system", J.Str "raw history behind one Whatif.Service");
        ("history_calls", J.Int (sz.calls + 1));
        ("histories", J.Int (Array.length bs));
        ("history_len", J.List (Array.to_list (Array.map (fun b -> J.Int (Array.length b.hist)) bs)));
        ("ingest_batch_txns", J.Int sz.batch);
        ("epoch_ops", J.Int sz.epoch);
        ("checkpoint_every", J.Int sz.checkpoint_every);
        ("workers", J.Int (host_workers ()));
        ("setups", J.Int sz.setups);
      ];
    valid = true;
  }
