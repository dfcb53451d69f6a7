(* Shared machinery of the what-if benchmark: run options, percentiles,
   the bench-side span recorder, failure tallies and the per-workload
   result record that [main] prints.

   Spans are recorded here, around calls into each layer's public entry
   points, never inside the library: the library's own counters are read
   from what it already exposes (outcome fields, Service.stats, a live
   Uv_obs.Trace collector, the daemon's stats/metrics/health replies). *)

module J = Uv_obs.Json

let now_ms = Uv_util.Clock.now_ms

type opts = {
  seed : int;
  seconds : float;  (** length of the timed region *)
  trace : bool;  (** per-layer run: spans, live collectors, probes *)
  tiny : bool;
      (** self-test sizing: one fixed op schedule, no clock, so every
          work counter repeats exactly *)
  work_dir : string;  (** scratch directory inside the checkout *)
  exe : string;  (** the built [ultraverse] CLI *)
}

let host_workers () = Domain.recommended_domain_count ()

(* untimed traffic before every timed region *)
let warmup_s = 4.0

(* The shape of the generated traffic, shared by the workloads (see the
   README's "Where the traffic comes from"). The generators' dependency
   rate is 50 %, the setting of the repo's Table 4(a) reproduction. *)
let dep_rate = 0.5

type op_kind = Op_remove | Op_change | Op_add

(* target i's operation: removal, the operation the paper's evaluation
   times, in six of ten; change and add in two each, so every path of
   the driver is measured and checked *)
let op_kind i = match i mod 10 with 0 | 5 -> Op_change | 2 | 7 -> Op_add | _ -> Op_remove

(* ------------------------------------------------------------------ *)
(* statistics                                                           *)
(* ------------------------------------------------------------------ *)

(* nearest-rank percentile; [nan] on no samples *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) idx))

let median xs = percentile 50.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

type metric = { name : string; value : float; unit_ : string; samples : int option }

let metric ?samples name unit_ value = { name; value; unit_; samples }

(* p50/p95 pair of one latency population, sample counts attached *)
let latency_metrics prefix xs =
  let n = List.length xs in
  [
    metric ~samples:n (prefix ^ "_p50_ms") "ms" (percentile 50.0 xs);
    metric ~samples:n (prefix ^ "_p95_ms") "ms" (percentile 95.0 xs);
  ]

(* ------------------------------------------------------------------ *)
(* process facts                                                        *)
(* ------------------------------------------------------------------ *)

(* VmHWM (peak resident set) of a process, in KiB; [who] is a pid or
   "self" *)
let vm_hwm_kb who =
  let path = Printf.sprintf "/proc/%s/status" who in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec dir_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | st -> st.Unix.st_size

(* ------------------------------------------------------------------ *)
(* span recorder                                                        *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  sname : string;
  start : float;
  stop : float;
  parent : int;  (** 0 = root *)
  op : int;  (** operation the span belongs to *)
}

type tracer = { on : bool; mutable spans : span list; mutable next : int }

let tracer on = { on; spans = []; next = 1 }

let record tr ~parent ~op sname start stop =
  if not tr.on then 0
  else begin
    let id = tr.next in
    tr.next <- id + 1;
    tr.spans <- { id; sname; start; stop; parent; op } :: tr.spans;
    id
  end

(* [span tr ~op name f] runs [f id] inside a span whose id children use
   as their parent *)
let span tr ?(parent = 0) ~op sname f =
  if not tr.on then f 0
  else begin
    let id = tr.next in
    tr.next <- id + 1;
    let start = now_ms () in
    Fun.protect
      ~finally:(fun () ->
        tr.spans <- { id; sname; start; stop = now_ms (); parent; op } :: tr.spans)
      (fun () -> f id)
  end

(* The driver's phases ([outcome.phases]) as child spans of the run span,
   laid end to end from the run's start: the phases are sequential and
   cover the run, so the run span's self time is what the phases miss. *)
let phase_spans tr ~parent ~op ~start phases =
  ignore
    (List.fold_left
       (fun t (ph, ms) ->
         ignore (record tr ~parent ~op ("whatif.phase." ^ ph) t (t +. ms));
         t +. ms)
       start phases)

(* per span name: (count, total ms, self ms) where self time is the
   duration minus the union of the children's intervals inside it *)
let self_times spans =
  let kids = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent s) spans;
  let agg = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let ivs =
        Hashtbl.find_all kids s.id
        |> List.map (fun c -> (Float.max s.start c.start, Float.min s.stop c.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, s.start) ivs
      in
      let dur = s.stop -. s.start in
      let n, tot, self =
        Option.value (Hashtbl.find_opt agg s.sname) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace agg s.sname (n + 1, tot +. dur, self +. (dur -. covered)))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg [] |> List.sort compare

let write_spans tr path =
  let spans = List.rev tr.spans in
  let t0 = match spans with [] -> 0.0 | s :: _ -> s.start in
  let span_json s =
    J.Obj
      [
        ("id", J.Int s.id);
        ("name", J.Str s.sname);
        ("start_ms", J.Float (s.start -. t0));
        ("end_ms", J.Float (s.stop -. t0));
        ("parent", J.Int s.parent);
        ("op", J.Int s.op);
      ]
  in
  let selfs =
    List.map
      (fun (name, (n, tot, self)) ->
        ( name,
          J.Obj
            [ ("count", J.Int n); ("total_ms", J.Float tot); ("self_ms", J.Float self) ] ))
      (self_times spans)
  in
  let oc = open_out path in
  output_string oc
    (J.to_string (J.Obj [ ("spans", J.List (List.map span_json spans)); ("self", J.Obj selfs) ]));
  close_out oc

(* ------------------------------------------------------------------ *)
(* live-collector readers                                               *)
(* ------------------------------------------------------------------ *)

let field path j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path

let num path j = Option.bind (field path j) J.to_float
let int_of path j = match num path j with Some f -> int_of_float f | None -> 0

(* a [uv.metrics/1] payload's counter / histogram field *)
let counter payload name = int_of [ "counters"; name ] payload
let hist payload name key = Option.value (num [ "histograms"; name; key ] payload) ~default:0.0

(* ------------------------------------------------------------------ *)
(* failure accounting                                                   *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  reasons : (string, int) Hashtbl.t;
  mutable check_errors : string list;  (** correctness-gate failures *)
}

let tally () = { attempted = 0; failed = 0; reasons = Hashtbl.create 8; check_errors = [] }
let attempt t = t.attempted <- t.attempted + 1

let fail t reason =
  t.failed <- t.failed + 1;
  Hashtbl.replace t.reasons reason
    (1 + Option.value (Hashtbl.find_opt t.reasons reason) ~default:0)

let check_error t msg =
  prerr_endline ("CHECK FAILED: " ^ msg);
  t.check_errors <- msg :: t.check_errors

(* ------------------------------------------------------------------ *)
(* per-workload result                                                  *)
(* ------------------------------------------------------------------ *)

type result = {
  e2e : metric list;
  layers : metric list;
  counters : (string * int) list;
      (** deterministic work counts compared by the self-test *)
  targets : string list;  (** the generated target list, rendered *)
  tally : tally;
  facts : (string * J.t) list;
  valid : bool;  (** the load generator held its schedule *)
}

(* what every workload reports end to end, given its samples; [run_ms] is
   the timed time whatif_per_s divides by *)
let e2e_metrics ~setup_s ~whatif ~ingest ~run_ms ~peak_rss_kb (t : tally) =
  [ metric "setup_s" "s" setup_s ]
  @ latency_metrics "whatif" whatif
  @ [
      metric ~samples:(List.length whatif) "whatif_per_s" "1/s"
        (float_of_int (List.length whatif) /. (run_ms /. 1000.0));
    ]
  @ latency_metrics "ingest" ingest
  @ [
      metric ~samples:t.attempted "fail_ratio" "ratio"
        (float_of_int t.failed /. float_of_int (max 1 t.attempted));
      metric "peak_rss_mb" "MB" (float_of_int peak_rss_kb /. 1024.0);
    ]

(* median over repeated set-ups, in seconds *)
let setup_median ms = median ms /. 1000.0

let time f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

let hash_hex h = Printf.sprintf "%Lx" h

(* per-table hashes of a catalog, the oracle's comparison key *)
let table_hashes cat =
  List.map (fun (n, t) -> (n, Uv_db.Storage.hash t)) (Uv_db.Catalog.tables cat)

(* the deterministic per-op layer counts every in-process workload reads
   off an outcome *)
type op_counts = {
  mutable ops : int;
  mutable members : int;
  mutable history : int;
  mutable replayed : int;
  mutable undone : int;
  mutable failed_replays : int;
  mutable plans_used : int;
  mutable waves : int;
  mutable ckpt_rollbacks : int;
  mutable minor_words : float;
  phase_ms : (string, float) Hashtbl.t;
  mutable parallel_ms : float;
  mutable closure_ms : float;
}

let op_counts () =
  {
    ops = 0; members = 0; history = 0; replayed = 0; undone = 0; failed_replays = 0;
    plans_used = 0; waves = 0; ckpt_rollbacks = 0; minor_words = 0.0;
    phase_ms = Hashtbl.create 8; parallel_ms = 0.0; closure_ms = 0.0;
  }

let note_outcome c ~history (o : Uv_retroactive.Whatif.outcome) =
  let module W = Uv_retroactive.Whatif in
  c.ops <- c.ops + 1;
  c.members <- c.members + o.W.replay.Uv_retroactive.Analyzer.member_count;
  c.history <- c.history + history;
  c.replayed <- c.replayed + o.W.replayed;
  c.undone <- c.undone + o.W.undone;
  c.failed_replays <- c.failed_replays + o.W.failed_replays;
  c.plans_used <- c.plans_used + o.W.plans_used;
  c.waves <- c.waves + o.W.exec_waves;
  if o.W.rollback_strategy = "checkpoint" then c.ckpt_rollbacks <- c.ckpt_rollbacks + 1;
  c.parallel_ms <- c.parallel_ms +. Option.value o.W.measured_parallel_ms ~default:0.0;
  c.closure_ms <- c.closure_ms +. o.W.analysis_ms;
  List.iter
    (fun (ph, ms) ->
      Hashtbl.replace c.phase_ms ph
        (ms +. Option.value (Hashtbl.find_opt c.phase_ms ph) ~default:0.0))
    o.W.phases

(* per-op means of the outcome counts, named as the layer metrics *)
let outcome_layers c =
  let per x = float_of_int x /. float_of_int (max 1 c.ops) in
  let perf x = x /. float_of_int (max 1 c.ops) in
  let phase ph = perf (Option.value (Hashtbl.find_opt c.phase_ms ph) ~default:0.0) in
  let n = c.ops in
  [
    metric ~samples:n "analyzer.closure_ms" "ms" (perf c.closure_ms);
    metric ~samples:n "analyzer.members" "count" (per c.members);
    metric ~samples:n "analyzer.member_share" "ratio"
      (float_of_int c.members /. float_of_int (max 1 c.history));
    metric ~samples:n "whatif.snapshot_ms" "ms" (phase "snapshot");
    metric ~samples:n "whatif.rollback_ms" "ms" (phase "rollback");
    metric ~samples:n "whatif.replay_ms" "ms" (phase "replay");
    metric ~samples:n "whatif.cost_model_ms" "ms" (phase "cost-model");
    metric ~samples:n "whatif.merge_log_ms" "ms" (phase "merge-log");
    metric ~samples:n "whatif.undone" "count" (per c.undone);
    metric ~samples:n "whatif.replayed" "count" (per c.replayed);
    metric ~samples:n "whatif.failed_replays" "count" (per c.failed_replays);
    metric ~samples:n "whatif.plans_used" "count" (per c.plans_used);
    metric ~samples:n "whatif.checkpoint_rollback_share" "ratio" (per c.ckpt_rollbacks);
    metric ~samples:n "wave_exec.waves" "count" (per c.waves);
    metric ~samples:n "wave_exec.parallel_ms" "ms" (perf c.parallel_ms);
    metric ~samples:n "gc.minor_words_per_op" "words" (perf c.minor_words);
  ]

(* engine / wave-executor layers from a live collector's payload *)
let collector_layers ~ops payload =
  let perf x = x /. float_of_int (max 1 ops) in
  let per x = float_of_int x /. float_of_int (max 1 ops) in
  [
    metric ~samples:ops "analyzer.closure_iters" "count" (per (counter payload "analyze.closure_iters"));
    metric ~samples:ops "engine.exec_ms" "ms" (perf (hist payload "db.exec_ms" "sum_ms"));
    metric ~samples:ops "engine.rollback_ms" "ms" (perf (hist payload "db.rollback_ms" "sum_ms"));
    metric ~samples:ops "engine.log_appends" "count" (per (counter payload "db.log_appends"));
    metric ~samples:ops "engine.plan_hits" "count" (per (counter payload "db.plan_hits"));
    metric ~samples:ops "engine.plan_binds_failed" "count" (per (counter payload "db.plan_binds_failed"));
    metric ~samples:ops "wave_exec.queue_wait_ms" "ms" (hist payload "replay.queue_wait_ms" "p50_ms");
    metric ~samples:ops "wave_exec.utilization" "ratio" (hist payload "replay.utilization" "p50_ms");
    metric ~samples:ops "checkpoint.jumps" "count" (per (counter payload "whatif.checkpoint_jumps"));
  ]

let print_line fmt = Printf.printf (fmt ^^ "\n%!")
