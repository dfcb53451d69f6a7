(* serve-astore: the built [ultraverse serve] daemon as a child process
   with [--store DIR] (durable ingest: sync-every 1, sync-ms 0, fsync
   on), seeded with a raw-mode AStore history.

   The bench drives two connections: a closed-loop what-if connection
   (an analyst waits for each answer) and an open-loop ingest connection
   on its own thread, sending two application transactions per batch at
   a fixed rate (the application commits on its own schedule). Ingest
   latency is timed from when a batch was due, so a stall also charges
   the batches queued behind it.

   The daemon runs one what-if worker and serial replay ([--workers 1
   --replay-workers 1]): one closed-loop analyst never has more than one
   what-if in flight, and on a 2-vCPU host the default 4 x 2 domains made
   run-to-run latency vary by half its median. The sender is a thread,
   not a domain, for the same reason: a second domain in the bench
   process made whole runs bimodal.

   This is the only workload that crosses the socket, the frame codec,
   the admission queue, the writer-priority service lock and the durable
   log store, and its replay work is small. *)

open Uv_db
open Uv_retroactive
open Common
module W = Uv_workloads.Workload
module R = Uv_transpiler.Runtime
module Prng = Uv_util.Prng
module Frame_io = Uv_util.Frame_io

type sizes = {
  calls : int;  (** seed history in application transactions *)
  rate : float;  (** ingest batches per second (open loop) *)
  batches : int;  (** ingest batches available *)
  batch : int;  (** application transactions per ingest batch *)
  checks : int;  (** served answers cross-checked against one-shot runs *)
  setups : int;
}

let sizes (o : opts) =
  if o.tiny then { calls = 40; rate = 0.0; batches = 6; batch = 1; checks = 6; setups = 1 }
  else
    {
      calls = 600;
      rate = 10.0;
      batches = int_of_float (10.0 *. (warmup_s +. o.seconds +. 2.0));
      batch = 2;
      checks = 8;
      setups = 5;
    }

(* ------------------------------------------------------------------ *)
(* protocol                                                             *)
(* ------------------------------------------------------------------ *)

exception Transport of string

module Client = Serve.Client

let client sock = Client.connect (Serve.Unix_sock sock)

(* a request through the daemon's client library that must succeed *)
let req c what f =
  match f c with
  | Ok (Client.Result r) -> r
  | Ok (Client.Refused { code; _ }) -> raise (Transport (what ^ " refused: " ^ code))
  | Error msg -> raise (Transport (what ^ ": " ^ msg))

type reply = Ok_reply of J.t | Refused of string

(* The what-if round trip, outside the client library for two reasons:
   it reports the request and reply frame sizes, and it spins (yielding
   to the ingest thread) until the reply is readable instead of sleeping
   in [read]. A halted vCPU takes milliseconds to wake on a shared host,
   which otherwise lands in every round trip. Returns (reply, request
   frame bytes, reply frame bytes). *)
let whatif_polled fd payload =
  let req = Uv_obs.Report.to_string ~schema:"uv.serve/1" payload in
  (try Frame_io.write_frame fd req with Frame_io.Closed -> raise (Transport "closed"));
  while
    match Unix.select [ fd ] [] [] 0.0 with
    | [], _, _ -> true
    | _ -> false
  do
    Thread.yield ()
  done;
  match Frame_io.read_frame fd with
  | Error e -> raise (Transport (Frame_io.error_to_string e))
  | Ok raw -> (
      let bytes = (String.length req + 4, String.length raw + 4) in
      match Uv_obs.Report.parse ~expect:"uv.serve/1" raw with
      | Error msg -> raise (Transport msg)
      | Ok j -> (
          match J.member "ok" j with
          | Some (J.Bool true) -> (Ok_reply (Option.value (J.member "result" j) ~default:J.Null), bytes)
          | _ ->
              let code =
                match field [ "error"; "code" ] j with Some (J.Str c) -> c | _ -> "unknown"
              in
              (Refused code, bytes)))

(* ------------------------------------------------------------------ *)
(* daemon process                                                       *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; sock : string; mutable alive : bool }

let daemon_flags = [ "--workers"; "1"; "--replay-workers"; "1" ]

let start_daemon (o : opts) ~dir ~history =
  let sock = Filename.concat dir "uv.sock" and store = Filename.concat dir "store" in
  if Sys.file_exists sock then Sys.remove sock;
  let log =
    Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let args = (o.exe :: "serve" :: Option.to_list history) @ ("--socket" :: sock :: "--store" :: store :: daemon_flags) in
  let pid = Unix.create_process o.exe (Array.of_list args) Unix.stdin log log in
  Unix.close log;
  let d = { pid; sock; alive = true } in
  let t0 = now_ms () in
  let rec wait () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith ("serve-astore: daemon exited during start-up; see " ^ dir ^ "/daemon.log"));
    match client sock with
    | c ->
        ignore (req c "ping" Client.ping);
        Client.close c
    | exception Unix.Unix_error _ ->
        if now_ms () -. t0 > 120_000.0 then failwith "serve-astore: daemon did not come up";
        Unix.sleepf 0.005;
        wait ()
  in
  wait ();
  d

let rec waitpid_retry pid =
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* both reap the child; [alive] keeps a reaped (and possibly recycled)
   pid from being signalled again *)
let shutdown_daemon d =
  if d.alive then begin
    (try
       let c = client d.sock in
       ignore (req c "shutdown" Client.shutdown);
       Client.close c
     with _ -> Unix.kill d.pid Sys.sigkill);
    waitpid_retry d.pid;
    d.alive <- false
  end

let kill_daemon d =
  if d.alive then begin
    Unix.kill d.pid Sys.sigkill;
    waitpid_retry d.pid;
    d.alive <- false
  end

(* ------------------------------------------------------------------ *)
(* inputs                                                               *)
(* ------------------------------------------------------------------ *)

type built = {
  script : string list;  (** the seed history, statement by statement *)
  stmts : string array;  (** the application's seed statements *)
  app_lo : int;  (** first application statement's commit index *)
  seed_len : int;
  ingest : string array;  (** batch i's statements, as one script *)
  ingest_stmts : string list array;
}

let build (o : opts) sz =
  let w = W.by_name "AStore" in
  let eng, rt = W.setup ~seed:o.seed ~mode:R.Raw w in
  let base = Engine.snapshot eng in
  let prng = Prng.create ((o.seed * 7919) + 3) in
  let calls = w.W.target_call :: w.W.generate prng ~scale:1 ~n:sz.calls ~dep_rate in
  ignore (W.run_history rt ~mode:R.Raw calls);
  let h = Log.length (Engine.log eng) in
  (* the ingest stream: further transactions, [batch] per batch *)
  let more = w.W.generate prng ~scale:1 ~n:(3 * sz.batches * sz.batch) ~dep_rate in
  ignore (W.run_history rt ~mode:R.Raw more);
  let log = Engine.log eng in
  let groups =
    Session_tatp.txn_groups (List.init (Log.length log - h) (fun i -> Log.entry log (h + 1 + i)))
    |> List.map (List.map (fun s -> Uv_sql.Printer.stmt_compact s))
    |> Array.of_list
  in
  if Array.length groups < sz.batches * sz.batch then failwith "serve-astore: ingest stream too short";
  let ingest_stmts =
    Array.init sz.batches (fun i -> List.concat (List.init sz.batch (fun k -> groups.((i * sz.batch) + k))))
  in
  (* the daemon's history: the population dump, then the application's
     statements; run once here to learn the population's length *)
  let dump = Dump.to_sql base in
  let probe = Engine.create () in
  ignore (Engine.exec_script probe dump);
  let app_lo = Log.length (Engine.log probe) + 1 in
  let hist = List.init h (fun i -> Log.entry log (i + 1)) in
  {
    script = dump :: List.map (fun e -> Uv_sql.Printer.stmt_compact e.Log.stmt ^ ";") hist;
    stmts = Array.of_list (List.map (fun e -> Uv_sql.Printer.stmt_compact e.Log.stmt) hist);
    app_lo;
    seed_len = app_lo - 1 + h;
    ingest = Array.map (fun stmts -> String.concat ";\n" stmts ^ ";") ingest_stmts;
    ingest_stmts;
  }

type target = { tau : int; op : string; stmt : string option }

(* τ stratified over the application's seed history, the op mix of
   [op_kind]; the seed picks positions and statements *)
let targets (o : opts) b n =
  let prng = Prng.create ((o.seed * 104729) + 31) in
  let span = b.seed_len - b.app_lo + 1 in
  Array.init n (fun i ->
      let lo = b.app_lo + (i * span / n) in
      let tau = Prng.int_range prng lo (max lo (b.app_lo + ((i + 1) * span / n) - 1)) in
      match op_kind i with
      | Op_change -> { tau; op = "change"; stmt = Some (Prng.pick prng b.stmts) }
      | Op_add -> { tau; op = "add"; stmt = Some (Prng.pick prng b.stmts) }
      | Op_remove -> { tau; op = "remove"; stmt = None })
  |> fun ts ->
  Prng.shuffle prng ts;
  ts

let render t = Printf.sprintf "%s@%d%s" t.op t.tau (match t.stmt with Some s -> ":" ^ s | None -> "")

let analyzer_target t =
  let stmt () = Uv_sql.Parser.parse_stmt (Option.get t.stmt) in
  {
    Analyzer.tau = t.tau;
    op =
      (match t.op with
      | "change" -> Analyzer.Change (stmt ())
      | "add" -> Analyzer.Add (stmt ())
      | _ -> Analyzer.Remove);
  }


(* ------------------------------------------------------------------ *)
(* load                                                                 *)
(* ------------------------------------------------------------------ *)

type ingest_acc = {
  mutable lat : float list;  (** ack time minus due time *)
  mutable late : float list;  (** send time minus due time *)
  mutable acked : int list;  (** acknowledged batch ids, newest first *)
  mutable applied : int;  (** statements acknowledged *)
  mutable sent : int;
  mutable refused : string list;
  mutable sql_bytes : int;
}

let ingest_acc () = { lat = []; late = []; acked = []; applied = 0; sent = 0; refused = []; sql_bytes = 0 }

(* open loop: batch [first + k] is due at [start + k / rate], whatever
   happened to the batches before it *)
let ingest_loop b acc ~rate ~count ~first ~sock ~seed ~start ~timed_from ~deadline () =
  let c = client sock in
  let period = 1000.0 /. rate in
  let k = ref 0 in
  while !k < count && start +. (float_of_int !k *. period) < deadline do
    let due = start +. (float_of_int !k *. period) in
    let wait = due -. now_ms () in
    if wait > 0.0 then Unix.sleepf (wait /. 1000.0);
    let timed = due >= timed_from in
    if timed then acc.late <- (now_ms () -. due) :: acc.late;
    let i = first + !k in
    acc.sent <- acc.sent + 1;
    (match Client.ingest ~id:i ~idem_key:(Printf.sprintf "s%d-b%d" seed i) c b.ingest.(i) with
    | Ok (Client.Result r) when int_of [ "failed" ] r = 0 ->
        if timed then acc.lat <- (now_ms () -. due) :: acc.lat;
        acc.acked <- i :: acc.acked;
        acc.applied <- acc.applied + int_of [ "applied" ] r;
        acc.sql_bytes <- acc.sql_bytes + String.length b.ingest.(i)
    | Ok (Client.Result _) -> acc.refused <- "ingest_stmt_failed" :: acc.refused
    | Ok (Client.Refused { code; _ }) -> acc.refused <- code :: acc.refused
    | Error msg -> acc.refused <- ("transport: " ^ msg) :: acc.refused);
    incr k
  done;
  Client.close c

type served = { t : target; history_len : int; hash : string }

type whatif_acc = {
  mutable wlat : float list;
  mutable wlat_traced : float list;  (** the traced run's second half *)
  mutable samples : served list;
  mutable req_bytes : int;
  mutable reply_bytes : int;
  mutable pings : float list;
  mutable queue : float list;
  mutable writers : float list;
  mutable served : int;  (** what-ifs answered, warm-up included *)
  mutable rss_kb : int;  (** the daemon's VmHWM after [rss_at] of them *)
  c : op_counts;
}

(* The daemon's memory grows with every what-if it serves (its live trace
   collector keeps every span), so its peak is read after a fixed number
   of what-ifs, not at a clock time that a faster build fills with more
   work. *)
let rss_at = 2500

let whatif_acc () =
  { wlat = []; wlat_traced = []; samples = []; req_bytes = 0; reply_bytes = 0; pings = []; queue = []; writers = []; served = 0; rss_kb = 0; c = op_counts () }

(* with a live tracer, only what-ifs started after [trace_from] are traced
   (spans and probes); the earlier ones give the untraced baseline *)
let whatif_loop (o : opts) acc tally ~pid ~sock ~ctl ~timed_from ~trace_from ~deadline ~targets ~first ~count ~tr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX sock)
   with e ->
     Unix.close fd;
     raise e);
  let n = Array.length targets in
  let i = ref 0 in
  let off = tracer false in
  while !i < count && (o.tiny || now_ms () < deadline) do
    let t = targets.((first + !i) mod n) in
    let op = first + !i + 1 in
    attempt tally;
    let t0 = now_ms () in
    let tr = if t0 >= trace_from then tr else off in
    let res =
      span tr ~op "op.whatif" (fun parent ->
          let payload =
            span tr ~parent ~op "client.encode" (fun _ ->
                Client.whatif_payload ~id:op ~tau:t.tau ~op:t.op ?stmt:t.stmt ())
          in
          span tr ~parent ~op "serve.roundtrip" (fun _ -> whatif_polled fd payload))
    in
    let ms = now_ms () -. t0 in
    (match res with
    | Ok_reply r, (qb, rb) -> (
        (match J.member "final_db_hash" r with
        | Some _ ->
            acc.served <- acc.served + 1;
            if acc.served = rss_at then acc.rss_kb <- vm_hwm_kb (string_of_int pid)
        | None -> ());
        match J.member "final_db_hash" r with
        | Some (J.Str hash) when t0 < timed_from ->
            acc.samples <- { t; history_len = int_of [ "history_len" ] r; hash } :: acc.samples
        | Some (J.Str hash) ->
            acc.req_bytes <- acc.req_bytes + qb;
            acc.reply_bytes <- acc.reply_bytes + rb;
            acc.wlat <- ms :: acc.wlat;
            if tr.on then acc.wlat_traced <- ms :: acc.wlat_traced;
            let hl = int_of [ "history_len" ] r in
            let c = acc.c in
            c.ops <- c.ops + 1;
            c.history <- c.history + hl;
            c.members <- c.members + int_of [ "replay_set" ] r;
            c.replayed <- c.replayed + int_of [ "replayed" ] r;
            c.undone <- c.undone + int_of [ "undone" ] r;
            c.failed_replays <- c.failed_replays + int_of [ "failed_replays" ] r;
            c.plans_used <- c.plans_used + int_of [ "plans_used" ] r;
            c.waves <- c.waves + int_of [ "waves" ] r;
            if field [ "rollback_strategy" ] r = Some (J.Str "checkpoint") then
              c.ckpt_rollbacks <- c.ckpt_rollbacks + 1;
            acc.samples <- { t; history_len = hl; hash } :: acc.samples
        | _ -> fail tally "bad_reply")
    | Refused code, _ -> fail tally code
    | exception Transport msg -> fail tally ("transport: " ^ msg));
    (* probes on the control connection, traced run only: a ping round
       trip (no what-if work) and a health sample every 16 what-ifs *)
    if tr.on && op mod 16 = 0 then begin
      let p0 = now_ms () in
      ignore (req ctl "ping" Client.ping);
      acc.pings <- (now_ms () -. p0) :: acc.pings;
      let h = req ctl "health" Client.health in
      acc.queue <- float_of_int (int_of [ "queue_pending" ] h) :: acc.queue;
      acc.writers <- float_of_int (int_of [ "waiting_writers" ] h) :: acc.writers
    end;
    incr i
  done;
  Unix.close fd

(* ------------------------------------------------------------------ *)
(* checks                                                               *)
(* ------------------------------------------------------------------ *)

(* Re-execute the daemon's history on a fresh engine up to each sampled
   answer's history length and ask the same question one-shot. The
   history is the seed script, then the acknowledged batches in order
   (one ingest connection, so acks arrive in history order). *)
let one_shot_checks b tally ~acked samples ~cap =
  let points =
    List.sort_uniq compare (List.map (fun s -> (s.history_len, render s.t, s)) samples)
    |> List.map (fun (_, _, s) -> s)
  in
  let stride = max 1 ((List.length points + cap - 1) / cap) in
  let points = List.filteri (fun i _ -> i mod stride = 0) points in
  let eng = Engine.create () in
  let pending =
    ref
      (b.script
      @ List.concat_map (fun i -> List.map (fun s -> s ^ ";") b.ingest_stmts.(i)) (List.rev acked))
  in
  let advance len =
    while Log.length (Engine.log eng) < len && !pending <> [] do
      List.iter
        (fun s -> try ignore (Engine.exec eng s) with Engine.Sql_error _ | Engine.Signal_raised _ -> ())
        (Uv_sql.Parser.parse_script (List.hd !pending));
      pending := List.tl !pending
    done
  in
  List.iter
    (fun s ->
      advance s.history_len;
      let analyzer = Analyzer.analyze (Engine.log eng) in
      match Whatif.run ~config:(Whatif.Config.make ~workers:2 ()) ~analyzer eng (analyzer_target s.t) with
      | Ok out
        when hash_hex out.Whatif.final_db_hash = s.hash && Log.length (Engine.log eng) = s.history_len ->
          ()
      | _ ->
          fail tally "hash_divergence";
          check_error tally
            (Printf.sprintf "serve-astore: %s at history %d differs from a one-shot run" (render s.t)
               s.history_len))
    points;
  List.length points

(* ------------------------------------------------------------------ *)

let run (o : opts) : result =
  let sz = sizes o in
  let dir = Filename.concat o.work_dir "serve" in
  rm_rf dir;
  mkdir_p dir;
  let history = Filename.concat dir "history.sql" in
  let store = Filename.concat dir "store" in
  (* set-up, repeated: generate, write the seed history, start the
     daemon on an empty store and wait until it answers *)
  let setups =
    List.init sz.setups (fun k ->
        rm_rf store;
        let t0 = now_ms () in
        let b = build o sz in
        let oc = open_out history in
        List.iter (fun s -> output_string oc (s ^ "\n")) b.script;
        close_out oc;
        let t1 = now_ms () in
        let d = start_daemon o ~dir ~history:(Some history) in
        let t2 = now_ms () in
        if k < sz.setups - 1 then shutdown_daemon d;
        (b, d, t2 -. t0, t1 -. t0, t2 -. t1))
  in
  let b, d, _, generate_ms, ready_ms = List.nth setups (sz.setups - 1) in
  let setup_s = setup_median (List.map (fun (_, _, ms, _, _) -> ms) setups) in
  let tally = tally () in
  let tr = tracer o.trace in
  (* many strata: every run spreads over the same wide mix of targets, so
     a seed moves the inputs without moving the cost distribution much *)
  let targets = targets o b 1200 in
  let d = ref d in
  Fun.protect
    ~finally:(fun () -> try kill_daemon !d with Unix.Unix_error _ -> ())
    (fun () ->
      let ctl = client !d.sock in
      let stats0 = req ctl "stats" Client.stats in
      let seed_len = int_of [ "history_len" ] stats0 in
      if seed_len <> b.seed_len then
        check_error tally
          (Printf.sprintf "serve-astore: daemon loaded %d statements, expected %d" seed_len b.seed_len);
      let hwm0 = vm_hwm_kb (string_of_int !d.pid) in
      let store0 = dir_bytes store in
      let ia = ingest_acc () and wa = whatif_acc () in
      (* the traffic runs a warm-up of [warmup_s] before the timed
         region: a fresh daemon answers measurably slower for its first
         seconds (replay domains, heap growth, first snapshot refreshes) *)
      let start = now_ms () in
      let timed_from = if o.tiny then start else start +. (warmup_s *. 1000.0) in
      let deadline = timed_from +. (o.seconds *. 1000.0) in
      if o.tiny then
        (* self-test: a fixed sequential schedule (ingest batch k, then
           what-if k), so every counter repeats exactly *)
        for k = 0 to sz.batches - 1 do
          ingest_loop b ia ~rate:1.0 ~count:1 ~first:k ~sock:!d.sock ~seed:o.seed ~start:(now_ms ())
            ~timed_from ~deadline:infinity ();
          whatif_loop o wa tally ~pid:!d.pid ~sock:!d.sock ~ctl ~timed_from ~trace_from:timed_from ~deadline ~targets
            ~first:k ~count:1
            ~tr
        done
      else begin
        let ing =
          Thread.create
            (ingest_loop b ia ~rate:sz.rate ~count:sz.batches ~first:0 ~sock:!d.sock ~seed:o.seed
               ~start ~timed_from ~deadline)
            ()
        in
        whatif_loop o wa tally ~pid:!d.pid ~sock:!d.sock ~ctl ~timed_from
          ~trace_from:(timed_from +. (o.seconds *. 500.0))
          ~deadline ~targets ~first:0 ~count:max_int ~tr;
        Thread.join ing
      end;
      let run_ms = now_ms () -. timed_from in
      tally.attempted <- tally.attempted + ia.sent;
      List.iter (fail tally) ia.refused;
      let stats = req ctl "stats" Client.stats and health = req ctl "health" Client.health in
      let payload = req ctl "metrics" Client.metrics in
      let hwm = vm_hwm_kb (string_of_int !d.pid) in
      let store_growth = dir_bytes store - store0 in
      Client.close ctl;
      (* correctness: sampled answers against one-shot runs *)
      let checked = one_shot_checks b tally ~acked:ia.acked wa.samples ~cap:sz.checks in
      (* recovery: SIGKILL, restart on the same store, and the recovered
         history must be the seed plus every acknowledged statement *)
      kill_daemon !d;
      d := start_daemon o ~dir ~history:None;
      let ctl = client !d.sock in
      let recovered = int_of [ "history_len" ] (req ctl "stats" Client.stats) in
      Client.close ctl;
      shutdown_daemon !d;
      let expected = seed_len + ia.applied in
      if recovered <> expected then
        check_error tally
          (Printf.sprintf "serve-astore: recovered %d statements after SIGKILL, expected %d" recovered
             expected);
      let period = if o.tiny then infinity else 1000.0 /. sz.rate in
      let late_p95 = percentile 95.0 ia.late in
      let c = wa.c in
      let ops = c.ops in
      let per x = float_of_int x /. float_of_int (max 1 ops) in
      (* the daemon's own counters cover every what-if it served, warm-up
         and untraced half included *)
      let served = int_of [ "whatifs" ] stats in
      let per_served x = float_of_int x /. float_of_int (max 1 served) in
      (* counted from the seeded daemon, so its start-up build is not a
         per-op build *)
      let svc k = int_of [ "service"; k ] stats - int_of [ "service"; k ] stats0 in
      let flushes = int_of [ "durable"; "flushes" ] health in
      let span_ms name =
        let count = int_of [ "spans"; name; "count" ] payload in
        Option.value (num [ "spans"; name; "total_ms" ] payload) ~default:0.0
        /. float_of_int (max 1 count)
      in
      let key_count =
        List.fold_left
          (fun acc k -> acc + match field [ k ] payload with Some (J.Obj kv) -> List.length kv | _ -> 0)
          0 [ "counters"; "histograms"; "spans" ]
      in
      if o.trace then write_spans tr (Filename.concat o.work_dir "spans-serve-astore.json");
      let e2e =
        e2e_metrics ~setup_s ~whatif:wa.wlat ~ingest:ia.lat ~run_ms
          ~peak_rss_kb:(if wa.rss_kb > 0 then wa.rss_kb else hwm)
          tally
      in
      let layers =
        [
          metric "setup.generate_ms" "ms" generate_ms;
          metric "setup.daemon_ready_ms" "ms" ready_ms;
          metric ~samples:ops "analyzer.closure_ms" "ms" (span_ms "analyze");
          metric ~samples:ops "analyzer.members" "count" (per c.members);
          metric ~samples:ops "analyzer.member_share" "ratio"
            (float_of_int c.members /. float_of_int (max 1 c.history));
          metric ~samples:ops "analyzer.builds" "count" (per_served (svc "analyzer_builds"));
          metric ~samples:ops "analyzer.extends" "count" (per_served (svc "analyzer_extends"));
          metric ~samples:ops "whatif.snapshot_ms" "ms" (span_ms "snapshot");
          metric ~samples:ops "whatif.rollback_ms" "ms" (span_ms "rollback");
          metric ~samples:ops "whatif.replay_ms" "ms" (span_ms "replay");
          metric ~samples:ops "whatif.cost_model_ms" "ms" (span_ms "cost-model");
          metric ~samples:ops "whatif.merge_log_ms" "ms" (span_ms "merge-log");
          metric ~samples:ops "whatif.undone" "count" (per c.undone);
          metric ~samples:ops "whatif.replayed" "count" (per c.replayed);
          metric ~samples:ops "whatif.failed_replays" "count" (per c.failed_replays);
          metric ~samples:ops "whatif.plans_used" "count" (per c.plans_used);
          metric ~samples:ops "whatif.checkpoint_rollback_share" "ratio" (per c.ckpt_rollbacks);
          metric ~samples:ops "wave_exec.waves" "count" (per c.waves);
          (* the reply carries no parallel wall time: the replay phase *)
          metric ~samples:ops "wave_exec.parallel_ms" "ms" (span_ms "replay");
          metric "checkpoint.rungs" "count" (float_of_int (int_of [ "service"; "checkpoint_rungs" ] stats));
          metric ~samples:ops "service.publishes" "count" (per_served (svc "publishes"));
          metric ~samples:ops "service.plans_compiled" "count" (per_served (svc "plans_compiled"));
          metric ~samples:ops "service.plan_cache_hits" "count" (per_served (svc "plan_cache_hits"));
          metric ~samples:(List.length wa.pings) "serve.ping_rtt_ms" "ms" (median wa.pings);
          metric ~samples:(List.length wa.queue) "serve.queue_depth" "count" (mean wa.queue);
          metric ~samples:(List.length wa.writers) "serve.lock_waiting_writers" "count" (mean wa.writers);
          metric "serve.rejected_saturated" "count" (float_of_int (int_of [ "rejected_saturated" ] stats));
          metric "serve.shed_admission" "count" (float_of_int (int_of [ "shed_admission" ] stats));
          metric "serve.deadline_exceeded" "count" (float_of_int (int_of [ "deadline_exceeded" ] stats));
          metric "serve.metric_keys" "count" (float_of_int key_count);
          metric "serve.rss_growth_kb" "KiB" (float_of_int (hwm - hwm0));
          metric ~samples:ops "frame.request_bytes" "B" (per wa.req_bytes);
          metric ~samples:ops "frame.reply_bytes" "B" (per wa.reply_bytes);
          metric "durable.flushes" "count" (float_of_int flushes);
          metric "durable.batches_per_flush" "ratio"
            (float_of_int (int_of [ "ingests" ] stats) /. float_of_int (max 1 flushes));
          metric "log_store.bytes_per_sql_byte" "ratio"
            (float_of_int store_growth /. float_of_int (max 1 ia.sql_bytes));
          metric ~samples:(List.length ia.late) "loadgen.ingest_late_ms" "ms" late_p95;
        ]
        @ collector_layers ~ops:served payload
        @
        (* the traced second half against the untraced first half; the
           history grows meanwhile, so this over-states the overhead *)
        if o.trace then
          let plain = List.filteri (fun i _ -> i >= List.length wa.wlat_traced) wa.wlat in
          [ metric "trace.overhead_p50_ms" "ms" (median wa.wlat_traced -. median plain) ]
        else []
      in
      {
        e2e; layers;
        counters =
          [
            ("whatif.replayed", c.replayed); ("whatif.undone", c.undone);
            ("analyzer.members", c.members);
            ("analyzer.closure_iters", counter payload "analyze.closure_iters");
            ("analyzer.builds", svc "analyzer_builds"); ("analyzer.extends", svc "analyzer_extends");
            ("service.plans_compiled", svc "plans_compiled"); ("whatif.plans_used", c.plans_used);
          ];
        targets = Array.to_list (Array.map render targets);
        tally;
        facts =
          [
            ("system", J.Str "ultraverse serve daemon, raw AStore history");
            ("daemon_flags", J.Str (String.concat " " ("--store DIR" :: daemon_flags)));
            ("flush_policy", J.Str "sync-every 1, sync-ms 0, fsync on");
            ("recovery_check",
              J.Str "SIGKILL keeps the OS page cache: proves ack ordering, not device flushes");
            ("history_calls", J.Int (sz.calls + 1));
            ("seed_history_len", J.Int seed_len);
            ("ingest_rate_per_s", J.Float sz.rate);
            ("ingest_acked_batches", J.Int (List.length ia.acked));
            ("ingest_acked_statements", J.Int ia.applied);
            ("recovered_history_len", J.Int recovered);
            ("one_shot_checks", J.Int checked);
            ("connections", J.Str "1 closed-loop what-if + 1 open-loop ingest");
            ("ingest_batch_txns", J.Int sz.batch);
            ("workers", J.Int 1);
            ("loadgen_late_p95_ms", J.Float late_p95);
          ];
        valid = late_p95 <= period;
      })
