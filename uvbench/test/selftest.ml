(* Deterministic-counter self-test of the what-if benchmark.

   Runs every workload twice at a tiny size with one seed, on a fixed op
   schedule instead of a clock, and requires the work counters to repeat
   exactly; a second seed must change the target list. Every run also
   passes its own correctness gate (oracle, sessionless and one-shot
   cross-checks, the daemon's crash recovery).

     selftest.exe --exe _build/default/bin/ultraverse.exe --work-dir DIR *)

open Uvbench

let () =
  let exe = ref "_build/default/bin/ultraverse.exe" and work_dir = ref ".uvbench/selftest" in
  Arg.parse
    [
      ("--exe", Arg.Set_string exe, "PATH the ultraverse CLI");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "selftest.exe --exe PATH --work-dir DIR";
  Common.mkdir_p !work_dir;
  let failures = ref 0 in
  let check name ok =
    Printf.printf "  %-52s %s\n%!" name (if ok then "ok" else "FAILED");
    if not ok then incr failures
  in
  List.iter
    (fun (name, run) ->
      Printf.printf "%s\n%!" name;
      let go seed =
        let r =
          run
            {
              Common.seed; seconds = 0.0; trace = false; tiny = true; work_dir = !work_dir;
              exe = !exe;
            }
        in
        let t = r.Common.tally in
        check
          (Printf.sprintf "seed %d: %d ops, no failures, checks pass" seed t.Common.attempted)
          (t.Common.failed = 0 && t.Common.check_errors = [] && t.Common.attempted > 0);
        r
      in
      let a = go 7 and b = go 7 and c = go 8 in
      List.iter
        (fun (k, v) ->
          let v' = List.assoc k b.Common.counters in
          check (Printf.sprintf "%s repeats (%d, %d)" k v v') (v = v'))
        a.Common.counters;
      check "another seed changes the targets" (a.Common.targets <> c.Common.targets))
    Suite.workloads;
  if !failures > 0 then begin
    Printf.printf "%d self-test check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "self-test passed"
