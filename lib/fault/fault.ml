type kind = Stmt_fail | Torn_write

type injection = {
  site : string;
  key : int;
  hit : int;
  kind : kind;
  arg : float;
}

exception Injected of injection

type policy =
  | Seeded of int * (kind * float) list
  | Script of injection list

type state = {
  policy : policy;
  mutex : Mutex.t;
  hits : (string * int, int ref) Hashtbl.t;
  mutable fired_rev : injection list;
}

type t = Off | On of state

let disabled = Off

let enabled = function Off -> false | On _ -> true

let make policy =
  On
    {
      policy;
      mutex = Mutex.create ();
      hits = Hashtbl.create 16;
      fired_rev = [];
    }

let seeded ?(stmt_fail = 0.0) ?(torn_write = 0.0) ~seed () =
  make (Seeded (seed, [ (Stmt_fail, stmt_fail); (Torn_write, torn_write) ]))

let script plan = make (Script plan)

(* The decision is a pure function of (seed, site, key, hit): a private
   PRNG is seeded from the coordinates, drawn once for the fire roll and
   once more for the fault argument. *)
let decide policy site key hit kinds =
  match policy with
  | Script plan ->
      List.find_opt
        (fun inj ->
          String.equal inj.site site && inj.key = key && inj.hit = hit
          && List.mem inj.kind kinds)
        plan
  | Seeded (seed, probs) ->
      let prng =
        Uv_util.Prng.create
          ((seed * 1_000_003) lxor Hashtbl.hash (site, key, hit))
      in
      let u = Uv_util.Prng.float prng 1.0 in
      let applicable = List.filter (fun (k, _) -> List.mem k kinds) probs in
      let rec pick acc = function
        | [] -> None
        | (k, p) :: rest ->
            if p > 0.0 && u < acc +. p then
              let arg =
                match k with
                | Torn_write -> Uv_util.Prng.float prng 1.0
                | Stmt_fail -> 0.0
              in
              Some { site; key; hit; kind = k; arg }
            else pick (acc +. p) rest
      in
      pick 0.0 applicable

let check ?(key = 0) t site kinds =
  match t with
  | Off -> None
  | On st ->
      Mutex.lock st.mutex;
      let hit =
        match Hashtbl.find_opt st.hits (site, key) with
        | Some r ->
            incr r;
            !r
        | None ->
            Hashtbl.add st.hits (site, key) (ref 1);
            1
      in
      let decision = decide st.policy site key hit kinds in
      (match decision with
      | Some inj -> st.fired_rev <- inj :: st.fired_rev
      | None -> ());
      Mutex.unlock st.mutex;
      decision

let fire ?key t site kinds =
  match check ?key t site kinds with
  | Some inj -> raise (Injected inj)
  | None -> ()

let fired = function Off -> [] | On st -> List.rev st.fired_rev

let kind_name = function
  | Stmt_fail -> "stmt-fail"
  | Torn_write -> "torn-write"

module Site = struct
  let engine_exec = "engine.exec"
  let engine_commit = "engine.commit"
  let log_save = "log_io.save"
  let dump_save = "dump.save"
  let checkpoint = "engine.checkpoint"
  let checkpoint_save = "checkpoint.save"
  let serve_ingest_append = "serve.ingest.append"
  let serve_ingest_sync = "serve.ingest.sync"
  let serve_ack = "serve.ack"
end
