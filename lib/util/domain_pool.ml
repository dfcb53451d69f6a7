(* Bounded multi-producer task queue over spawned domains. *)

module Queue = struct
  type t = {
    mutex : Mutex.t;
    work : Condition.t; (* workers: queue non-empty or stopping *)
    drained : Condition.t; (* waiters: a task finished *)
    tasks : (unit -> unit) Stdlib.Queue.t;
    capacity : int;
    mutable running : int; (* tasks currently executing *)
    mutable completed : int;
    mutable failures : int;
    mutable stop : bool;
    mutable domains : unit Domain.t list;
    workers : int;
  }

  let worker t =
    let running = ref true in
    while !running do
      Mutex.lock t.mutex;
      while (not t.stop) && Stdlib.Queue.is_empty t.tasks do
        Condition.wait t.work t.mutex
      done;
      if t.stop && Stdlib.Queue.is_empty t.tasks then begin
        running := false;
        Mutex.unlock t.mutex
      end
      else begin
        let task = Stdlib.Queue.pop t.tasks in
        t.running <- t.running + 1;
        Mutex.unlock t.mutex;
        let failed = match task () with () -> false | exception _ -> true in
        Mutex.lock t.mutex;
        t.running <- t.running - 1;
        t.completed <- t.completed + 1;
        if failed then t.failures <- t.failures + 1;
        Condition.broadcast t.drained;
        Mutex.unlock t.mutex
      end
    done

  let create ~workers ~capacity =
    (* all lanes are spawned domains: producers keep their own domain *)
    let workers = min (max 1 workers) 63 in
    let t =
      {
        mutex = Mutex.create ();
        work = Condition.create ();
        drained = Condition.create ();
        tasks = Stdlib.Queue.create ();
        capacity = max 1 capacity;
        running = 0;
        completed = 0;
        failures = 0;
        stop = false;
        domains = [];
        workers;
      }
    in
    t.domains <- List.init workers (fun _ -> Domain.spawn (fun () -> worker t));
    t

  let workers t = t.workers
  let capacity t = t.capacity

  let submit t task =
    Mutex.lock t.mutex;
    let r =
      if t.stop then `Shutdown
      else if Stdlib.Queue.length t.tasks >= t.capacity then `Saturated
      else begin
        Stdlib.Queue.push task t.tasks;
        Condition.signal t.work;
        `Accepted
      end
    in
    Mutex.unlock t.mutex;
    r

  let pending t =
    Mutex.lock t.mutex;
    let n = Stdlib.Queue.length t.tasks + t.running in
    Mutex.unlock t.mutex;
    n

  let completed t =
    Mutex.lock t.mutex;
    let n = t.completed in
    Mutex.unlock t.mutex;
    n

  let failures t =
    Mutex.lock t.mutex;
    let n = t.failures in
    Mutex.unlock t.mutex;
    n

  let wait_idle t =
    Mutex.lock t.mutex;
    while (not (Stdlib.Queue.is_empty t.tasks)) || t.running > 0 do
      Condition.wait t.drained t.mutex
    done;
    Mutex.unlock t.mutex

  let shutdown t =
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
end
