(** A bounded multi-producer task queue over spawned domains.

    The admission-controlled service shape: any number of domains may
    {!Queue.submit} concurrently; tasks drain FIFO over a fixed worker
    set; submission is rejected — never blocked — when the backlog
    reaches [capacity], so callers can answer "try again later" instead
    of stalling. Task exceptions are
    swallowed and counted ({!Queue.failures}): fire-and-forget tasks
    must report their own results. *)
module Queue : sig
  type t

  val create : workers:int -> capacity:int -> t
  (** [create ~workers ~capacity] spawns [workers] domains (clamped to
      [1..63]) draining a FIFO of at most [capacity] queued tasks
      (clamped to at least 1; tasks already executing don't count
      against the bound). *)

  val workers : t -> int
  val capacity : t -> int

  val submit : t -> (unit -> unit) -> [ `Accepted | `Saturated | `Shutdown ]
  (** Thread-safe from any domain. [`Saturated] when the queue is full
      — the task was NOT enqueued and will never run; [`Shutdown] after
      {!shutdown}. Never blocks. *)

  val pending : t -> int
  (** Queued plus currently-executing tasks. *)

  val completed : t -> int
  (** Tasks finished (including failed ones) since creation. *)

  val failures : t -> int
  (** Tasks that raised; their exceptions were swallowed. *)

  val wait_idle : t -> unit
  (** Block until the queue is empty and no task is executing. Other
      producers may enqueue more work afterwards — this is a quiescence
      point, not a terminal state. *)

  val shutdown : t -> unit
  (** Stop accepting, drain already-queued tasks, join the workers.
      Idempotent. *)
end
