(** The replay conflict DAG (§4.4), shared by every scheduler.

    Both conflict-edge producers in the system — [Analyzer.dependency_edges]
    over committed log entries and [Cc_schedule]'s pairwise planner over
    un-committed statements — speak the same language: nodes are integer
    ids and an edge [(later, earlier)] means [later] must execute after
    [earlier]. This module is the single home for the two derived views:

    - {b wave layering} — longest-path levels; every node lands one wave
      after the latest of its dependencies, so the entries of one wave are
      mutually conflict-free and may execute simultaneously;
    - {b makespan} — greedy list scheduling with a bounded worker count
      (the simulated parallel replay cost).

    The what-if cost model and the D-system simulator call {!makespan}
    directly for the simulated parallel replay cost (the paper's Table 8
    number); [Cc_schedule.plan] (concurrency-control planner) returns
    one, and its {!waves} are the planned batches. Replay itself always
    runs serially in commit order. *)

type edge = int * int
(** [(later, earlier)]: [later] conflicts with, and must run after,
    [earlier]. Both endpoints are node ids; edges mentioning unknown ids
    are ignored by {!build}. *)

type t

val build : nodes:int list -> edges:edge list -> t
(** [nodes] in ascending order (commit order); every edge must point
    backwards ([earlier < later]). Duplicated edges are deduplicated. *)

val node_count : t -> int

val edge_count : t -> int
(** Distinct in-range edges. *)

val waves : t -> int list list
(** Longest-path layering: wave [k] holds every node whose deepest
    dependency chain has length [k]. Within a wave, nodes keep ascending
    order. Concatenating the waves yields a valid execution order; nodes
    of one wave are pairwise non-adjacent in the DAG. *)

val wave_count : t -> int

val parallelism : t -> float
(** [node_count / wave_count]; [1.0] for an empty DAG. *)

val makespan : t -> weight:(int -> float) -> workers:int -> float
(** Greedy list-scheduling makespan over [workers] lanes, with [weight]
    giving each node's cost in milliseconds; [0.] for an empty DAG.
    [~workers:1] is the serial sum. *)
