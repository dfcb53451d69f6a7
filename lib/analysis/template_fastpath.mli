(** Template assignment of a history: which extracted template each log
    entry instantiates, and with which slot binding.

    [prepare] matches every analysed entry against the extracted template
    set once and stamps the matched template ids onto the log entries.
    The template lint passes read the result: entries no template
    matched feed UVA014 (coverage), and the per-entry assignments and
    guard values let UVA015 cross-check the static template matrix
    against the dynamic per-statement sets. Any DDL in the history
    leaves every entry unmatched, since the static template sets no
    longer describe the statements after it. *)

type t

val prepare :
  ?log:Uv_db.Log.t ->
  set:Template_extract.set ->
  matrix:Template_matrix.t ->
  Uv_retroactive.Analyzer.t ->
  t
(** Match every analyzed entry and stamp [log] entries' [template_id]
    when the log is supplied. Guard values are canonicalized through the
    analyzer's RI merge state as of this call. *)

val unmatched : t -> int list
(** Entries (ascending) no template matched — the UVA014 feed. *)

val assignment : t -> int -> (int * (string * Uv_sql.Value.t) list) option
(** The matched (template id, slot binding) of entry [i], if any. *)

val guard_values : t -> int -> (string * string) list
(** Canonical guard values of entry [i] on each guarded table of its
    matched template — the values the matrix's predicate-disjointness
    pruning keys on. *)

val matched_count : t -> int
