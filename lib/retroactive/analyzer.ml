open Uv_sql

type op = Add of Ast.stmt | Remove | Change of Ast.stmt

type target = { tau : int; op : op }

type mode = Col_only | Row_only | Cell | Joint

type info = {
  index : int;
  stmt : Ast.stmt;
  rw : Rwset.rw;
  rows : Rowset.entry_rows;
  app_txn : string option;
}

(* Per-table row-value index over the first RI dimension. *)
type tindex = {
  mutable any_r : int list;
  mutable any_w : int list;
  by_val_r : (string, int list ref) Hashtbl.t;
  by_val_w : (string, int list ref) Hashtbl.t;
}

(* Cell-level conflict index: buckets keyed by (column, canonical dim0
   row value), one family per access side. A closure scanning a bucket
   either joins what it finds or prunes it for good, so the per-question
   cost is bounded by the buckets touched rather than the history. Built
   lazily by the first [Joint] closure, rebuilt when the RI merge
   generation or the analysed length moves. *)
type cell_family = {
  by_val : (string, int list ref) Hashtbl.t; (* "col|val" -> accessors, desc *)
  any : (string, int list ref) Hashtbl.t; (* "col" -> wildcard-row accessors *)
  all : (string, int list ref) Hashtbl.t; (* "col" -> every accessor *)
}

type cell_index = {
  ci_generation : int;
  ci_n : int;
  writers : cell_family;
  readers : cell_family; (* readers that also write *)
  queries : cell_family;
      (* read-only readers: joinable only at transaction granularity, so
         ungrouped closures never scan them *)
}

(* Where entries come from: a pull interface so analysis never needs a
   materialized [Log.t] — an in-memory log and a segmented on-disk
   store are both one-segment-at-a-time folds from here. *)
type source = {
  src_length : unit -> int;
  src_iter : int -> int -> (Uv_db.Log.entry -> unit) -> unit;
      (* [src_iter lo hi f]: apply [f] to entries [lo..hi] in order *)
}

let source_of_log log =
  {
    src_length = (fun () -> Uv_db.Log.length log);
    src_iter =
      (fun lo hi f ->
        for i = lo to hi do
          f (Uv_db.Log.entry log i)
        done);
  }

let source_of_store store =
  {
    src_length = (fun () -> Uv_db.Log_store.length store);
    src_iter =
      (fun lo hi f ->
        Uv_db.Log_store.iter_range store ~lo ~hi (fun index r ->
            f (Uv_db.Log_store.entry_of_record ~index r)));
  }

let source_of_fun ~length fetch =
  {
    src_length = length;
    src_iter =
      (fun lo hi f ->
        for i = lo to hi do
          f (fetch i)
        done);
  }

type t = {
  mutable infos : info array;
  config : Rowset.config;
  row_state : Rowset.t;
  sv : Schema_view.t; (* evolving view at the analysed head *)
  source : source;
  base : Uv_db.Catalog.t option;
  base_hashes : (string * int64) list;
  readers_by_col : (string, int list ref) Hashtbl.t; (* descending indexes *)
  writers_by_col : (string, int list ref) Hashtbl.t;
  row_index : (string, tindex) Hashtbl.t;
  groups : (string, int list) Hashtbl.t; (* app_txn tag -> entry indexes *)
  mutable indexed_generation : int;
      (* Rowset merge generation the value buckets were keyed under *)
  mutable joinable_cache : bool array option;
      (* per-entry "has a column-wise write" — shared by every ungrouped
         closure run so replay-set cost stays off the history length *)
  mutable cell_index : cell_index option;
}

let length t = Array.length t.infos

let info t i = t.infos.(i - 1)

let is_schema_key k = String.length k > 3 && String.sub k 0 3 = "_S."

let tables_of_rw (rw : Rwset.rw) =
  let of_set s =
    Rwset.Colset.fold
      (fun key acc ->
        if is_schema_key key then acc
        else
          match String.index_opt key '.' with
          | Some i -> String.sub key 0 i :: acc
          | None -> acc)
      s []
  in
  List.sort_uniq compare (of_set rw.Rwset.r @ of_set rw.Rwset.w)

let dim0_of (config : Rowset.config) table =
  match List.assoc_opt table config.Rowset.ri_columns with
  | Some (d :: _) -> d
  | _ -> "#0"

let table_of_col c =
  match String.index_opt c '.' with
  | Some i -> String.sub c 0 i
  | None -> c

let bucket tbl key =
  match Hashtbl.find_opt tbl key with
  | Some b -> b
  | None ->
      let b = ref [] in
      Hashtbl.replace tbl key b;
      b

let tindex_for row_index table =
  match Hashtbl.find_opt row_index table with
  | Some ti -> ti
  | None ->
      let ti =
        {
          any_r = [];
          any_w = [];
          by_val_r = Hashtbl.create 64;
          by_val_w = Hashtbl.create 64;
        }
      in
      Hashtbl.replace row_index table ti;
      ti

(* Index one entry. All buckets are kept in descending index order so
   appending a later entry is a cons; consumers reverse at fetch time.
   Row values are canonicalised with the merge state as of this entry;
   [rekey_row_index] folds stale keys forward when later entries merge
   two RI values. *)
let index_info t inf =
  let i = inf.index in
  let push tbl c =
    let b = bucket tbl c in
    b := i :: !b
  in
  Rwset.Colset.iter (fun c -> push t.readers_by_col c) inf.rw.Rwset.r;
  Rwset.Colset.iter (fun c -> push t.writers_by_col c) inf.rw.Rwset.w;
  List.iter
    (fun (table, access) ->
      let ti = tindex_for t.row_index table in
      if Array.length access > 0 then begin
        let dim0 = dim0_of t.config table in
        (match access.(0).Rowset.dr with
        | Rowset.Any -> ti.any_r <- i :: ti.any_r
        | Rowset.Vals s ->
            Rowset.Vset.iter
              (fun v ->
                let cv = Rowset.canonical t.row_state table dim0 v in
                push ti.by_val_r cv)
              s);
        match access.(0).Rowset.dw with
        | Rowset.Any -> ti.any_w <- i :: ti.any_w
        | Rowset.Vals s ->
            Rowset.Vset.iter
              (fun v ->
                let cv = Rowset.canonical t.row_state table dim0 v in
                push ti.by_val_w cv)
              s
      end)
    inf.rows;
  match inf.app_txn with
  | Some tag ->
      Hashtbl.replace t.groups tag
        (i :: Option.value (Hashtbl.find_opt t.groups tag) ~default:[])
  | None -> ()

(* Merge two strictly-descending index lists, deduplicating. *)
let merge_desc a b =
  let rec go acc a b =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs, y :: ys ->
        if x = y then go (x :: acc) xs ys
        else if x > y then go (x :: acc) xs b
        else go (y :: acc) a ys
  in
  go [] a b

(* An RI merge learned by a later entry changes the canonical form of
   previously indexed values: fold every value bucket forward to its
   current root, merging buckets that now share one. Equivalent to the
   full rebuild's final-state canonicalisation because canonicalising a
   past root under the current state reaches the current root. *)
let rekey_buckets t table dim0 (h : (string, int list ref) Hashtbl.t) =
  let moved = Hashtbl.fold (fun v b acc -> (v, b) :: acc) h [] in
  Hashtbl.reset h;
  List.iter
    (fun (v, b) ->
      let cv = Rowset.canonical t.row_state table dim0 v in
      match Hashtbl.find_opt h cv with
      | Some b' -> b' := merge_desc !b' !b
      | None -> Hashtbl.replace h cv b)
    moved

let rekey_row_index t =
  Hashtbl.iter
    (fun table ti ->
      let dim0 = dim0_of t.config table in
      rekey_buckets t table dim0 ti.by_val_r;
      rekey_buckets t table dim0 ti.by_val_w)
    t.row_index

let create ?(config = Rowset.default_config) ?base source =
  let sv =
    match base with
    | Some cat -> Schema_view.of_catalog cat
    | None -> Schema_view.create ()
  in
  let base_hashes =
    match base with
    | Some cat ->
        List.map
          (fun (name, tbl) -> (name, Uv_db.Storage.hash tbl))
          (Uv_db.Catalog.tables cat)
    | None -> []
  in
  let row_state = Rowset.create config in
  Option.iter (Rowset.seed_aliases row_state) base;
  {
    infos = [||];
    config;
    row_state;
    sv;
    source;
    base;
    base_hashes;
    readers_by_col = Hashtbl.create 256;
    writers_by_col = Hashtbl.create 256;
    row_index = Hashtbl.create 64;
    groups = Hashtbl.create 256;
    indexed_generation = Rowset.merge_generation row_state;
    joinable_cache = None;
    cell_index = None;
  }

let extend ?(obs = Uv_obs.Trace.disabled) t =
  let n = t.source.src_length () in
  let from = Array.length t.infos + 1 in
  if n < from then 0
  else begin
    let batch = ref [] in
    Uv_obs.Trace.with_span obs ~cat:"analyze" "analyze.rwsets" (fun () ->
        t.source.src_iter from n (fun e ->
            let rw = Rwset.of_stmt t.sv e.Uv_db.Log.stmt in
            let rows =
              Rowset.of_entry t.row_state t.sv e.Uv_db.Log.stmt
                e.Uv_db.Log.nondet
            in
            Schema_view.apply t.sv e.Uv_db.Log.stmt;
            let inf =
              {
                index = e.Uv_db.Log.index;
                stmt = e.Uv_db.Log.stmt;
                rw;
                rows;
                app_txn = e.Uv_db.Log.app_txn;
              }
            in
            batch := inf :: !batch;
            index_info t inf));
    t.infos <- Array.append t.infos (Array.of_list (List.rev !batch));
    t.joinable_cache <- None;
    Uv_obs.Trace.with_span obs ~cat:"analyze" "analyze.index" (fun () ->
        let gen = Rowset.merge_generation t.row_state in
        if gen <> t.indexed_generation then begin
          rekey_row_index t;
          t.indexed_generation <- gen
        end);
    n - from + 1
  end

let of_source ?(config = Rowset.default_config) ?base
    ?(obs = Uv_obs.Trace.disabled) source =
  let t = create ~config ?base source in
  ignore (extend ~obs t);
  t

let analyze ?config ?base ?obs log = of_source ?config ?base ?obs (source_of_log log)

let base_hashes t = t.base_hashes

(* Rebuilt from the analysed statements, so no log access: matches
   [Schema_view.of_log ~upto] — entries strictly before [upto]. *)
let schema_view_at t upto =
  let sv =
    match t.base with
    | Some cat -> Schema_view.of_catalog cat
    | None -> Schema_view.create ()
  in
  let hi = min (upto - 1) (Array.length t.infos) in
  for i = 1 to hi do
    Schema_view.apply sv t.infos.(i - 1).stmt
  done;
  sv

let target_rw t (target : target) =
  let sv = schema_view_at t target.tau in
  (* row extraction reads the analysed head's alias/merge state — a
     superset of the state at τ, which can only widen the target's sets —
     through a view that never writes it: the statement is hypothetical,
     and concurrent closures share the state *)
  let sets_of stmt =
    ( Rwset.of_stmt sv stmt,
      Rowset.of_entry (Rowset.non_learning t.row_state) sv stmt [] )
  in
  let old_sets () =
    if target.tau >= 1 && target.tau <= Array.length t.infos then
      let inf = t.infos.(target.tau - 1) in
      (inf.rw, inf.rows)
    else (Rwset.empty, [])
  in
  match target.op with
  | Add stmt -> sets_of stmt
  | Remove -> old_sets ()
  | Change stmt ->
      let rw_new, rows_new = sets_of stmt in
      let rw_old, rows_old = old_sets () in
      (Rwset.union rw_new rw_old, Rowset.merge_rows rows_new rows_old)

type replay_set = {
  members : bool array;
  member_count : int;
  mutated : string list;
  consulted : string list;
  col_only_count : int;
  row_only_count : int;
}

(* ------------------------------------------------------------------ *)
(* The closure kernel                                                   *)
(* ------------------------------------------------------------------ *)

(* Every replay-set question runs one worklist ([closure]); a mode only
   picks its candidate generator. A generator is built per closure run
   from [live] and answers, for a member's sets, the candidate indexes
   past [min_idx] that conflict with it — [min_idx] is the member's own
   index, or τ-1 for the target's seed sets. Candidates for which [live]
   is false (joined, excluded, before τ, or never joinable) may be
   skipped and pruned from the generator's caches, so buckets shrink as
   the closure grows. *)

(* Entries with an empty column-wise write set never join (read-only
   queries, Prop E.7) unless they belong to a transaction group: a
   grouped read is an application-level data flow into the rest of its
   transaction (Table A's BEGIN TRANSACTION union rule). The write test
   is cached across closure runs so replay-set cost stays off the
   history length. *)
let ungrouped_joinable t =
  match t.joinable_cache with
  | Some a when Array.length a = Array.length t.infos -> a
  | _ ->
      let a =
        Array.map
          (fun inf -> not (Rwset.Colset.is_empty inf.rw.Rwset.w))
          t.infos
      in
      t.joinable_cache <- Some a;
      a

let group_expand t i =
  match t.infos.(i - 1).app_txn with
  | None -> []
  | Some tag -> Option.value (Hashtbl.find_opt t.groups tag) ~default:[]

(* The worklist. Membership is per-call state — one byte per entry,
   nothing written to the analyzer — so concurrent closures over one
   shared analyzer (served what-ifs on the read side of the service
   lock) never interfere. [via] records, for each joined entry, which
   member's sets pulled it in (0 = the retroactive target itself),
   negated when it joined as a transaction-group mate of that member.
   Returns the joined entries, in join order, and a membership test. *)
let closure ?via ?(obs = Uv_obs.Trace.disabled) t ~grouped ~tau ~exclude
    ~seed_rw ~seed_rows make_candidates =
  let n = Array.length t.infos in
  (* per entry: '\000' open, '\001' excluded, '\002' joined *)
  let seen = Bytes.make n '\000' in
  List.iter
    (fun i -> if i >= 1 && i <= n then Bytes.set seen (i - 1) '\001')
    exclude;
  let joinable = ungrouped_joinable t in
  let live i =
    i >= tau && i <= n
    && Bytes.get seen (i - 1) = '\000'
    && (joinable.(i - 1) || (grouped && t.infos.(i - 1).app_txn <> None))
  in
  let joined = ref [] and queue = Queue.create () in
  let add src i =
    Bytes.set seen (i - 1) '\002';
    joined := i :: !joined;
    Option.iter (fun h -> Hashtbl.replace h i src) via;
    Queue.push i queue
  in
  let join src i =
    if live i then begin
      add src i;
      if grouped then
        List.iter (fun g -> if live g then add (-i) g) (group_expand t i)
    end
  in
  let candidates = make_candidates ~live in
  List.iter (join 0) (candidates ~min_idx:(tau - 1) seed_rw seed_rows);
  let iters = ref 0 in
  while not (Queue.is_empty queue) do
    incr iters;
    let i = Queue.pop queue in
    let inf = t.infos.(i - 1) in
    List.iter (join i) (candidates ~min_idx:i inf.rw inf.rows)
  done;
  Uv_obs.Trace.incr obs ~by:!iters "analyze.closure_iters";
  (!joined, fun i -> Bytes.get seen (i - 1) = '\002')

(* Shared pruning cache for one closure run: each bucket is copied on
   first use and re-filtered on every scan, dropping entries that can
   never join again ([live] is monotone towards false). Offered
   candidates are the live entries past [min_idx]; live entries at or
   before [min_idx] are kept for members seeded with a lower bound. *)
let scan_pruned cache ~live ~min_idx ~offer key fetch =
  let entries =
    match Hashtbl.find_opt cache key with Some l -> l | None -> fetch ()
  in
  let kept =
    List.filter
      (fun i ->
        if live i then begin
          if i > min_idx then offer i;
          true
        end
        else false)
      entries
  in
  Hashtbl.replace cache key kept

(* a descending index bucket, ascending *)
let fetch tbl key () =
  match Hashtbl.find_opt tbl key with None -> [] | Some b -> List.rev !b

(* [_S] schema keys are wildcard rows (Table B): a column-level schema
   conflict is a row and a cell conflict too *)
let schema_conflict (a : Rwset.rw) (b : Rwset.rw) =
  let meets x y =
    Rwset.Colset.exists (fun k -> is_schema_key k && Rwset.Colset.mem k y) x
  in
  meets a.Rwset.w b.Rwset.r
  || meets a.Rwset.r b.Rwset.w
  || meets a.Rwset.w b.Rwset.w

let scan_schema t scan (rw : Rwset.rw) =
  let each kind tbl c = if is_schema_key c then scan (kind ^ c) (fetch tbl c) in
  Rwset.Colset.iter
    (fun c ->
      each "Sr|" t.readers_by_col c;
      each "Sw|" t.writers_by_col c)
    rw.Rwset.w;
  Rwset.Colset.iter (fun c -> each "Sw|" t.writers_by_col c) rw.Rwset.r

(* Column-wise candidates conflicting with (rw): later readers of written
   columns, later writers of read columns, later writers of written
   columns. *)
let col_candidates t ~live =
  let cache : (string, int list) Hashtbl.t = Hashtbl.create 256 in
  fun ~min_idx (rw : Rwset.rw) (_rows : Rowset.entry_rows) ->
    let acc = ref [] in
    let offer i = acc := i :: !acc in
    let scan kind tbl c =
      scan_pruned cache ~live ~min_idx ~offer (kind ^ c) (fetch tbl c)
    in
    Rwset.Colset.iter
      (fun c ->
        scan "r|" t.readers_by_col c;
        scan "w|" t.writers_by_col c)
      rw.Rwset.w;
    Rwset.Colset.iter (fun c -> scan "w|" t.writers_by_col c) rw.Rwset.r;
    !acc

(* Row-wise candidates: value-indexed over each table's first dimension,
   verified with the full multi-dimensional overlap; plus schema-key
   conflicts. *)
let row_candidates t ~live =
  let cache : (string, int list) Hashtbl.t = Hashtbl.create 256 in
  fun ~min_idx (rw : Rwset.rw) (rows : Rowset.entry_rows) ->
    let acc = ref [] in
    let offer i = acc := i :: !acc in
    let scan key fetch = scan_pruned cache ~live ~min_idx ~offer key fetch in
    scan_schema t scan rw;
    List.iter
      (fun (table, access) ->
        match Hashtbl.find_opt t.row_index table with
        | Some ti when Array.length access > 0 ->
            let dim0 = dim0_of t.config table in
            let candidates_of rs kind any_bucket val_buckets =
              let any_key = "A" ^ kind ^ table in
              scan any_key (fun () -> List.rev any_bucket);
              match rs with
              | Rowset.Any ->
                  (* all value buckets of this table, flattened once *)
                  scan
                    ("*" ^ kind ^ table)
                    (fun () ->
                      Hashtbl.fold
                        (fun _ b acc -> List.rev_append !b acc)
                        val_buckets [])
              | Rowset.Vals s ->
                  Rowset.Vset.iter
                    (fun v ->
                      let cv = Rowset.canonical t.row_state table dim0 v in
                      scan
                        ("V" ^ kind ^ table ^ "|" ^ cv)
                        (fetch val_buckets cv))
                    s
            in
            (* my writes vs their reads and writes *)
            candidates_of access.(0).Rowset.dw "r|" ti.any_r ti.by_val_r;
            candidates_of access.(0).Rowset.dw "w|" ti.any_w ti.by_val_w;
            (* my reads vs their writes *)
            candidates_of access.(0).Rowset.dr "w|" ti.any_w ti.by_val_w
        | _ -> ())
      rows;
    List.filter
      (fun i ->
        let inf = t.infos.(i - 1) in
        schema_conflict rw inf.rw
        || List.exists
             (fun (table, access) ->
               match List.assoc_opt table inf.rows with
               | None -> false
               | Some their ->
                   Rowset.overlaps t.row_state table access `Any_conflict their)
             rows)
      (List.sort_uniq Int.compare !acc)

(* The joint (cell-wise) pair conflict: the two entries share a column
   (direction-aware) whose table's rows overlap — i.e., they touch a
   common cell, up to the first-dimension approximation that
   [Rowset.overlaps] verifies multi-dimensionally. A table absent from
   either side's row sets is unreachable through the row-wise closure,
   so it cannot carry a cell conflict either — the same convention keeps
   Joint inside Cell. *)
let cell_pair_conflict t (rw : Rwset.rw) rows (inf : info) =
  schema_conflict rw inf.rw
  ||
  let inter a b = Rwset.Colset.inter a b in
  let shared =
    Rwset.Colset.union
      (inter rw.Rwset.w inf.rw.Rwset.r)
      (Rwset.Colset.union
         (inter rw.Rwset.w inf.rw.Rwset.w)
         (inter rw.Rwset.r inf.rw.Rwset.w))
  in
  Rwset.Colset.exists
    (fun c ->
      (not (is_schema_key c))
      &&
      let table = table_of_col c in
      match (List.assoc_opt table rows, List.assoc_opt table inf.rows) with
      | Some mine, Some theirs ->
          Rowset.overlaps t.row_state table mine `Any_conflict theirs
      | _ -> false)
    shared

(* the first-dimension row access of [rows] on column [c]'s table;
   [None] when the table has no row entry *)
let dim0_access (rows : Rowset.entry_rows) c side =
  match List.assoc_opt (table_of_col c) rows with
  | Some access when Array.length access > 0 ->
      Some
        (match side with
        | `W -> access.(0).Rowset.dw
        | `R -> access.(0).Rowset.dr)
  | _ -> None

let build_cell_index t =
  let family () =
    {
      by_val = Hashtbl.create 1024;
      any = Hashtbl.create 64;
      all = Hashtbl.create 64;
    }
  in
  let ci =
    {
      ci_generation = Rowset.merge_generation t.row_state;
      ci_n = Array.length t.infos;
      writers = family ();
      readers = family ();
      queries = family ();
    }
  in
  Array.iter
    (fun inf ->
      let push tbl key =
        let b = bucket tbl key in
        b := inf.index :: !b
      in
      (* one column's cells: the column crossed with its table's dim0
         access; empty row sets touch no cell *)
      let file fam side c =
        if not (is_schema_key c) then
          match dim0_access inf.rows c side with
          | None -> ()
          | Some Rowset.Any ->
              push fam.any c;
              push fam.all c
          | Some (Rowset.Vals s) ->
              if not (Rowset.Vset.is_empty s) then begin
                let table = table_of_col c in
                let dim0 = dim0_of t.config table in
                Rowset.Vset.iter
                  (fun v ->
                    push fam.by_val
                      (c ^ "|" ^ Rowset.canonical t.row_state table dim0 v))
                  s;
                push fam.all c
              end
      in
      Rwset.Colset.iter (file ci.writers `W) inf.rw.Rwset.w;
      let readers =
        if Rwset.Colset.is_empty inf.rw.Rwset.w then ci.queries else ci.readers
      in
      Rwset.Colset.iter (file readers `R) inf.rw.Rwset.r)
    t.infos;
  ci

(* built once and published in one field write: concurrent closures
   either see a complete index or build their own *)
let cell_index_of t =
  match t.cell_index with
  | Some ci
    when ci.ci_generation = Rowset.merge_generation t.row_state
         && ci.ci_n = Array.length t.infos ->
      ci
  | _ ->
      let ci = build_cell_index t in
      t.cell_index <- Some ci;
      ci

(* Joint candidates: scans of the cell index — a written column's
   readers and writers, a read column's writers, on the same dim0 row
   values (a wildcard side scans the column's whole family) — verified
   with [cell_pair_conflict]. *)
let cell_candidates t ~grouped ~live =
  let ci = cell_index_of t in
  let cache : (string, int list) Hashtbl.t = Hashtbl.create 64 in
  fun ~min_idx (rw : Rwset.rw) (rows : Rowset.entry_rows) ->
    let acc = ref [] in
    let offer i = acc := i :: !acc in
    let scan key fetch = scan_pruned cache ~live ~min_idx ~offer key fetch in
    let scan_family tag fam c rs =
      match rs with
      | None -> ()
      | Some Rowset.Any -> scan ("A" ^ tag ^ c) (fetch fam.all c)
      | Some (Rowset.Vals s) ->
          if not (Rowset.Vset.is_empty s) then begin
            scan ("N" ^ tag ^ c) (fetch fam.any c);
            let table = table_of_col c in
            let dim0 = dim0_of t.config table in
            Rowset.Vset.iter
              (fun v ->
                let key = c ^ "|" ^ Rowset.canonical t.row_state table dim0 v in
                scan ("V" ^ tag ^ key) (fetch fam.by_val key))
              s
          end
    in
    scan_schema t scan rw;
    Rwset.Colset.iter
      (fun c ->
        if not (is_schema_key c) then begin
          let w = dim0_access rows c `W in
          scan_family "r|" ci.readers c w;
          if grouped then scan_family "q|" ci.queries c w;
          scan_family "w|" ci.writers c w
        end)
      rw.Rwset.w;
    Rwset.Colset.iter
      (fun c ->
        if not (is_schema_key c) then
          scan_family "w|" ci.writers c (dim0_access rows c `R))
      rw.Rwset.r;
    List.filter
      (fun i -> cell_pair_conflict t rw rows t.infos.(i - 1))
      (List.sort_uniq Int.compare !acc)

(* ------------------------------------------------------------------ *)
(* Replay sets                                                          *)
(* ------------------------------------------------------------------ *)

(* tables written by 𝕀 ∪ {target}, and tables only read *)
let classify t ~joined seed_rw =
  let tables_of s =
    Rwset.Colset.fold
      (fun key acc ->
        if is_schema_key key then
          (* mutated schema object: the object itself must be restored *)
          String.sub key 3 (String.length key - 3) :: acc
        else
          match String.index_opt key '.' with
          | Some i -> String.sub key 0 i :: acc
          | None -> acc)
      s []
  in
  let written = ref [] and read = ref [] in
  let take (rw : Rwset.rw) =
    written := tables_of rw.Rwset.w @ !written;
    read := tables_of rw.Rwset.r @ !read
  in
  take seed_rw;
  List.iter (fun i -> take t.infos.(i - 1).rw) joined;
  let mutated = List.sort_uniq compare !written in
  let consulted =
    List.filter (fun x -> not (List.mem x mutated)) (List.sort_uniq compare !read)
  in
  (mutated, consulted)

(* a removed query is never re-executed, so its reads need no consulted
   reconstruction: only its writes seed the closure *)
let strip_removed_reads (seed_rw, seed_rows) =
  ( { seed_rw with Rwset.r = Rwset.Colset.empty },
    List.map
      (fun (table, access) ->
        ( table,
          Array.map
            (fun (d : Rowset.dim_access) ->
              { d with Rowset.dr = Rowset.Vals Rowset.Vset.empty })
            access ))
      seed_rows )

let target_group_indexes t tau =
  if tau >= 1 && tau <= Array.length t.infos then
    match t.infos.(tau - 1).app_txn with
    | Some tag -> Option.value (Hashtbl.find_opt t.groups tag) ~default:[ tau ]
    | None -> [ tau ]
  else [ tau ]

(* One replay-set question through the kernel: the members (unordered),
   |𝕀c| and |𝕀r| where the mode computes them (-1 otherwise), and the
   seed sets. [Cell] runs the column-wise and row-wise closures and
   intersects them (Theorem E.20); every other mode is one run. *)
let closure_members ?via_col ?via_row ?(obs = Uv_obs.Trace.disabled) ~grouped
    ~mode t (target : target) =
  (* at transaction granularity the retroactive target is the whole
     application-level transaction: seed with the union of its entries'
     sets, and keep all of them out of the replay set *)
  let group_indexes =
    if grouped then target_group_indexes t target.tau else [ target.tau ]
  in
  let seed_rw, seed_rows =
    if grouped then
      List.fold_left
        (fun (rw, rows) i ->
          let inf = t.infos.(i - 1) in
          (Rwset.union rw inf.rw, Rowset.merge_rows rows inf.rows))
        (target_rw t target) group_indexes
    else target_rw t target
  in
  let exclude, (seed_rw, seed_rows) =
    match target.op with
    | Remove -> (group_indexes, strip_removed_reads (seed_rw, seed_rows))
    | Change _ -> (group_indexes, (seed_rw, seed_rows))
    | Add _ -> ([], (seed_rw, seed_rows))
  in
  let run ?via span make =
    Uv_obs.Trace.with_span obs ~cat:"analyze" span (fun () ->
        closure ?via ~obs t ~grouped ~tau:target.tau ~exclude ~seed_rw
          ~seed_rows make)
  in
  let col () = run ?via:via_col "closure.col" (col_candidates t) in
  let row () = run ?via:via_row "closure.row" (row_candidates t) in
  let members, col_count, row_count =
    match mode with
    | Col_only ->
        let c, _ = col () in
        (c, List.length c, -1)
    | Row_only ->
        let r, _ = row () in
        (r, -1, List.length r)
    | Cell ->
        let c, in_col = col () in
        let r, _ = row () in
        (List.filter in_col r, List.length c, List.length r)
    | Joint ->
        let j, _ =
          run ?via:via_row "closure.cell" (cell_candidates t ~grouped)
        in
        (j, -1, -1)
  in
  (members, col_count, row_count, seed_rw)

let replay_set_of ?via_col ?via_row ?obs ?(mode = Cell) ?(grouped = false) t
    target =
  let joined, col_only_count, row_only_count, seed_rw =
    closure_members ?via_col ?via_row ?obs ~grouped ~mode t target
  in
  let members = Array.make (Array.length t.infos) false in
  List.iter (fun i -> members.(i - 1) <- true) joined;
  let mutated, consulted = classify t ~joined seed_rw in
  {
    members;
    member_count = List.length joined;
    mutated;
    consulted;
    col_only_count;
    row_only_count;
  }

let replay_set ?obs ?mode ?grouped t target =
  replay_set_of ?obs ?mode ?grouped t target

let replay_members ?(mode = Joint) t target =
  let joined, _, _, _ = closure_members ~grouped:false ~mode t target in
  List.sort Int.compare joined

let canonical_row_value t ~table v =
  Rowset.canonical t.row_state table (dim0_of t.config table)
    (Value.serialize v)

let row_merge_generation t = Rowset.merge_generation t.row_state

(* ------------------------------------------------------------------ *)
(* Provenance: why did each member join?                                *)
(* ------------------------------------------------------------------ *)

type provenance = {
  p_col_via : int option;
      (* parent in the column-wise closure: Some 0 = the target's own
         sets; Some v = entry v's sets; Some (-v) = joined as a
         transaction-group mate of entry v *)
  p_row_via : int option; (* ditto, row-wise closure *)
}

let replay_set_explained ?mode ?grouped t (target : target) =
  let via_col = Hashtbl.create 64 and via_row = Hashtbl.create 64 in
  let rs = replay_set_of ~via_col ~via_row ?mode ?grouped t target in
  let prov =
    Array.init (Array.length t.infos) (fun j ->
        if rs.members.(j) then
          Some
            {
              p_col_via = Hashtbl.find_opt via_col (j + 1);
              p_row_via = Hashtbl.find_opt via_row (j + 1);
            }
        else None)
  in
  (rs, prov)

let shared_columns (a : Rwset.rw) (b : Rwset.rw) =
  let inter x y = Rwset.Colset.elements (Rwset.Colset.inter x y) in
  List.sort_uniq compare
    (inter a.Rwset.w b.Rwset.r @ inter a.Rwset.r b.Rwset.w
    @ inter a.Rwset.w b.Rwset.w)

let shared_tables t (a : Rowset.entry_rows) (b : Rowset.entry_rows) =
  List.filter_map
    (fun (table, access) ->
      match List.assoc_opt table b with
      | None -> None
      | Some their ->
          if Rowset.overlaps t.row_state table access `Any_conflict their then
            let values =
              if Array.length access = 0 || Array.length their = 0 then []
              else
                let vals_of (d : Rowset.dim_access) =
                  match (d.Rowset.dr, d.Rowset.dw) with
                  | Rowset.Any, _ | _, Rowset.Any -> None
                  | Rowset.Vals r, Rowset.Vals w ->
                      Some (Rowset.Vset.union r w)
                in
                match (vals_of access.(0), vals_of their.(0)) with
                | Some mine, Some theirs ->
                    Rowset.Vset.elements (Rowset.Vset.inter mine theirs)
                | _ -> [ "*" ]
            in
            Some (table, values)
          else None)
    a

let conflict_columns t i j = shared_columns t.infos.(i - 1).rw t.infos.(j - 1).rw

let conflict_tables t i j =
  shared_tables t t.infos.(i - 1).rows t.infos.(j - 1).rows

let explain_report ?mode ?grouped t (target : target) =
  let rs, prov = replay_set_explained ?mode ?grouped t target in
  let seed_rw, seed_rows = target_rw t target in
  let rw_of v = if v = 0 then seed_rw else t.infos.(v - 1).rw in
  let rows_of v = if v = 0 then seed_rows else t.infos.(v - 1).rows in
  let name v = if v = 0 then "the target" else Printf.sprintf "#%d" v in
  let lines = ref [] in
  Array.iteri
    (fun j p ->
      match p with
      | None -> ()
      | Some p ->
          let i = j + 1 in
          let inf = t.infos.(j) in
          let describe = function
            | None -> []
            | Some v when v < 0 ->
                [ Printf.sprintf "group-mate of #%d" (-v) ]
            | Some v ->
                let cols = shared_columns (rw_of v) inf.rw in
                let tabs = shared_tables t (rows_of v) inf.rows in
                let col_part =
                  if cols = [] then []
                  else
                    [ Printf.sprintf "columns {%s} with %s"
                        (String.concat ", " cols) (name v) ]
                in
                let row_part =
                  if tabs = [] then []
                  else
                    [ Printf.sprintf "rows {%s} with %s"
                        (String.concat ", "
                           (List.map
                              (fun (tbl, vs) ->
                                if vs = [] then tbl
                                else tbl ^ "=" ^ String.concat "|" vs)
                              tabs))
                        (name v) ]
                in
                col_part @ row_part
          in
          let reasons =
            List.sort_uniq compare (describe p.p_col_via @ describe p.p_row_via)
          in
          let reasons = if reasons = [] then [ "seeded" ] else reasons in
          lines :=
            Printf.sprintf "#%d %s <- %s" i
              (Uv_sql.Ast.stmt_kind inf.stmt)
              (String.concat "; " reasons)
            :: !lines)
    prov;
  (rs, List.rev !lines)

(* ------------------------------------------------------------------ *)
(* Replay conflict edges                                                *)
(* ------------------------------------------------------------------ *)

(* value tokens of an entry for one table, over the first RI dimension:
   concrete canonicalized values, or ["*"] for a wildcard access *)
let entry_row_tokens t (inf : info) table ~write =
  match List.assoc_opt table inf.rows with
  | Some access when Array.length access > 0 -> (
      let rs = if write then access.(0).Rowset.dw else access.(0).Rowset.dr in
      match rs with
      | Rowset.Any -> [ "*" ]
      | Rowset.Vals s ->
          if Rowset.Vset.is_empty s then []
          else
            let dim0 = dim0_of t.config table in
            Rowset.Vset.fold
              (fun v acc -> Rowset.canonical t.row_state table dim0 v :: acc)
              s [])
  | _ -> [ "*" ]

let dependency_edges t ~members =
  (* Conflict edges at cell granularity: accesses are bucketed by
     (column, first-RI-dimension value), so row-disjoint chains stay
     parallel (the source of TPC-C's and SEATS' replay parallelism,
     §4.4). A wildcard access uses the per-column "*" bucket, which
     conflicts with every value bucket of that column. *)
  let edges = ref [] in
  (* (column, value-token) -> recent accessors, most recent first *)
  let buckets : (string * string, (int * bool) list ref) Hashtbl.t =
    Hashtbl.create 1024
  in
  (* column -> all value tokens seen (for wildcard scans) *)
  let tokens_of_col : (string, string list ref) Hashtbl.t = Hashtbl.create 256 in
  let bucket key =
    match Hashtbl.find_opt buckets key with
    | Some b -> b
    | None ->
        let b = ref [] in
        Hashtbl.replace buckets key b;
        let c, v = key in
        let toks =
          match Hashtbl.find_opt tokens_of_col c with
          | Some l -> l
          | None ->
              let l = ref [] in
              Hashtbl.replace tokens_of_col c l;
              l
        in
        if not (List.mem v !toks) then toks := v :: !toks;
        b
  in
  let scan_limit = 64 in
  Array.iter
    (fun inf ->
      if members.(inf.index - 1) then begin
        let i = inf.index in
        let consider key ~i_writes =
          match Hashtbl.find_opt buckets key with
          | None -> ()
          | Some accs ->
              (* a write orders after every reader back to (and including)
                 the previous writer; a read orders after the previous
                 writer only — intermediate readers are no conflict *)
              let rec scan k = function
                | [] -> ()
                | (j, _) :: rest when j = i -> scan k rest
                | (j, j_wrote) :: rest ->
                    if k >= scan_limit then edges := (i, j) :: !edges
                    else if i_writes then begin
                      edges := (i, j) :: !edges;
                      if not j_wrote then scan (k + 1) rest
                    end
                    else if j_wrote then edges := (i, j) :: !edges
                    else scan (k + 1) rest
              in
              scan 0 !accs
        in
        let touch c ~write =
          let table = table_of_col c in
          let toks = entry_row_tokens t inf table ~write in
          List.iter
            (fun v ->
              (* conflict with same-value and wildcard buckets; a wildcard
                 access conflicts with every bucket of the column *)
              (if v = "*" then
                 match Hashtbl.find_opt tokens_of_col c with
                 | Some all -> List.iter (fun v' -> consider (c, v') ~i_writes:write) !all
                 | None -> ()
               else begin
                 consider (c, v) ~i_writes:write;
                 consider (c, "*") ~i_writes:write
               end);
              let b = bucket (c, v) in
              b := (i, write) :: (if List.length !b > 2 * scan_limit then
                                    List.filteri (fun k _ -> k < scan_limit) !b
                                  else !b))
            toks
        in
        Rwset.Colset.iter (fun c -> touch c ~write:false) inf.rw.Rwset.r;
        Rwset.Colset.iter (fun c -> touch c ~write:true) inf.rw.Rwset.w
      end)
    t.infos;
  List.sort_uniq compare !edges

let to_dot t ~members =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph replay {\n  rankdir=BT;\n  node [shape=box, fontsize=10];\n";
  Array.iteri
    (fun i inf ->
      if members.(i) then begin
        let label =
          let sql = Uv_sql.Printer.stmt_compact inf.stmt in
          let sql =
            if String.length sql > 48 then String.sub sql 0 45 ^ "..." else sql
          in
          String.concat "\\\"" (String.split_on_char '"' sql)
        in
        Buffer.add_string buf
          (Printf.sprintf "  q%d [label=\"Q%d: %s\"];\n" (i + 1) (i + 1) label)
      end)
    t.infos;
  List.iter
    (fun (later, earlier) ->
      Buffer.add_string buf (Printf.sprintf "  q%d -> q%d;\n" later earlier))
    (dependency_edges t ~members);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
