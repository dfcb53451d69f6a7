open Uv_sql

type rowid = int

(* Cell tags: each live slot of a column carries one byte naming the
   dynamic kind of the stored value. Bools are folded into the tag so
   they occupy no payload; texts store a string-pool id. *)
let tag_free = '\000'
let tag_null = '\001'
let tag_int = '\002'
let tag_float = '\003'
let tag_text = '\004'
let tag_true = '\005'
let tag_false = '\006'

(* One typed column chunk: a tag byte per slot plus unboxed payload
   arrays. [ints] holds Int payloads and string-pool ids; [floats] is
   allocated lazily on the first Float stored in the column. *)
type col = {
  mutable tags : Bytes.t;
  mutable ints : int array;
  mutable floats : float array; (* [||] until the column sees a float *)
}

type t = {
  (* Guards every access from concurrent domains (served what-ifs
     snapshot and hash the live tables side by side): the slot arrays
     are not domain-safe even for disjoint slots (growth reallocates,
     and a copy-on-write snapshot shares them until the first write).
     The lock is the writer-priority [Rwlock] variant, so a mutation
     queued behind a stream of concurrent scans is admitted as soon as
     the already-running read sections drain.
     Writer priority makes nested read acquisition a deadlock, so scan
     callbacks and [Col] predicates must never re-enter this table's
     lock: predicates are pure row functions, and the engine collects
     matching rows before mutating or running subqueries. *)
  lock : Uv_util.Rwlock.t;
  mutable schema : Schema.table;
  (* columnar body: slot-indexed struct-of-arrays *)
  mutable cols : col array; (* length >= widest row ever stored *)
  mutable widths : int array; (* per-slot row width; -1 = dead slot *)
  mutable rowids : int array; (* per-slot rowid; valid while live *)
  mutable cap : int; (* slot capacity of every per-slot array *)
  mutable hi : int; (* slots handed out (dead ones included) *)
  mutable live : int;
  mutable slots : (rowid, int) Hashtbl.t;
  (* interned string pool (append-only) *)
  mutable pool : string array;
  mutable pool_len : int;
  mutable pool_ids : (string, int) Hashtbl.t;
  (* ascending-rowid scan order: slots in rowid order while inserts stay
     monotone; an out-of-order insert (undo re-insert, fixed-rowid replay
     ranges) marks it dirty and scans sort locally instead *)
  mutable order : int array;
  mutable order_len : int;
  mutable order_last : rowid;
  mutable order_dirty : bool;
  mutable next_rowid : rowid;
  mutable next_auto : int;
  (* incremental table hash (§4.5), split into the base value and a
     batched delta: mutations fold row digests into [pending] (one
     modular add per statement for the batched entry points), and the
     published hash is always [base + pending mod p] — reading it never
     writes, so concurrent readers race on nothing *)
  mutable hash_base : int64;
  mutable pending : int64;
  mutable indexes : index list;
  (* copy-on-write: [copy] shares every array above and marks both sides
     shared; the first mutation on either side deep-copies its own view
     ([unshare]) before writing. Snapshots that are never written — most
     checkpoint rungs, the untouched tables of a what-if snapshot — stay
     O(1). *)
  mutable shared : bool;
}

(* A hash index: postings are per-value rowid sets, so adding and
   removing a row is O(1) amortized. The column offset is resolved once
   — at index build and on schema changes — instead of per mutated row. *)
and index = {
  ix_col : string;
  mutable ix_offset : int option; (* None: column absent from the schema *)
  ix_postings : (string, (rowid, unit) Hashtbl.t) Hashtbl.t;
}

let locked t f = Uv_util.Rwlock.write t.lock f
let reading t f = Uv_util.Rwlock.read t.lock f

let schema_offset (schema : Schema.table) col =
  let rec find i = function
    | [] -> None
    | (c : Schema.column) :: rest ->
        if String.equal c.Schema.col_name col then Some i else find (i + 1) rest
  in
  find 0 schema.Schema.tbl_columns

let make_index schema col =
  { ix_col = col; ix_offset = schema_offset schema col;
    ix_postings = Hashtbl.create 64 }

let fresh_col cap =
  { tags = Bytes.make cap tag_free; ints = Array.make (max cap 1) 0;
    floats = [||] }

let create schema =
  let t =
    {
      lock = Uv_util.Rwlock.create ~writer_priority:true ();
      schema;
      cols =
        Array.init (List.length schema.Schema.tbl_columns) (fun _ ->
            fresh_col 0);
      widths = [||];
      rowids = [||];
      cap = 0;
      hi = 0;
      live = 0;
      slots = Hashtbl.create 64;
      pool = [||];
      pool_len = 0;
      pool_ids = Hashtbl.create 64;
      order = [||];
      order_len = 0;
      order_last = min_int;
      order_dirty = false;
      next_rowid = 1;
      next_auto = 1;
      hash_base = 0L;
      pending = 0L;
      indexes = [];
      shared = false;
    }
  in
  (* primary-key and UNIQUE columns get an index out of the box *)
  List.iter
    (fun c -> t.indexes <- make_index schema c :: t.indexes)
    (Schema.primary_key_columns schema @ Schema.unique_columns schema);
  t

let schema t = t.schema

let name t = t.schema.Schema.tbl_name

let row_count t = reading t (fun () -> t.live)

let hash t =
  reading t (fun () -> Uv_util.Table_hash.add_mod t.hash_base t.pending)

let next_auto_value t = reading t (fun () -> t.next_auto)

let next_rowid t = reading t (fun () -> t.next_rowid)

(* ------------------------------------------------------------------ *)
(* Copy-on-write                                                        *)
(* ------------------------------------------------------------------ *)

let copy_index ix =
  let postings = Hashtbl.create (max 16 (Hashtbl.length ix.ix_postings)) in
  Hashtbl.iter
    (fun k set -> Hashtbl.replace postings k (Hashtbl.copy set))
    ix.ix_postings;
  { ix_col = ix.ix_col; ix_offset = ix.ix_offset; ix_postings = postings }

(* Deep-copy every shared array before the first mutation after a
   [copy]. Runs under the write lock; the other side of the share keeps
   reading the original arrays, which nothing mutates afterwards. *)
let unshare t =
  if t.shared then begin
    t.cols <-
      Array.map
        (fun c ->
          {
            tags = Bytes.copy c.tags;
            ints = Array.copy c.ints;
            floats = (if Array.length c.floats = 0 then [||] else Array.copy c.floats);
          })
        t.cols;
    t.widths <- Array.copy t.widths;
    t.rowids <- Array.copy t.rowids;
    t.slots <- Hashtbl.copy t.slots;
    t.pool <- Array.copy t.pool;
    t.pool_ids <- Hashtbl.copy t.pool_ids;
    t.order <- Array.copy t.order;
    t.indexes <- List.map copy_index t.indexes;
    t.shared <- false
  end

let copy t =
  reading t (fun () ->
      t.shared <- true;
      {
        lock = Uv_util.Rwlock.create ~writer_priority:true ();
        schema = t.schema;
        cols = t.cols;
        widths = t.widths;
        rowids = t.rowids;
        cap = t.cap;
        hi = t.hi;
        live = t.live;
        slots = t.slots;
        pool = t.pool;
        pool_len = t.pool_len;
        pool_ids = t.pool_ids;
        order = t.order;
        order_len = t.order_len;
        order_last = t.order_last;
        order_dirty = t.order_dirty;
        next_rowid = t.next_rowid;
        next_auto = t.next_auto;
        hash_base = t.hash_base;
        pending = t.pending;
        indexes = t.indexes;
        shared = true;
      })

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)
(* ------------------------------------------------------------------ *)

let take_auto_value t =
  locked t (fun () ->
      let v = t.next_auto in
      t.next_auto <- v + 1;
      v)

let bump_auto_value t v =
  locked t (fun () -> if v >= t.next_auto then t.next_auto <- v + 1)

let set_auto_value t v = locked t (fun () -> t.next_auto <- max 1 v)

let set_rowid_floor t v =
  locked t (fun () -> if v > t.next_rowid then t.next_rowid <- v)

(* ------------------------------------------------------------------ *)
(* Index keys                                                           *)
(* ------------------------------------------------------------------ *)

(* Index keys must respect SQL equality classes: Int 5, Float 5.0,
   Bool-ish 1/0 and the numeric string "5" all compare equal under
   [Value.compare_sql], so they must share a key. *)
let index_key v =
  let num f =
    if Float.is_integer f && Float.abs f < 1e15 then
      "N" ^ string_of_int (int_of_float f)
    else "N" ^ Printf.sprintf "%h" f
  in
  match v with
  | Value.Int i -> "N" ^ string_of_int i
  | Value.Float f -> num f
  | Value.Bool b -> num (if b then 1.0 else 0.0)
  | Value.Null -> "\x00null"
  | Value.Text s -> (
      match float_of_string_opt (String.trim s) with
      | Some f -> num f
      | None -> "T" ^ s)

let posting_add ix k id =
  let set =
    match Hashtbl.find_opt ix.ix_postings k with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 4 in
        Hashtbl.replace ix.ix_postings k s;
        s
  in
  Hashtbl.replace set id ()

let index_add t row id =
  List.iter
    (fun ix ->
      match ix.ix_offset with
      | Some ci when ci < Array.length row ->
          posting_add ix (index_key row.(ci)) id
      | _ -> ())
    t.indexes

let index_remove t row id =
  List.iter
    (fun ix ->
      match ix.ix_offset with
      | Some ci when ci < Array.length row -> (
          let k = index_key row.(ci) in
          match Hashtbl.find_opt ix.ix_postings k with
          | None -> ()
          | Some set ->
              Hashtbl.remove set id;
              if Hashtbl.length set = 0 then Hashtbl.remove ix.ix_postings k)
      | _ -> ())
    t.indexes

(* ------------------------------------------------------------------ *)
(* Hashing                                                              *)
(* ------------------------------------------------------------------ *)

let serialize_row t row =
  let buf = Buffer.create 64 in
  Buffer.add_string buf t.schema.Schema.tbl_name;
  Array.iter
    (fun v ->
      Buffer.add_char buf '|';
      Buffer.add_string buf (Value.serialize v))
    row;
  Buffer.contents buf

let row_delta t row = Uv_util.Table_hash.row_digest (serialize_row t row)

let neg_delta d = Uv_util.Table_hash.sub_mod 0L d

(* ------------------------------------------------------------------ *)
(* Slot plumbing                                                        *)
(* ------------------------------------------------------------------ *)

let grow_slots t =
  let ncap = max 64 (t.cap * 2) in
  let widths = Array.make ncap (-1) in
  Array.blit t.widths 0 widths 0 t.hi;
  t.widths <- widths;
  let rowids = Array.make ncap 0 in
  Array.blit t.rowids 0 rowids 0 t.hi;
  t.rowids <- rowids;
  Array.iter
    (fun c ->
      let tags = Bytes.make ncap tag_free in
      Bytes.blit c.tags 0 tags 0 t.hi;
      c.tags <- tags;
      let ints = Array.make ncap 0 in
      Array.blit c.ints 0 ints 0 (min t.hi (Array.length c.ints));
      c.ints <- ints;
      if Array.length c.floats > 0 then begin
        let floats = Array.make ncap 0.0 in
        Array.blit c.floats 0 floats 0 t.hi;
        c.floats <- floats
      end)
    t.cols;
  t.cap <- ncap

let ensure_width t w =
  if w > Array.length t.cols then begin
    let extra = Array.init (w - Array.length t.cols) (fun _ -> fresh_col t.cap) in
    t.cols <- Array.append t.cols extra
  end

let intern t s =
  match Hashtbl.find_opt t.pool_ids s with
  | Some i -> i
  | None ->
      if t.pool_len >= Array.length t.pool then begin
        let ncap = max 64 (Array.length t.pool * 2) in
        let pool = Array.make ncap "" in
        Array.blit t.pool 0 pool 0 t.pool_len;
        t.pool <- pool
      end;
      let i = t.pool_len in
      t.pool.(i) <- s;
      t.pool_len <- i + 1;
      Hashtbl.replace t.pool_ids s i;
      i

let set_cell t c s v =
  let col = t.cols.(c) in
  match v with
  | Value.Null -> Bytes.unsafe_set col.tags s tag_null
  | Value.Int i ->
      Bytes.unsafe_set col.tags s tag_int;
      Array.unsafe_set col.ints s i
  | Value.Float f ->
      if Array.length col.floats = 0 then col.floats <- Array.make t.cap 0.0;
      Bytes.unsafe_set col.tags s tag_float;
      Array.unsafe_set col.floats s f
  | Value.Text str ->
      Bytes.unsafe_set col.tags s tag_text;
      Array.unsafe_set col.ints s (intern t str)
  | Value.Bool b -> Bytes.unsafe_set col.tags s (if b then tag_true else tag_false)

let vtrue = Value.Bool true
let vfalse = Value.Bool false

let get_cell t c s =
  let col = Array.unsafe_get t.cols c in
  match Bytes.unsafe_get col.tags s with
  | '\001' -> Value.Null
  | '\002' -> Value.Int (Array.unsafe_get col.ints s)
  | '\003' -> Value.Float (Array.unsafe_get col.floats s)
  | '\004' -> Value.Text (Array.unsafe_get t.pool (Array.unsafe_get col.ints s))
  | '\005' -> vtrue
  | '\006' -> vfalse
  | _ -> invalid_arg "Storage: dead cell"

let materialize t s =
  let w = t.widths.(s) in
  Array.init w (fun c -> get_cell t c s)

let push_order t s id =
  if t.order_len >= Array.length t.order then begin
    let ncap = max 64 (Array.length t.order * 2) in
    let order = Array.make ncap 0 in
    Array.blit t.order 0 order 0 t.order_len;
    t.order <- order
  end;
  t.order.(t.order_len) <- s;
  t.order_len <- t.order_len + 1;
  t.order_last <- id

(* Live slots in ascending rowid order. While the append-order cache is
   clean it is returned directly (entries of dead slots are skipped by
   the caller); after an out-of-order insert scans sort a local array. *)
let ordered_slots t =
  if not t.order_dirty then (t.order, t.order_len)
  else begin
    let arr = Array.make (max 1 t.live) 0 in
    let k = ref 0 in
    for s = 0 to t.hi - 1 do
      if Array.unsafe_get t.widths s >= 0 then begin
        arr.(!k) <- s;
        incr k
      end
    done;
    let a = if !k = Array.length arr then arr else Array.sub arr 0 !k in
    Array.sort (fun s1 s2 -> compare t.rowids.(s1) t.rowids.(s2)) a;
    (a, !k)
  end

let kill_slot t s =
  t.widths.(s) <- -1;
  t.live <- t.live - 1

(* ------------------------------------------------------------------ *)
(* Mutations                                                            *)
(* ------------------------------------------------------------------ *)

let insert_unlocked t id row =
  unshare t;
  (* replacing an existing rowid keeps the historical Hashtbl.replace
     semantics: the old image vanishes from scans but stays in the hash
     and indexes (only undo re-insertion can hit this, on images the
     hash already accounts for) *)
  (match Hashtbl.find_opt t.slots id with
  | Some s -> kill_slot t s
  | None -> ());
  let w = Array.length row in
  ensure_width t w;
  if t.hi >= t.cap then grow_slots t;
  let s = t.hi in
  t.hi <- t.hi + 1;
  t.widths.(s) <- w;
  t.rowids.(s) <- id;
  for c = 0 to w - 1 do
    set_cell t c s row.(c)
  done;
  Hashtbl.replace t.slots id s;
  t.live <- t.live + 1;
  if not t.order_dirty then
    if t.order_len = 0 || id > t.order_last then push_order t s id
    else t.order_dirty <- true;
  if id >= t.next_rowid then t.next_rowid <- id + 1;
  t.pending <- Uv_util.Table_hash.add_mod t.pending (row_delta t row);
  index_add t row id

let insert t row =
  locked t (fun () ->
      let id = t.next_rowid in
      insert_unlocked t id row;
      id)

let insert_with_rowid t id row = locked t (fun () -> insert_unlocked t id row)

let delete_unlocked t id =
  match Hashtbl.find_opt t.slots id with
  | None -> raise Not_found
  | Some s ->
      unshare t;
      let row = materialize t s in
      Hashtbl.remove t.slots id;
      kill_slot t s;
      t.pending <-
        Uv_util.Table_hash.add_mod t.pending (neg_delta (row_delta t row));
      index_remove t row id;
      row

let delete t id = locked t (fun () -> delete_unlocked t id)

let update_unlocked t id row =
  match Hashtbl.find_opt t.slots id with
  | None -> raise Not_found
  | Some s ->
      unshare t;
      let before = materialize t s in
      let w = Array.length row in
      ensure_width t w;
      t.widths.(s) <- w;
      for c = 0 to w - 1 do
        set_cell t c s row.(c)
      done;
      t.pending <-
        Uv_util.Table_hash.add_mod
          (Uv_util.Table_hash.add_mod t.pending (neg_delta (row_delta t before)))
          (row_delta t row);
      index_remove t before id;
      index_add t row id;
      before

let update t id row = locked t (fun () -> update_unlocked t id row)

(* Whole-statement batches: one lock acquisition and one hash-chain
   update for all rows a statement touches, instead of per-row locking.
   The per-row digests are folded into a statement-local accumulator and
   applied to [pending] once. *)
let update_many t rows =
  locked t (fun () ->
      unshare t;
      let delta = ref 0L in
      let before =
        List.rev_map
          (fun (id, row) ->
            match Hashtbl.find_opt t.slots id with
            | None -> raise Not_found
            | Some s ->
                let old = materialize t s in
                let w = Array.length row in
                ensure_width t w;
                t.widths.(s) <- w;
                for c = 0 to w - 1 do
                  set_cell t c s row.(c)
                done;
                delta :=
                  Uv_util.Table_hash.add_mod
                    (Uv_util.Table_hash.add_mod !delta
                       (neg_delta (row_delta t old)))
                    (row_delta t row);
                index_remove t old id;
                index_add t row id;
                (id, old))
          rows
      in
      t.pending <- Uv_util.Table_hash.add_mod t.pending !delta;
      List.rev before)

let delete_many t ids =
  locked t (fun () ->
      unshare t;
      let delta = ref 0L in
      let removed =
        List.rev_map
          (fun id ->
            match Hashtbl.find_opt t.slots id with
            | None -> raise Not_found
            | Some s ->
                let row = materialize t s in
                Hashtbl.remove t.slots id;
                kill_slot t s;
                delta :=
                  Uv_util.Table_hash.add_mod !delta (neg_delta (row_delta t row));
                index_remove t row id;
                (id, row))
          ids
      in
      t.pending <- Uv_util.Table_hash.add_mod t.pending !delta;
      List.rev removed)

(* ------------------------------------------------------------------ *)
(* Reads                                                                *)
(* ------------------------------------------------------------------ *)

let get t id =
  reading t (fun () ->
      match Hashtbl.find_opt t.slots id with
      | None -> None
      | Some s -> Some (materialize t s))

(* iter/fold materialize each live row and run the callback under the
   shared read side, in slot (insertion) order. Callbacks must be pure
   row functions: under the writer-priority lock a callback that
   re-entered this table's lock could deadlock against a queued writer. *)
let iter t f =
  reading t (fun () ->
      for s = 0 to t.hi - 1 do
        if Array.unsafe_get t.widths s >= 0 then f t.rowids.(s) (materialize t s)
      done)

let fold t ~init ~f =
  reading t (fun () ->
      let acc = ref init in
      for s = 0 to t.hi - 1 do
        if Array.unsafe_get t.widths s >= 0 then
          acc := f !acc t.rowids.(s) (materialize t s)
      done;
      !acc)

let to_rows t =
  reading t (fun () ->
      let slots, n = ordered_slots t in
      let out = ref [] in
      for k = n - 1 downto 0 do
        let s = Array.unsafe_get slots k in
        if Array.unsafe_get t.widths s >= 0 then
          out := (t.rowids.(s), materialize t s) :: !out
      done;
      !out)

(* ------------------------------------------------------------------ *)
(* Typed column access                                                  *)
(* ------------------------------------------------------------------ *)

module Col = struct
  type table = t

  type cur = { tbl : table; mutable slot : int }

  let rowid cur = cur.tbl.rowids.(cur.slot)

  let width cur = cur.tbl.widths.(cur.slot)

  let value cur c =
    if c >= cur.tbl.widths.(cur.slot) then
      invalid_arg "index out of bounds"
    else get_cell cur.tbl c cur.slot

  let is_null cur c =
    c >= cur.tbl.widths.(cur.slot)
    || Bytes.unsafe_get cur.tbl.cols.(c).tags cur.slot = tag_null

  (* Cell-vs-literal comparison mirroring [Value.compare_sql] without
     materializing the cell for the common same-kind cases. Callers
     handle NULL on either side first. *)
  let cmp_lit cur c lit =
    let tbl = cur.tbl in
    let col = tbl.cols.(c) in
    let s = cur.slot in
    match (Bytes.unsafe_get col.tags s, lit) with
    | '\002', Value.Int j -> compare (Array.unsafe_get col.ints s) j
    | '\003', Value.Float j -> compare (Array.unsafe_get col.floats s) j
    | _ -> Value.compare_sql (value cur c) lit

  let equal_lit cur c lit =
    let tbl = cur.tbl in
    let col = tbl.cols.(c) in
    let s = cur.slot in
    match (Bytes.unsafe_get col.tags s, lit) with
    | '\002', Value.Int j -> Array.unsafe_get col.ints s = j
    (* [compare], not [=]: compare_sql equates nan with nan *)
    | '\003', Value.Float j -> compare (Array.unsafe_get col.floats s) j = 0
    | '\004', Value.Text str ->
        let cs = Array.unsafe_get tbl.pool (Array.unsafe_get col.ints s) in
        String.equal cs str || Value.compare_sql (Value.Text cs) lit = 0
    | _ -> Value.compare_sql (value cur c) lit = 0

  (* Typed readers: [Some v] when the cell currently holds that dynamic
     kind, [None] otherwise (including NULL and out-of-range). *)
  let read_tagged t id c f =
    reading t (fun () ->
        match Hashtbl.find_opt t.slots id with
        | None -> None
        | Some s -> if c >= t.widths.(s) then None else f s)

  let read_int t id c =
    read_tagged t id c (fun s ->
        let col = t.cols.(c) in
        if Bytes.get col.tags s = tag_int then Some col.ints.(s) else None)

  let read_float t id c =
    read_tagged t id c (fun s ->
        let col = t.cols.(c) in
        if Bytes.get col.tags s = tag_float then Some col.floats.(s) else None)

  let read_text t id c =
    read_tagged t id c (fun s ->
        let col = t.cols.(c) in
        if Bytes.get col.tags s = tag_text then Some t.pool.(col.ints.(s))
        else None)

  let read_bool t id c =
    read_tagged t id c (fun s ->
        match Bytes.get t.cols.(c).tags s with
        | '\005' -> Some true
        | '\006' -> Some false
        | _ -> None)

  (* Typed writer: rewrite one cell, keeping hash and indexes exact. *)
  let write t id c v =
    locked t (fun () ->
        match Hashtbl.find_opt t.slots id with
        | None -> raise Not_found
        | Some s ->
            if c >= t.widths.(s) then invalid_arg "Storage.Col.write: column";
            unshare t;
            let before = materialize t s in
            let row = Array.copy before in
            row.(c) <- v;
            set_cell t c s v;
            t.pending <-
              Uv_util.Table_hash.add_mod
                (Uv_util.Table_hash.add_mod t.pending
                   (neg_delta (row_delta t before)))
                (row_delta t row);
            index_remove t before id;
            index_add t row id)

  (* Filtered scan: runs [pred] over every live slot in ascending rowid
     order and materializes only the matches. [pred] must be a pure row
     predicate — no storage re-entry (the read lock is held). *)
  let select t pred =
    reading t (fun () ->
        let slots, n = ordered_slots t in
        let cur = { tbl = t; slot = 0 } in
        let out = ref [] in
        for k = n - 1 downto 0 do
          let s = Array.unsafe_get slots k in
          if Array.unsafe_get t.widths s >= 0 then begin
            cur.slot <- s;
            if pred cur then out := (t.rowids.(s), materialize t s) :: !out
          end
        done;
        !out)

  (* Same, over an explicit candidate rowid list (an index probe). The
     candidates are visited in the order given; unknown rowids skip. *)
  let select_ids t ids pred =
    reading t (fun () ->
        let cur = { tbl = t; slot = 0 } in
        List.filter_map
          (fun id ->
            match Hashtbl.find_opt t.slots id with
            | None -> None
            | Some s ->
                cur.slot <- s;
                if pred cur then Some (id, materialize t s) else None)
          ids)
end

(* ------------------------------------------------------------------ *)
(* Schema changes                                                       *)
(* ------------------------------------------------------------------ *)

let set_schema t schema remap =
  locked t @@ fun () ->
  unshare t;
  let updates =
    let acc = ref [] in
    for s = t.hi - 1 downto 0 do
      if t.widths.(s) >= 0 then acc := (t.rowids.(s), remap (materialize t s)) :: !acc
    done;
    !acc
  in
  t.schema <- schema;
  (* drop indexes on columns that no longer exist, rebuild the rest
     (fresh records so the column offsets are re-resolved against the
     new schema) *)
  let kept =
    List.filter (fun ix -> schema_offset schema ix.ix_col <> None) t.indexes
  in
  t.indexes <- List.map (fun ix -> make_index schema ix.ix_col) kept;
  (* rebuild the columnar body from the remapped images *)
  t.cols <-
    Array.init (List.length schema.Schema.tbl_columns) (fun _ -> fresh_col 0);
  t.widths <- [||];
  t.rowids <- [||];
  t.cap <- 0;
  t.hi <- 0;
  t.live <- 0;
  t.slots <- Hashtbl.create 64;
  t.order <- [||];
  t.order_len <- 0;
  t.order_last <- min_int;
  t.order_dirty <- false;
  t.hash_base <- 0L;
  t.pending <- 0L;
  let next = t.next_rowid in
  List.iter (fun (id, row) -> insert_unlocked t id row) updates;
  t.next_rowid <- max next t.next_rowid

let create_value_index t col =
  locked t @@ fun () ->
  if not (List.exists (fun ix -> String.equal ix.ix_col col) t.indexes)
  then begin
    unshare t;
    let ix = make_index t.schema col in
    t.indexes <- ix :: t.indexes;
    (* populate only the new index: re-adding rows through [index_add]
       would duplicate their entries in every pre-existing index *)
    match ix.ix_offset with
    | None -> ()
    | Some ci ->
        for s = 0 to t.hi - 1 do
          if t.widths.(s) >= 0 && ci < t.widths.(s) then
            posting_add ix (index_key (get_cell t ci s)) t.rowids.(s)
        done
  end

let indexed_lookup t col v =
  reading t (fun () ->
      match List.find_opt (fun ix -> String.equal ix.ix_col col) t.indexes with
      | None -> None
      | Some ix -> (
          match Hashtbl.find_opt ix.ix_postings (index_key v) with
          | None -> Some []
          | Some set ->
              Some (Hashtbl.fold (fun id () acc -> id :: acc) set [])))

let indexed_columns t =
  reading t (fun () -> List.map (fun ix -> ix.ix_col) t.indexes)

let column_index t col =
  let rec find i = function
    | [] -> None
    | (c : Schema.column) :: rest ->
        if String.equal c.Schema.col_name col then Some i else find (i + 1) rest
  in
  find 0 t.schema.Schema.tbl_columns

let memory_bytes t =
  reading t (fun () ->
      let word = Sys.word_size / 8 in
      let per_col acc (c : col) =
        acc + Bytes.length c.tags
        + (word * Array.length c.ints)
        + (word * Array.length c.floats)
      in
      let pool_bytes =
        let b = ref 0 in
        for i = 0 to t.pool_len - 1 do
          b := !b + String.length t.pool.(i) + (3 * word)
        done;
        !b
      in
      256
      + Array.fold_left per_col 0 t.cols
      + (word * (Array.length t.widths + Array.length t.rowids))
      + (word * 4 * Hashtbl.length t.slots)
      + pool_bytes)
