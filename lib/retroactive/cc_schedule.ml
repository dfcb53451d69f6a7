let is_schema_key k = String.length k > 3 && String.sub k 0 3 = "_S."

(* cell-wise conflict: column-level overlap refined by row-level overlap;
   _S schema keys behave as wildcard rows (Table B) *)
let conflicts row_state (a_rw : Rwset.rw) a_rows (b_rw : Rwset.rw) b_rows =
  let inter x y = not (Rwset.Colset.is_empty (Rwset.Colset.inter x y)) in
  let sk s = Rwset.Colset.filter is_schema_key s in
  let col_conflict =
    inter a_rw.Rwset.w b_rw.Rwset.r
    || inter a_rw.Rwset.r b_rw.Rwset.w
    || inter a_rw.Rwset.w b_rw.Rwset.w
  in
  let schema_conflict =
    inter (sk a_rw.Rwset.w) (sk b_rw.Rwset.r)
    || inter (sk a_rw.Rwset.r) (sk b_rw.Rwset.w)
    || inter (sk a_rw.Rwset.w) (sk b_rw.Rwset.w)
  in
  let row_conflict =
    schema_conflict
    || List.exists
         (fun (table, acc_a) ->
           match List.assoc_opt table b_rows with
           | Some acc_b -> Rowset.overlaps row_state table acc_a `Any_conflict acc_b
           | None -> false)
         a_rows
  in
  col_conflict && row_conflict

let plan ?(config = Rowset.default_config) ~base stmts =
  let sv = Schema_view.of_catalog base in
  let row_state = Rowset.create config in
  Rowset.seed_aliases row_state base;
  let infos =
    List.map
      (fun s ->
        let rw = Rwset.of_stmt sv s in
        let rows = Rowset.of_entry row_state sv s [] in
        (* planned DDL evolves the schema for later statements *)
        Schema_view.apply sv s;
        (rw, rows))
      stmts
  in
  let arr = Array.of_list infos in
  let n = Array.length arr in
  let edges = ref [] in
  for i = 0 to n - 1 do
    let a_rw, a_rows = arr.(i) in
    for j = 0 to i - 1 do
      let b_rw, b_rows = arr.(j) in
      if conflicts row_state b_rw b_rows a_rw a_rows then
        edges := (i, j) :: !edges
    done
  done;
  Conflict_dag.build ~nodes:(List.init n Fun.id) ~edges:!edges
