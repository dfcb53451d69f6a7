open Uv_sql
module Analyzer = Uv_retroactive.Analyzer
module Log = Uv_db.Log
module T = Template_extract
module M = Template_matrix

type assigned = {
  tid : int;
  binding : (string * Value.t) list;
  gvals : (string * string) list; (* table -> canonical guard value *)
}

type t = {
  assign : assigned option array;
  unmatched : int list; (* ascending *)
  n : int;
}

let unmatched fp = fp.unmatched

let assignment fp i =
  if i < 1 || i > fp.n then None
  else
    Option.map (fun a -> (a.tid, a.binding)) fp.assign.(i - 1)

let matched_count fp = fp.n - List.length fp.unmatched

let guard_values fp i =
  if i < 1 || i > fp.n then []
  else match fp.assign.(i - 1) with None -> [] | Some a -> a.gvals

let canonical_gval anl matrix ~tid ~table v =
  if M.guard_on_dim0 matrix ~id:tid ~table then
    Analyzer.canonical_row_value anl ~table v
  else Value.serialize v

let compute_gvals anl matrix ~tid binding =
  List.filter_map
    (fun (table, _) ->
      match M.guard_value matrix ~id:tid ~table binding with
      | None -> None
      | Some (_gcol, v) ->
          Some (table, canonical_gval anl matrix ~tid ~table v))
    (M.guards matrix tid)

let prepare ?log ~set ~matrix anl =
  let n = Analyzer.length anl in
  (* DDL anywhere in the history invalidates the statically computed
     template sets for entries after it: leave the whole history
     unmatched (workload histories carry no DDL) *)
  let has_ddl = ref false in
  for i = 1 to n do
    if Passes.contains_ddl (Analyzer.info anl i).Analyzer.stmt then
      has_ddl := true
  done;
  let assign = Array.make n None in
  let unmatched = ref [] in
  for i = n downto 1 do
    let inf = Analyzer.info anl i in
    match
      if !has_ddl then None else T.match_entry set inf.Analyzer.stmt
    with
    | Some (tpl, binding) ->
        let tid = tpl.T.id in
        assign.(i - 1) <-
          Some { tid; binding; gvals = compute_gvals anl matrix ~tid binding };
        (match log with
        | Some l when i <= Log.length l ->
            Log.set_template_id (Log.entry l i) (Some tid)
        | _ -> ())
    | None -> unmatched := i :: !unmatched
  done;
  { assign; unmatched = !unmatched; n }
