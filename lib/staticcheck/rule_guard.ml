(* seam-guard: every dispatch into the observation seam must be
   dominated by the armed-word check — the one [Atomic.get Obs.armed]
   load that keeps the hot path under 100 ns/event while nothing is
   subscribed (bench §P5/P7/P8/P10).  A dispatch that skips the check
   loads the registry (or reads the clock) unconditionally and silently
   breaks that budget on every disarmed run.

   The domination analysis is lexical: guard facts flow through
   let/sequence/if/match/closure structure.  A condition establishes
   the fact when it tests the armed word against 0 — [w <> 0] or
   [w land bits <> 0] — where [w] is [Atomic.get Obs.armed] itself or
   a variable let-bound to it ([let m = Atomic.get Obs.armed in ... if
   m <> 0 then ...]); a conjunction establishes it if either side
   does.

   Dispatches checked: applications of [Obs.emit], [Obs.fire],
   [Obs.decide], [Obs.lap], [Obs.now], [Obs.start] and [Obs.finish].
   [Obs.self] is not one: it is pure DLS. *)

open Parsetree

let rule = "seam-guard"
let dispatches = [ "emit"; "fire"; "decide"; "lap"; "now"; "start"; "finish" ]

let is_ident name (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { Location.txt = Longident.Lident v; _ } -> v = name
  | _ -> false

(* [Atomic.get Obs.armed], or a variable bound to it. *)
let rec is_word words (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { Location.txt = Longident.Lident v; _ } -> List.mem v words
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { Location.txt = get; _ }; _ },
        [ (Asttypes.Nolabel, { pexp_desc = Pexp_ident { Location.txt = w; _ }; _ }) ] )
    ->
      Source.lid_last get = "get"
      && Source.lid_parent get = Some "Atomic"
      && Source.lid_last w = "armed"
      && Source.lid_parent w = Some "Obs"
  | Pexp_apply (land_, [ (_, a); _ ]) when is_ident "land" land_ -> is_word words a
  | Pexp_constraint (e, _) -> is_word words e
  | _ -> false

let is_zero (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer ("0", None)) -> true
  | _ -> false

let rec guards words (e : expression) =
  match e.pexp_desc with
  | Pexp_apply (op, [ (_, a); (_, b) ]) when is_ident "<>" op ->
      (is_word words a && is_zero b) || (is_zero a && is_word words b)
  | Pexp_apply (op, [ (_, a); (_, b) ]) when is_ident "&&" op ->
      guards words a || guards words b
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> guards words e
  | _ -> false

let is_dispatch (fn : expression) =
  match fn.pexp_desc with
  | Pexp_ident { Location.txt = lid; _ } ->
      Source.lid_parent lid = Some "Obs" && List.mem (Source.lid_last lid) dispatches
  | _ -> false

let check (src : Source.t) =
  let findings = ref [] in
  let report (e : expression) =
    let line = Source.line_of e.pexp_loc in
    if not (Source.allows src ~rule ~line) then
      findings :=
        Tm_analysis.Finding.v ~rule ~severity:Tm_analysis.Finding.Error
          ~subject:src.path
          ~location:(Tm_analysis.Finding.At_line line)
          "seam dispatch not dominated by an [if Atomic.get Obs.armed <> 0 \
           then] armed-word check"
        :: !findings
  in
  (* [words]: variables in scope bound to the armed word; [guarded]:
     the check holds on the current control path. *)
  let rec walk words guarded (e : expression) =
    match e.pexp_desc with
    | Pexp_ifthenelse (cond, then_, else_) ->
        walk words guarded cond;
        walk words (guarded || guards words cond) then_;
        Option.iter (walk words guarded) else_
    | Pexp_let (_, vbs, body) ->
        List.iter (fun vb -> walk words guarded vb.pvb_expr) vbs;
        let words =
          List.fold_left
            (fun words vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var v when is_word words vb.pvb_expr -> v.Location.txt :: words
              | _ -> words)
            words vbs
        in
        walk words guarded body
    | Pexp_apply (fn, args) ->
        if is_dispatch fn && not guarded then report e;
        walk words guarded fn;
        List.iter (fun (_, a) -> walk words guarded a) args
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        walk words guarded scrut;
        List.iter (walk_case words guarded) cases
    | Pexp_function cases -> List.iter (walk_case words guarded) cases
    | _ ->
        (* Generic fallback: visit immediate sub-expressions under the
           same facts (sequences, closures, tuples, loops, ...). *)
        let sub =
          { Ast_iterator.default_iterator with expr = (fun _ e' -> walk words guarded e') }
        in
        Ast_iterator.default_iterator.expr sub e
  and walk_case words guarded (c : case) =
    Option.iter (walk words guarded) c.pc_guard;
    walk words guarded c.pc_rhs
  in
  let iter =
    { Ast_iterator.default_iterator with expr = (fun _ e -> walk [] false e) }
  in
  iter.structure iter src.structure;
  List.rev !findings
