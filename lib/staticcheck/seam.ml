(* The machine-read seam contract.

   Rather than hard-coding the site vocabulary and the per-algorithm
   announcement table, the checker parses them out of the same sources
   the compiler builds: the constructors of [Obs.site] in
   [stm_core.ml], and the literal lists returned by [Algo.sites] plus
   the [Algo.name] table in [stm.ml], which names each algorithm by its
   core module's [algo_name].  A site added to the vocabulary
   or a core added to the zoo is picked up with no checker change — and
   a checker that fails to find the tables reports that as an error
   instead of silently passing. *)

open Parsetree

type announcement = {
  an_algo : string;
  an_sites : string list;
  an_line : int;
}

type contract = {
  c_algos : string list;
  c_core_files : (string * string) list;
  c_announced : announcement list;
}

let announced c ~algo = List.find_opt (fun a -> a.an_algo = algo) c.c_announced

let ctor_names_of_type_decl (td : type_declaration) =
  match td.ptype_kind with
  | Ptype_variant ctors ->
      Some (List.map (fun c -> c.pcd_name.Location.txt) ctors)
  | _ -> None

(* The items of top-level module [name], if it is a plain structure. *)
let module_items ~name structure =
  List.find_map
    (fun (si : structure_item) ->
      match si.pstr_desc with
      | Pstr_module mb when mb.pmb_name.Location.txt = Some name -> (
          match mb.pmb_expr.pmod_desc with
          | Pmod_structure items -> Some items
          | _ -> None)
      | _ -> None)
    structure

let variant_in ~type_name items =
  List.find_map
    (fun (si : structure_item) ->
      match si.pstr_desc with
      | Pstr_type (_, tds) ->
          List.find_map
            (fun td ->
              if td.ptype_name.Location.txt = type_name then
                ctor_names_of_type_decl td
              else None)
            tds
      | _ -> None)
    items

(* --- vocabulary: the site variant in stm_core.ml --- *)

let vocab_of_core (src : Source.t) =
  match
    Option.bind (module_items ~name:"Obs" src.structure) (variant_in ~type_name:"site")
  with
  | Some cs -> Ok cs
  | None -> Error (Fmt.str "%s: cannot find type Obs.site" src.path)

(* --- the Algo announcement and name tables in stm.ml --- *)

(* Both tables are written as [let name = function ...], every case
   mapping (possibly or-patterns of) Algo constructors to a literal
   list of sites / a core module's [algo_name]. *)

let rec pattern_algos (p : pattern) =
  match p.ppat_desc with
  | Ppat_construct (lid, None) -> [ Source.lid_last lid.Location.txt ]
  | Ppat_or (a, b) -> pattern_algos a @ pattern_algos b
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pattern_algos p
  | _ -> []

let rec list_literal_ctors (e : expression) =
  match e.pexp_desc with
  | Pexp_construct ({ Location.txt = Longident.Lident "[]"; _ }, None) ->
      Some []
  | Pexp_construct
      ({ Location.txt = Longident.Lident "::"; _ }, Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ }) -> (
      match (hd.pexp_desc, list_literal_ctors tl) with
      | Pexp_construct (lid, None), Some rest ->
          Some (Source.lid_last lid.Location.txt :: rest)
      | _ -> None)
  | _ -> None

let rec core_module_of_expr (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { Location.txt = lid; _ }
    when Source.lid_last lid = "algo_name" ->
      Source.lid_parent lid
  | Pexp_constraint (e, _) -> core_module_of_expr e
  | _ -> None

(* [f rhs_case algos] over the cases of [let name = function ...]. *)
let table_cases (vb : value_binding) f =
  let e = match vb.pvb_expr.pexp_desc with Pexp_constraint (e, _) -> e | _ -> vb.pvb_expr in
  match e.pexp_desc with
  | Pexp_function cases ->
      List.concat_map (fun (c : case) -> f c.pc_rhs (pattern_algos c.pc_lhs)) cases
  | _ -> []

let bindings_named name items =
  List.concat_map
    (fun (si : structure_item) ->
      match si.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.filter
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var v -> v.Location.txt = name
              | _ -> false)
            vbs
      | _ -> [])
    items

let contract_of_facade (src : Source.t) =
  let algo_items = Option.value ~default:[] (module_items ~name:"Algo" src.structure) in
  let algos = Option.value ~default:[] (variant_in ~type_name:"t" algo_items) in
  let core_files =
    List.concat_map
      (fun vb ->
        table_cases vb (fun rhs algos ->
            match core_module_of_expr rhs with
            | Some m -> List.map (fun a -> (a, m)) algos
            | None -> []))
      (bindings_named "name" algo_items)
  in
  let announced =
    List.concat_map
      (fun vb ->
        table_cases vb (fun rhs algos ->
            match list_literal_ctors rhs with
            | Some sites ->
                List.map
                  (fun a ->
                    { an_algo = a; an_sites = sites; an_line = Source.line_of rhs.pexp_loc })
                  algos
            | None -> []))
      (bindings_named "sites" algo_items)
  in
  if algos = [] then Error (Fmt.str "%s: cannot find module Algo's type t" src.path)
  else if core_files = [] then
    Error (Fmt.str "%s: cannot find the Algo.name core table" src.path)
  else if announced = [] then
    Error (Fmt.str "%s: cannot find the Algo.sites announcement table" src.path)
  else Ok { c_algos = algos; c_core_files = core_files; c_announced = announced }

(* --- emission sites --- *)

type site = { s_site : string; s_line : int }

(* Every [Obs.X] site constructor in expression position is an emission
   site: the cores and the facade only ever mention one when handing
   it to the seam ([Obs.fire m Obs.Read ...], [Obs.lap m Obs.Lock_time
   t0]).  Pattern positions (the [match Obs.decide m site with] arms,
   the subscribers' own dispatch) are not expressions and never match.
   [skip_module] skips one named top-level module. *)
let collector vocab ?skip_module acc =
  {
    Ast_iterator.default_iterator with
    expr =
      (fun self e ->
        (match e.pexp_desc with
        | Pexp_construct (lid, _) ->
            let lid = lid.Location.txt in
            if Source.lid_parent lid = Some "Obs" && List.mem (Source.lid_last lid) vocab
            then
              acc := { s_site = Source.lid_last lid; s_line = Source.line_of e.pexp_loc } :: !acc
        | _ -> ());
        Ast_iterator.default_iterator.expr self e);
    module_binding =
      (fun self mb ->
        match skip_module with
        | Some m when mb.pmb_name.Location.txt = Some m -> ()
        | _ -> Ast_iterator.default_iterator.module_binding self mb);
  }

let sites vocab ?skip_module (src : Source.t) =
  let acc = ref [] in
  let it = collector vocab ?skip_module acc in
  it.structure it src.structure;
  List.rev !acc

(* The substrate's helpers: each top-level function of [stm_core.ml]
   with the sites it emits, so a core calling [write_back] reaches the
   sites [write_back] emits. *)
let helpers vocab (src : Source.t) =
  List.concat_map
    (fun (si : structure_item) ->
      match si.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.filter_map
            (fun vb ->
              let acc = ref [] in
              let it = collector vocab acc in
              it.expr it vb.pvb_expr;
              match (vb.pvb_pat.ppat_desc, !acc) with
              | Ppat_var v, (_ :: _ as ss) ->
                  Some (v.Location.txt, List.rev_map (fun s -> s.s_site) ss)
              | _ -> None)
            vbs
      | _ -> [])
    src.structure

(* The substrate helpers [core] refers to (bare or qualified). *)
let helpers_used helpers (core : Source.t) =
  let used = ref [] in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { Location.txt = lid; _ } -> (
              let name = Source.lid_last lid in
              match (Source.lid_parent lid, List.assoc_opt name helpers) with
              | (None | Some "Stm_core"), Some ss when not (List.mem_assoc name !used) ->
                  used := (name, ss) :: !used
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.structure iter core.structure;
  List.rev !used
