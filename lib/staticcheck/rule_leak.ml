(* armed-leak: subscribing to the observation seam without a paired
   release.

   [Chaos.install], [Blame.install], [Blame_graph.install],
   [Stm_probe.install], [Trace.start] / [Trace.start_null] and
   [Obs.subscribe] arm the process-global seam.  A test or bench step
   that subscribes and then exits without releasing leaves every
   subsequent test of the binary running armed: the <100 ns disarmed
   bench gates measure the wrong thing and chaos plans fire in
   unrelated tests.  The rule requires each top-level definition that
   subscribes to also mention the matching release — [uninstall],
   [Trace.stop], [Obs.unsubscribe], or [Stm.recover], which drops every
   subscription — as an application or as a bare ident
   ([Fun.protect ~finally:Stm.Chaos.uninstall] counts).

   Scope deliberately per top-level structure item: the repo's
   discipline is that one test function owns the whole
   subscribe/observe/release lifecycle (helpers that split the pair
   across definitions can carry a [tmstatic: allow armed-leak]). *)

open Parsetree

let rule = "armed-leak"

(* (module, arming functions, releasing function) *)
let parties =
  [
    ("Chaos", [ "install" ], "uninstall");
    ("Blame", [ "install" ], "uninstall");
    ("Blame_graph", [ "install" ], "uninstall");
    ("Stm_probe", [ "install" ], "uninstall");
    ("Trace", [ "start"; "start_null" ], "stop");
    ("Obs", [ "subscribe" ], "unsubscribe");
  ]

(* Collect, for one top-level definition: every arming site, whether a
   release of each party is mentioned, and whether [recover] is. *)
let scan_item (si : structure_item) =
  let arms = ref [] and released = ref [] and recovered = ref false in
  let on_ident lid line =
    let last = Source.lid_last lid in
    if last = "recover" then recovered := true;
    match Source.lid_parent lid with
    | Some p -> (
        match List.find_opt (fun (m, _, _) -> m = p) parties with
        | Some (_, installs, release) ->
            if List.mem last installs then arms := (p, line) :: !arms;
            if last = release then released := p :: !released
        | None -> ())
    | None -> ()
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { Location.txt = lid; loc } -> on_ident lid (Source.line_of loc)
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.structure_item iter si;
  (List.rev !arms, !released, !recovered)

let check (src : Source.t) =
  List.concat_map
    (fun si ->
      let arms, released, recovered = scan_item si in
      List.filter_map
        (fun (p, line) ->
          if recovered || List.mem p released || Source.allows src ~rule ~line then None
          else
            let _, _, release = List.find (fun (m, _, _) -> m = p) parties in
            Some
              (Tm_analysis.Finding.v ~rule ~severity:Tm_analysis.Finding.Error
                 ~subject:src.Source.path
                 ~location:(Tm_analysis.Finding.At_line line)
                 (Fmt.str
                    "%s armed here with no %s.%s / Stm.recover in the same \
                     top-level definition: later tests in this binary run armed"
                    p p release)))
        arms)
    src.structure
