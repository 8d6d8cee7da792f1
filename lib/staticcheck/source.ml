(* A parsed OCaml source file, plus the small amount of raw-text
   context the rules need: line-anchored allow-comments and longident
   helpers.  Parsing uses compiler-libs ([Parse.implementation]), so
   the analyzer sees exactly the trees the compiler sees — no regexes
   over source text except for the allow-comment scan, which is
   line-local by design (comments are not in the parsetree). *)

type allow = { a_line : int; a_rules : string list (* [] = every rule *) }

type t = {
  path : string;  (** the subject string used in findings *)
  text : string;
  structure : Parsetree.structure;
  allows : allow list;
}

(* "(* tmstatic: allow txn-purity *)" anywhere on a line suppresses the
   named rules (comma/space separated; none named = all rules) for
   findings on that line or the next one — same discipline as a lint
   pragma, kept deliberately line-local so a stale allow is visible
   next to the code it excuses. *)
let allow_marker = "tmstatic: allow"

let contains_at hay pos needle =
  pos + String.length needle <= String.length hay
  && String.sub hay pos (String.length needle) = needle

let find_sub hay needle =
  let n = String.length hay in
  let rec go i =
    if i >= n then None
    else if contains_at hay i needle then Some i
    else go (i + 1)
  in
  go 0

let scan_allows text =
  let allows = ref [] in
  let line = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun l ->
         incr line;
         match find_sub l allow_marker with
         | None -> ()
         | Some i ->
             let rest =
               String.sub l
                 (i + String.length allow_marker)
                 (String.length l - i - String.length allow_marker)
             in
             let rest =
               match find_sub rest "*)" with
               | Some j -> String.sub rest 0 j
               | None -> rest
             in
             let rules =
               String.split_on_char ',' rest
               |> List.concat_map (String.split_on_char ' ')
               |> List.filter_map (fun w ->
                      match String.trim w with "" -> None | w -> Some w)
             in
             allows := { a_line = !line; a_rules = rules } :: !allows);
  List.rev !allows

let allows t ~rule ~line =
  List.exists
    (fun a ->
      (a.a_line = line || a.a_line = line - 1)
      && (a.a_rules = [] || List.mem rule a.a_rules))
    t.allows

let of_string ~path text =
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | structure -> Ok { path; text; structure; allows = scan_allows text }
  | exception exn ->
      Error (Fmt.str "%s: parse error: %s" path (Printexc.to_string exn))

let load ?subject file =
  let subject = Option.value subject ~default:file in
  match In_channel.with_open_bin file In_channel.input_all with
  | text -> of_string ~path:subject text
  | exception Sys_error msg -> Error (Fmt.str "%s: %s" subject msg)

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* Longident helpers: rules match on the last component (the name) and
   the component immediately qualifying it (the module), e.g.
   [Stm_core.Obs.fire] has last ["fire"] under ["Obs"]. *)
let rec lid_last : Longident.t -> string = function
  | Lident s -> s
  | Ldot (_, s) -> s
  | Lapply (_, l) -> lid_last l

let lid_parent : Longident.t -> string option = function
  | Lident _ -> None
  | Ldot (p, _) -> (
      match p with
      | Longident.Lident m | Longident.Ldot (_, m) -> Some m
      | Longident.Lapply _ -> None)
  | Lapply _ -> None
