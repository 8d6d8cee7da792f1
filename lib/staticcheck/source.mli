(** A parsed OCaml source file for the static rules: the compiler-libs
    parsetree plus line-anchored [tmstatic: allow] escape comments and
    longident helpers shared by every rule. *)

type t = {
  path : string;  (** the subject string used in findings *)
  text : string;
  structure : Parsetree.structure;
  allows : allow list;
}

and allow = { a_line : int; a_rules : string list (* [] = every rule *) }

val allow_marker : string
(** ["tmstatic: allow"] — the escape-comment marker. *)

val of_string : path:string -> string -> (t, string) result
(** Parse an implementation from a string; [path] labels findings and
    parse errors. *)

val load : ?subject:string -> string -> (t, string) result
(** Read and parse [file]; [subject] (default [file]) labels findings. *)

val allows : t -> rule:string -> line:int -> bool
(** Is there a [tmstatic: allow] comment for [rule] on [line] or the
    line above it? An allow comment naming no rules allows every rule. *)

val line_of : Location.t -> int
(** 1-based start line of a location. *)

val lid_last : Longident.t -> string
(** The last component: [Stm_core.Obs.fire] -> ["fire"]. *)

val lid_parent : Longident.t -> string option
(** The component immediately qualifying the last one:
    [Stm_core.Obs.fire] -> [Some "Obs"]; [Lident _] -> [None]. *)
