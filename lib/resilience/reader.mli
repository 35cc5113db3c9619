(** The one text reader behind every input format (METIS graphs, instance,
    delta and assignment files, JSON-lines requests).  It owns file
    loading, lines (numbered from 1; a final newline ends the last line),
    each format's comment and blank-line rules, and tokens with int and
    float fields that raise the format's structured error at their line.

    Tokens are separated by runs of space, tab, carriage return or form
    feed, so CRLF text reads like LF text.  The cursor scans the text in
    place: no line is split into a list, and an int field allocates
    nothing. *)

(** [load path] is the content of [path].
    @raise Hgp_error.Error ([Io_error {path; _}]) when the OS refuses. *)
val load : string -> string

(** How a format reads its lines. *)
type format

(** [format ?comment ?magic ?blank_lines error]: skip the lines whose first
    token starts with [comment] and the version header (tokens [magic] and
    ["1"]); return blank lines only if [blank_lines] (METIS: a vertex with no
    neighbours; default [false]); report a bad line as [error ~line msg]. *)
val format :
  ?comment:char -> ?magic:string -> ?blank_lines:bool -> (line:int -> string -> Hgp_error.t) -> format

(** A cursor: the current line and a token position in it. *)
type t

(** [of_string format text] is a cursor before the first line of [text]. *)
val of_string : format -> string -> t

(** [switch format r] reads on from [r]'s position under [format]; [r] is
    not used again (an instance file hands its graph section on this way). *)
val switch : format -> t -> t

(** [next_line r] moves to the next line the format keeps; [false] at the
    end of the text, where {!line} is one past the last line. *)
val next_line : t -> bool

val line : t -> int

(** The current line as it stands, without its newline. *)
val text : t -> string

(** [more r] is [true] while a token is left on the line. *)
val more : t -> bool

(** [tokens r] counts the tokens left on the line. *)
val tokens : t -> int

(** [token r] consumes the next token ([""] at the end of the line). *)
val token : t -> string

(** [int r bad] and [float r bad] consume the next token in the forms
    [int_of_string_opt] and [float_of_string_opt] accept.
    @raise Hgp_error.Error (the format's error, message [bad token]) on
    any other token. *)
val int : t -> (string -> string) -> int

val float : t -> (string -> string) -> float

(** [fail ?line r fmt] raises the format's error at [line] (default: the
    current one). *)
val fail : ?line:int -> t -> ('a, unit, string, 'b) format4 -> 'a
