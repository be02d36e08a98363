(** A hand-rolled, zero-dependency JSON writer.

    Just enough JSON to export traces, metrics and benchmark results in
    formats other tools (Perfetto, spreadsheets, plotters) can read.
    Output is compact (no insignificant whitespace); strings are escaped
    per RFC 8259; non-finite floats are emitted as [null] (JSON has no
    representation for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val to_channel : out_channel -> t -> unit
(** Writes the document followed by a newline. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document (the inverse of {!to_string}, for
    readers of our own output such as the benchmark result cache).
    Numbers containing ['.'], ['e'] or ['E'] parse as [Float], others
    as [Int]; [\uXXXX] escapes decode to UTF-8. *)

val int_obj : (string * int) list -> t
(** An object of integer members, e.g. a counter assoc. *)

val member : string -> t -> t option
(** [member k (Obj kvs)] looks up [k]; [None] on other constructors. *)
