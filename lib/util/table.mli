(** Aligned ASCII tables for experiment reports.

    Every experiment in [Ba_experiments] and the CLI tools prints its rows
    through this module so the output matches EXPERIMENTS.md. *)

type align = Left | Right

val render : ?aligns:align list -> headers:string list -> string list list -> string
(** [render ~headers rows] lays the table out with a header rule. All rows
    must have the same arity as [headers]; missing cells are padded empty.
    Numeric-looking columns default to right alignment unless [aligns] is
    given. *)

val print : ?aligns:align list -> headers:string list -> string list list -> unit
(** [render] followed by [print_string]. *)

type sink

val stream : ?aligns:align list -> headers:string list -> unit -> sink
(** Constant-memory alternative to {!print} for long-running reports
    (the soak path): prints the header and rule immediately and fixes
    every column width at its header's width, so rows can be emitted as
    they are produced instead of being buffered for layout. A cell wider
    than its header overflows its column rather than re-laying the table
    out. [aligns] defaults to all-[Right] (the streaming caller knows
    its columns; there is no data to sniff). *)

val stream_row : sink -> string list -> unit
(** Print one row through the sink. Rows are padded or truncated to the
    header arity, like {!render}. *)

val fmt_float : ?decimals:int -> float -> string
(** Fixed-point formatting used across reports (default 3 decimals). *)
