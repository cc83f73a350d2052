(** Minimal JSON emission (no parsing, no dependencies).

    Just enough to write machine-readable benchmark artefacts like
    [BENCH_campaigns.json]: a value type, correct string escaping, and a
    deterministic two-space-indented renderer, so diffs across PRs are
    stable. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** rendered with ["%.6g"]; non-finite becomes [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** keys emitted in the given order *)

val to_channel : out_channel -> t -> unit
(** Render with two-space indentation and a trailing newline. *)
