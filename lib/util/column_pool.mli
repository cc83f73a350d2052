(** A per-domain pool of int columns, kept by exact length.

    A simulation cell's engine, links and per-flow counters are int
    arrays sized by the cell, and most of them are too long for the
    minor heap: each one built fresh goes straight into the major heap.
    A runner that has read everything it needs from a cell gives the
    columns back here, and the next cell of the same shape takes them
    instead of allocating.

    The pool is value-transparent: {!take} refills the column, so a
    taken column is indistinguishable from [Array.make n fill], and its
    length is exactly [n], so a cell built from pooled columns has the
    capacities and the reachable size of a fresh one. It is opt-in: a
    column nobody gives back is collected as before. Each domain has its
    own pool, so nothing here synchronizes. The pool keeps at most 2{^19}
    words; a column given beyond that is left to the collector. *)

val take : int -> int -> int array
(** [take n fill] is a column of length [n] with every entry [fill]: one
    this domain's pool held, refilled, or else a new one. *)

val give : int array -> unit
(** Hand a column to this domain's pool. The caller gives up the column:
    it must neither read nor write it again, since a later {!take} hands
    it to someone else. Giving an empty array does nothing. *)

val give_outgrown : int array -> unit
(** {!give} for a column its owner has replaced by a longer copy: only a
    column longer than 256 words, the largest the minor heap holds, goes
    back. A shorter one costs the minor collector nothing to drop, and
    keeping it would add live words to a small run's footprint. *)

val grow : int array -> int -> int -> int array
(** [grow a cap fill] is a column of length [cap] that starts with [a]'s
    entries, the rest [fill]: a {!take}, then [a] goes to
    {!give_outgrown}. Requires [cap >= Array.length a]. *)

val clear : unit -> unit
(** Empty this domain's pool, leaving its columns to the collector. A
    measurement of live words calls it first, so the pool's spares are
    not counted as what the measured code keeps. *)

val blank : int -> 'a array
(** [blank n] is an array of [n] slots filled with an immediate, for a
    pointer column whose every slot is written before it is read. A
    long array built from a young filler makes [Array.make] force a
    minor collection first (to avoid a major-to-minor pointer per slot);
    an immediate filler never does. Reading a slot before writing it is
    undefined. *)
