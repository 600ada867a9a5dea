(** Materialized manifest sources, memoized by canonical source.

    Materializing a [gen] or [file] source runs the whole matrix
    pipeline (generation, ordering, elimination tree, amalgamation), and
    a warm service sees the same few sources over and over. This cache
    maps a {e canonical source key} — the source with every default
    filled in, or a file's content digest; {!Manifest} builds it — to
    the [(label, tree)] pair the source denotes. Because materialization
    is a pure function of that key, a hit is by construction the same
    tree.

    The bound is the {e total node count} of the cached trees, not the
    entry count: one 75k-node tree weighs as much as a thousand small
    ones. Inserting past the bound evicts least-recently-used entries
    first; a tree larger than the whole bound is returned but never
    cached.

    Concurrency: one mutex guards the table; {!find_or_add} runs the
    materialization {e outside} it, so a slow miss never blocks hits on
    other keys. Two domains missing the same key concurrently may both
    materialize it; the first insert wins and both callers receive the
    winning (physically shared) tree. *)

type t

val default_max_nodes : int
(** 2{^ 22} nodes — a few hundred MiB of trees at most. *)

val create : ?max_nodes:int -> unit -> t
(** @raise Invalid_argument when [max_nodes < 1]. *)

val find_or_add :
  t -> key:string -> (unit -> string * Tt_core.Tree.t) -> string * Tt_core.Tree.t
(** [find_or_add t ~key make] returns the cached pair for [key], or runs
    [make] and caches its result. Every call counts exactly one hit or
    one miss. If [make] raises, nothing is cached and the exception
    propagates. *)

val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Entries dropped to respect the node bound. *)

val length : t -> int
(** Entries currently cached. *)

val nodes : t -> int
(** Total tree nodes currently cached ([<= max_nodes]). *)
