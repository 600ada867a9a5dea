(** Nested dissection by recursive level-set bisection — the stand-in for
    the paper's MeTiS.

    Each (sub)graph is split by a BFS from a pseudo-peripheral vertex:
    the median BFS level becomes the separator, the two sides are ordered
    recursively, and the separator is numbered last. Small parts fall
    back to minimum degree. Produces the balanced, bushy elimination
    trees characteristic of graph-partitioning orderings. *)

val order : ?cancel:Tt_util.Cancel.t -> ?small:int -> Graph_adj.t -> int array
(** [order g] is the elimination permutation,
    [perm.(new_index) = old_index]. Parts of at most [small] vertices
    (default 24) are ordered with {!Min_degree} restricted to the part.
    [cancel] (default {!Tt_util.Cancel.never}) is polled once per
    dissection level and inside each {!Min_degree} part.
    @raise Tt_util.Cancel.Cancelled once [cancel] has expired. *)
