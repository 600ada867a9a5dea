(** Minimum-degree ordering on the quotient (elimination) graph — the
    stand-in for the paper's [amd].

    Exact external degrees are maintained: when a pivot is eliminated its
    boundary becomes a new {e element} (clique); the element lists of
    absorbed elements are merged, and the degrees of the boundary
    variables are recomputed. Supervariable detection (indistinguishable
    nodes) is deliberately omitted — it changes only the speed, not the
    quality, at the sizes used here. *)

val order : ?cancel:Tt_util.Cancel.t -> Graph_adj.t -> int array
(** [order g] is the elimination permutation,
    [perm.(new_index) = old_index]. Ties are broken by the smallest
    vertex id, so the result is deterministic. [cancel] (default
    {!Tt_util.Cancel.never}) is polled once per pivot.
    @raise Tt_util.Cancel.Cancelled once [cancel] has expired. *)
