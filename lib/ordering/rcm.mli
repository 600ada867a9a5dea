(** Reverse Cuthill–McKee ordering: per connected component, a BFS from a
    pseudo-peripheral vertex visiting neighbors by increasing degree,
    reversed at the end. Produces small-bandwidth profiles and chain-like
    elimination trees — the "banded" end of the ordering spectrum used in
    the experiment corpus. *)

val order : ?cancel:Tt_util.Cancel.t -> Graph_adj.t -> int array
(** [order g] is a permutation with [perm.(new_index) = old_index]
    (the convention of {!Tt_sparse.Csr.permute_sym}). [cancel] (default
    {!Tt_util.Cancel.never}) is polled once per visited vertex.
    @raise Tt_util.Cancel.Cancelled once [cancel] has expired. *)
