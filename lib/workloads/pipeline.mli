(** End-to-end pipeline: sparse matrix → assembly-tree workflow, exactly
    as in §VI-B of the paper: symmetrize the pattern, apply a
    fill-reducing ordering, build the elimination tree and column counts,
    amalgamate, and attach the paper's weights. *)

type ordering = Natural | Rcm | Min_degree | Nested_dissection

val ordering_name : ordering -> string
(** Display name. *)

val all_orderings : ordering list
(** The orderings used to build the corpus (natural excluded: the paper
    orders every matrix). *)

val permutation_of :
  ?cancel:Tt_util.Cancel.t -> ordering -> Tt_sparse.Csr.t -> int array
(** Compute the permutation for an already-symmetrized pattern. The
    orderings poll [cancel] once per pivot, vertex or level. *)

val assembly_tree :
  ?cancel:Tt_util.Cancel.t ->
  ?ordering:ordering ->
  ?amalgamation:int ->
  Tt_sparse.Csr.t ->
  Tt_etree.Assembly.t
(** [assembly_tree a] runs the whole pipeline on any square matrix
    (default [ordering = Min_degree], [amalgamation = 4]); the amount of
    relaxed amalgamation per node mirrors the paper's 1/2/4/16.
    [cancel] (default {!Tt_util.Cancel.never}) is polled before every
    stage and inside the ordering, so an expired deadline stops the
    pipeline within one pivot.
    @raise Tt_util.Cancel.Cancelled once [cancel] has expired. *)

val stats : Tt_etree.Assembly.t -> string
(** One-line summary: nodes, height, max degree, total file volume. *)
