(** The `treetrav batch` manifest: a line-based description of a job
    batch, resolved to {!Job.t}s.

    Grammar (one entry per line; [#] starts a comment, blank lines are
    ignored):

    {v
    <source> :: <job> [; <job>]*

    <source> ::= file PATH [ordering=ORD] [amalgamation=K]
               | gen KIND [size=N] [seed=N] [ordering=ORD] [amalgamation=K]
               | tree "<Tree.to_string form>"
    <job>    ::= minmem | liu | postorder
               | minio policy=POL budget=B
               | schedule procs=N mem=F
               | par-schedule [algo=A] procs=N [mem=F]
               | pareto procs=N [steps=K]
               | minmem-approx [cap=N] [tol=F]
    v}

    [ORD] is [natural], [rcm], [mindeg] or [nd] (default [mindeg]);
    [amalgamation] defaults to 4. [KIND] is any of `treetrav generate`'s
    families ([grid2d], [grid9], [grid3d], [banded], [random], [arrow],
    [powerlaw], [tridiagonal]); [size] defaults to 20, [seed] to 42.
    [POL] is [lsnf], [first-fit], [best-fit], [first-fill], [best-fill]
    or an integer K for Best-K (default [first-fit]). [B] is either
    [P%] — position P/100 in the gap between the working-set floor and
    the in-core optimum — or an absolute word count (default [50%]).
    [A] is a [tt_sched] scheduler: [greedy], [booking] (default) or
    [split]; [mem] is the budget as a multiple of the MinMem in-core
    optimum (default 1.5). [pareto] runs the full memory/makespan sweep
    with [steps] budget points (default 8). [minmem-approx] computes
    certified MinMemory bounds via {!Tt_core.Minmem_approx} with initial
    segment cap [cap >= 2] (default 8) and relative gap tolerance [tol]
    (default 0.01) — the near-linear tier for trees too large for the
    exact solvers.

    Example:

    {v
    # sweep two sources through the whole solver collection
    gen grid2d size=24 :: minmem; liu; postorder
    gen grid2d size=24 :: minio policy=first-fit budget=50%; minio policy=lsnf budget=50%
    file data/pores_1.mtx ordering=rcm :: minmem; schedule procs=4 mem=1.5
    v}

    Each matrix source is materialized once per line via the standard
    pipeline; the engine's cache then deduplicates identical solver
    work across lines (the two [grid2d] lines above share one tree
    digest, so their MinMem runs coincide). With a {!Source_cache}, a
    source seen before is not materialized again at all.

    {b Untrusted input.} Every entry maps to [Ok] or a per-line
    [Error]; a pipeline stage rejecting its input (a malformed Matrix
    Market file, a degenerate generator shape) is that line's error,
    never an exception. Sources are bounded before anything is built:
    a [gen] source whose dimension exceeds {!max_dim} or whose
    estimated stored entries exceed {!max_nnz}, and a [file] larger than
    {!max_file_bytes} (or whose header exceeds the same caps), are
    refused. [size] and [amalgamation] must be [>= 1]. *)

val max_dim : int
(** Cap on a source's matrix dimension n (1,000,000). For [gen],
    n is [size²] for [grid2d]/[grid9], [size³] for [grid3d] and [size]
    otherwise. *)

val max_nnz : int
(** Cap on a source's stored entries (4,000,000). For [gen] it applies
    to an upper estimate: [5n] ([grid2d]), [9n] ([grid9]), [7n]
    ([grid3d]), [n(2w+1)] with [w = max 2 (n/50)] ([banded]), [6n]
    ([random]), [5n + 2bn] with [b = max 2 (n/40)] ([arrow]), [5n]
    ([powerlaw]), [3n] ([tridiagonal]). *)

val max_file_bytes : int
(** Cap on a [file] source's size in bytes (16 MiB). *)

val parse :
  ?sources:Source_cache.t ->
  ?cancel:Tt_util.Cancel.t ->
  string ->
  (Job.t list, string) Stdlib.result
(** Parse manifest text. On failure the error reports {e every}
    malformed line, one ["line N: message"] entry per line, joined by
    newlines — one fix round trip, not one per bad line.

    [sources], when given, is consulted once per line: a source whose
    canonical form (every default filled in; a [file] by its content
    digest; a tree literal by its text) is cached is not materialized
    again. Without it every line is materialized, as before. [cancel]
    (default {!Tt_util.Cancel.never}) is polled throughout the matrix
    pipeline.
    @raise Tt_util.Cancel.Cancelled when [cancel] expires — the only
    exception [parse] lets through. *)

val route_key :
  ?sources:Source_cache.t ->
  ?cancel:Tt_util.Cancel.t ->
  string ->
  (string, string) Stdlib.result
(** The shard routing key of a manifest entry: the {!Job.id} of its
    first job. Router and shard-aware clients both use it, so they
    agree on placement. Same arguments and errors as {!parse}. *)

val load : string -> (Job.t list, string) Stdlib.result
(** {!parse} the contents of a file. *)
