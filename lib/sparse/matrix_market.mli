(** Hand-written Matrix Market (MM) reader and writer.

    Supports the full MM exchange format for matrices:
    [%%MatrixMarket matrix <format> <field> <symmetry>] with
    [format ∈ {coordinate, array}], [field ∈ {real, integer, complex,
    pattern}] and [symmetry ∈ {general, symmetric, skew-symmetric,
    hermitian}]. Complex values keep their real part; pattern entries get
    value [1.]. Indices in the file are 1-based, converted to 0-based
    here. Comment lines ([%...]) and blank lines are skipped.

    The paper's data set is read through this module (the University of
    Florida collection distributes matrices in MM form); the repository's
    synthetic corpus can be exported to MM for interoperability. *)

type format = Coordinate | Array_format
type field = Real | Integer | Complex | Pattern
type symmetry = General | Symmetric | Skew_symmetric | Hermitian

type header = {
  format : format;
  field : field;
  symmetry : symmetry;
  nrows : int;
  ncols : int;
  nnz : int;  (** Stored entries for [Coordinate]; [nrows * ncols] for
                  [Array_format]. *)
}

exception Parse_error of { line : int; message : string }
(** Raised on malformed input, with a 1-based line number. Rejected
    beyond the obvious syntax errors: non-finite values ([nan]/[inf] —
    they would silently poison every downstream weight), non-positive
    dimensions, a negative entry count, symmetric, skew-symmetric or
    hermitian storage of a non-square shape, indices outside the
    declared shape, and integers too large for the native [int]
    (reported as overflow, not as garbage). *)

val parse_string : ?expand_symmetry:bool -> string -> header * Triplet.t
(** Parse an MM document. With [expand_symmetry] (default [true]),
    symmetric/skew/hermitian storage is expanded to the full pattern
    (mirroring off-diagonal entries, negating them for skew). *)

val read_file : ?expand_symmetry:bool -> string -> header * Triplet.t
(** {!parse_string} on a file's contents.
    @raise Sys_error on I/O failure. *)

val to_string : ?field:field -> ?symmetry:symmetry -> Csr.t -> string
(** Render a matrix in coordinate format. With [symmetry = Symmetric],
    only the lower triangle is emitted (the matrix must be symmetric). *)

val write_file : ?field:field -> ?symmetry:symmetry -> string -> Csr.t -> unit
(** {!to_string} into a file. *)
