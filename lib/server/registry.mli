(** A Prometheus metrics registry: counter and gauge families with
    named labels, behind one mutex, printed in the order they were
    declared. The server and shard tiers each keep one ({!Metrics},
    {!Tt_shard.Metrics}) and update its family handles in place.

    Every operation takes the registry's one mutex and is cheap enough
    for the per-request hot path. *)

type t

val create : prefix:string -> t
(** Every family name is printed as [prefix ^ name]. *)

type family
(** The handle of one declared family. *)

val counter :
  t -> ?labels:string list -> ?init:string list list -> string -> family

val gauge :
  t -> ?labels:string list -> ?init:string list list -> string -> family
(** Declare a family with the label names [labels] (default none). An
    unlabelled family has its one series from the start, at 0. A
    labelled family starts with the series [init] (default none) at 0;
    they print first, in that order, then every other series sorted by
    label values. *)

val add : ?labels:string list -> family -> int -> unit
val addf : ?labels:string list -> family -> float -> unit
val set : ?labels:string list -> family -> int -> unit

val setf : ?labels:string list -> family -> float -> unit
(** Update the series with label values [labels] (default [[]]; one
    value per label name), creating it at 0 if needed. A series holds
    an int until a float is added or set; a float prints as [%.9g].
    @raise Invalid_argument when [labels] does not match the family's
    label names. *)

val remove : family -> string list -> unit
(** Drop the series with these label values (no-op when absent). *)

val get : ?labels:string list -> family -> int
(** Current value of a series, 0 when absent (a float is truncated). *)

val getf : ?labels:string list -> family -> float

val series : family -> (string list * int) list
(** Every series of the family with its value, in exposition order. *)

val total : family -> int
(** Sum of {!series}. *)

val copy : src:t -> t -> unit
(** [copy ~src dst] replaces every series of [dst] with those of [src].
    Both must have declared the same families in the same order.
    @raise Invalid_argument when the family lists differ. *)

val float_to_string : float -> string
(** [%.9g], or [NaN] for a non-finite value: the exposition form of a
    float sample. *)

val to_prometheus : t -> string
(** Text exposition: for each family in declaration order, one
    [# TYPE name counter|gauge] line, then one [name{l="v",...} value]
    line per series ([%d] for ints). *)
