(** Latency histogram with logarithmic buckets and exact-percentile support.

    Used to reproduce the latency CDFs of Figures 4 and 8.  The histogram
    keeps log-spaced buckets (cheap, bounded memory) and, when built with
    [~exact:true], also records every sample so percentiles and CDF points
    are exact. *)

type t

val create : ?exact:bool -> unit -> t
(** [exact] defaults to [true]; pass [false] for very large sample counts. *)

val add : t -> int -> unit
(** Record one sample (nanoseconds; any non-negative integer unit works). *)

val count : t -> int
val mean : t -> float
val min_value : t -> int
val max_value : t -> int

val percentile : t -> float -> int
(** [percentile t 50.0] is the median.  Returns 0 on an empty histogram
    (an unpopulated instrument renders as zeros, never as [max_int]
    garbage from the untouched [min] field).  Raises [Invalid_argument]
    on a percentile outside [0, 100]. *)

val cdf : t -> points:int -> (int * float) list
(** [cdf t ~points] returns [points] (value, cumulative-fraction) pairs
    suitable for plotting; fractions are non-decreasing and end at 1. *)

val merge : t -> t -> t
(** Combine two histograms built with the same [exact] setting. *)
