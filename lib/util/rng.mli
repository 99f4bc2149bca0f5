(** Deterministic pseudo-random number generator (splitmix64).

    All stochastic behaviour in the simulator draws from an explicit [Rng.t]
    so that experiments are reproducible bit-for-bit from a seed. *)

type t

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val split : t -> t
(** Derive an independent generator; the parent advances. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal deviate with the given parameters of the underlying normal. *)
