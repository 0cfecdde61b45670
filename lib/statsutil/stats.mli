(** Descriptive statistics for the benchmark harness.

    The paper reports per-flexibility distributions over 24 scenarios
    (boxplot-style: median and quartiles); {!summarize} computes the
    five-number summary the bench tables print. *)

val mean : float list -> float
(** @raise Invalid_argument on the empty list. *)

val variance : float list -> float
(** Unbiased sample variance; 0 for singletons.
    @raise Invalid_argument on the empty list. *)

val stddev : float list -> float

val quantile : float -> float list -> float
(** [quantile q xs] with linear interpolation between order statistics,
    [q] in [0, 1].  @raise Invalid_argument on the empty list or a [q]
    outside [0, 1]. *)

val median : float list -> float

type summary = {
  count : int;
  min : float;
  q1 : float;
  med : float;
  q3 : float;
  max : float;
  avg : float;
}

val summarize : float list -> summary
(** @raise Invalid_argument on the empty list. *)

val geometric_mean : float list -> float
(** @raise Invalid_argument on empty input or non-positive values. *)
