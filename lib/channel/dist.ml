type t =
  | Constant of int
  | Uniform of int * int
  | Truncated_exp of { mean : float; cap : int }

let validate = function
  | Constant d -> if d < 0 then invalid_arg "Dist: negative delay"
  | Uniform (lo, hi) -> if lo < 0 || hi < lo then invalid_arg "Dist: bad uniform range"
  | Truncated_exp { mean; cap } ->
      if mean <= 0. || cap < 0 then invalid_arg "Dist: bad truncated exponential"

let sample t rng =
  validate t;
  match t with
  | Constant d -> d
  | Uniform (lo, hi) -> Ba_util.Rng.int_in rng lo hi
  | Truncated_exp { mean; cap } ->
      min cap (int_of_float (Ba_util.Rng.exponential rng mean))

let max_delay = function
  | Constant d -> d
  | Uniform (_, hi) -> hi
  | Truncated_exp { cap; _ } -> cap

let mean = function
  | Constant d -> float_of_int d
  | Uniform (lo, hi) -> float_of_int (lo + hi) /. 2.
  | Truncated_exp { mean; cap } -> Float.min mean (float_of_int cap)
