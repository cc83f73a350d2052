(* [QCheck.int_range lo hi] shrinks toward 0, so with [lo > 0] a failure
   can print, and rerun, a case outside the range the property states.
   [int_range lo hi] draws the same values from the same generator and
   shrinks toward [lo] without leaving [lo, hi]. *)
let int_range lo hi =
  QCheck.make ~print:QCheck.Print.int
    ~shrink:(fun x -> QCheck.Iter.map (fun d -> lo + d) (QCheck.Shrink.int (x - lo)))
    (QCheck.Gen.int_range lo hi)
